"""The solver's search, decoding and verification on RingElement values,
kept as oracles.

``_kernel._search`` runs on element indices; ``search`` is the same
depth-first search in the same canonical coefficient order, without the
kernel's unit-orbit pruning, written on ``RingElement`` arithmetic and the
exhaustive ``decode``.  Both accept any catalog ring, products and D(p)
included, so ``search`` also serves as the plain search on rings that
``solve_brute`` splits or reduces.  ``transfer`` and ``verify`` recompute
every transfer vector and decoder sum through ``fold``, and ``decode_on_elements`` is
``decode_search``'s elimination over GF(p^k) on ``RingElement`` values, as it
ran before table fields moved to discrete logarithms.  ``first_decoders`` is
the elimination kernel as it ran before ``_kernel._first_decoders`` reduced
its rows in place: new tuples per column, through a ring's vector ``plus``
and ``scaled``.  ``kahn_order``, ``layout``, ``defects`` and ``search_plan``
compile a network as ``network._Plan`` did before it became one walk: a
Kahn order re-sorting its ready list, then a sort of the edges by (rank of
tail, id), each defect found by its own scan, and relays resolved
recursively; ``verify`` raises the ``ValueError`` of ``network.verify``
for a missing or misshapen coefficient list and a coefficient over another
ring.
"""

import itertools
from types import SimpleNamespace

from ringcode._kernel import _first_decoders
from ringcode.network import Receiver, ScalarLinearCode, TransferVector, _checked, _layout
from ringcode.rings import add, elements, inverse, mul, neg, one, zero


def unit(target, msg_ids, spec):
    """The transfer vector of message target on its own."""
    return TransferVector({m: one(spec) if m == target else zero(spec) for m in msg_ids})


def fold(coeffs, vecs, m, spec):
    """sum(c_i * vec_i[m]) through the public rings.add and rings.mul, which
    check every operand's ring, so the oracle does not share network._combine."""
    acc = zero(spec)
    for c, vec in zip(coeffs, vecs):
        acc = add(acc, mul(c, vec.coefficients[m]))
    return acc


def decode(rows, target, spec):
    """The first c in canonical order with sum(c_i * row_i) = unit vector of
    target, or None, by trying every coefficient tuple.  The last input is
    the most significant over a field and the first over any other ring:
    over fields and Z(p^k), the normal form of decode_search."""
    if not rows:
        return None
    last_first = all(inverse(a) is not None for a in elements(spec)[1:])  # a field
    goal = unit(target, sorted(rows[0].coefficients), spec)
    for combo in itertools.product(elements(spec), repeat=len(rows)):
        combo = combo[::-1] if last_first else combo
        if all(fold(combo, rows, m, spec) == want for m, want in goal.coefficients.items()):
            return combo
    return None


def kahn_order(net):
    """Kahn's order, re-sorting the ready list after every pop so the
    smallest ready node id comes next; None on a cycle.  Edges with an
    unknown end are left out."""
    indeg = {n: 0 for n in net.nodes}
    heads = {n: [] for n in net.nodes}
    for e in sorted(net.edges, key=lambda e: e.id):
        if e.head in indeg and e.tail in indeg:
            indeg[e.head] += 1
            heads[e.tail].append(e.head)
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for head in heads[n]:
            indeg[head] -= 1
            if indeg[head] == 0:
                ready.append(head)
        ready.sort()
    return order if len(order) == len(net.nodes) else None


def defects(net):
    """network.validate's list, each defect found by its own scan."""
    found = []
    nodes = set(net.nodes)
    if len(nodes) != len(net.nodes):
        found.append("duplicate node ids")
    if len({e.id for e in net.edges}) != len(net.edges):
        found.append("duplicate edge ids")
    known = {m.id for m in net.messages}
    if len(known) != len(net.messages):
        found.append("duplicate message ids")
    for e in net.edges:
        found += [f"edge {e.id}: unknown {end} {node}" for end, node in (("tail", e.tail), ("head", e.head))
                  if node not in nodes]
    found += [f"message {m.id}: unknown source {m.source}" for m in net.messages if m.source not in nodes]
    for r in net.receivers:
        if r.node not in nodes:
            found.append(f"receiver at unknown node {r.node}")
        found += [f"receiver {r.node}: unknown demand {d}" for d in r.demands if d not in known]
    if kahn_order(net) is None:
        found.append("graph has a directed cycle")
    return found


def layout(net):
    """(edges, inputs_of): the edges sorted by the kahn_order rank of their
    tail, then by id, and every node's inputs by name, its ("msg", id)
    sorted by id, then its ("edge", id) sorted by id."""
    rank = {node: i for i, node in enumerate(kahn_order(net))}
    inputs_of = {node: [] for node in net.nodes}
    for m in sorted(net.messages, key=lambda m: m.id):
        inputs_of[m.source].append(("msg", m.id))
    for e in sorted(net.edges, key=lambda e: e.id):
        inputs_of[e.head].append(("edge", e.id))
    return sorted(net.edges, key=lambda e: (rank[e.tail], e.id)), inputs_of


def search_plan(net):
    """(searched, forms, ready): the edges the search assigns, those whose
    tail has two inputs or more, in layout order; each node's inputs as the
    input each carries through relays, a ("msg", id), ("zero", "") or a
    searched ("edge", id); and per depth, from -1, the receivers whose last
    searched input is the edge at that depth."""
    edges, inputs_of = layout(net)
    searched = [e for e in edges if len(inputs_of[e.tail]) >= 2]
    edge_by_id = {e.id: e for e in net.edges}

    def resolve(inp):
        kind, ref = inp
        if kind == "msg":
            return inp
        ins = inputs_of[edge_by_id[ref].tail]
        if len(ins) >= 2:
            return inp
        if not ins:
            return ("zero", "")
        return resolve(ins[0])

    forms = {node: [resolve(i) for i in ins] for node, ins in inputs_of.items()}
    depth_of = {("edge", e.id): i for i, e in enumerate(searched)}
    ready: dict[int, list[Receiver]] = {}
    for recv in net.receivers:
        last = max((depth_of.get(f, -1) for f in forms[recv.node]), default=-1)
        ready.setdefault(last, []).append(recv)
    return searched, forms, ready


def transfer(net, code):
    """The TransferVector of every node input, keyed ("msg", m) or
    ("edge", e), each entry a fold, after network.transfer's checks of the
    edge's coefficient list and of each coefficient's ring."""
    spec, msg_ids = code.ring, net.message_ids()
    edges, inputs_of = layout(net)
    vec_of = {("msg", m): unit(m, msg_ids, spec) for m in msg_ids}
    for e in edges:
        vecs, coeffs = [vec_of[i] for i in inputs_of[e.tail]], code.edge_coeffs.get(e.id)
        if coeffs is None or len(coeffs) != len(vecs):
            raise ValueError(f"edge {e.id}: coefficient arity mismatch")
        owned(coeffs, spec)
        vec_of[("edge", e.id)] = TransferVector({m: fold(coeffs, vecs, m, spec) for m in msg_ids})
    return vec_of


def owned(coeffs, spec):
    """ValueError, as network's, if a coefficient is over a ring other than spec."""
    if any(c.ring != spec for c in coeffs):
        raise ValueError("elements belong to different rings")


def verify(net, code):
    """network.verify recomputed through fold: every transfer vector and
    every decoder sum on the public, checked add and mul.  Receivers and
    their demands are taken in order; a demand without a decoder gives
    False, one of the wrong length or over another ring ValueError."""
    spec, msg_ids = code.ring, net.message_ids()
    vec_of, inputs_of = transfer(net, code), layout(net)[1]
    for recv in net.receivers:
        rows = [vec_of[i] for i in inputs_of[recv.node]]
        for demand in recv.demands:
            coeffs = code.decoders.get((recv.node, demand))
            if coeffs is None:
                return False
            if len(coeffs) != len(rows):
                raise ValueError(f"receiver {recv.node}: decoder arity mismatch for {demand}")
            owned(coeffs, spec)
            goal = unit(demand, msg_ids, spec).coefficients
            if any(fold(coeffs, rows, m, spec) != goal[m] for m in msg_ids):
                return False
    return True


def element_ops(spec):
    """The elimination's operations over the field spec on RingElement values,
    through the public add, mul, neg and inverse: scalar add and mul for
    _kernel._first_decoders, vector plus and scaled for first_decoders."""
    z = zero(spec)
    return SimpleNamespace(
        zero=z, one=one(spec), field=True, add=add, mul=mul,
        plus=lambda u, v: tuple(map(add, u, v)),
        scaled=lambda c, v: tuple(x if x == z else mul(c, x) for x in v),
        val=lambda a: 1, split=lambda a, w: (inverse(a), z), cancel=lambda a, w: neg(a),
    )


def decode_on_elements(rows, demands, spec):
    """decode_search over GF(p^k) for rows and demands it accepts, with the
    elimination on RingElement values (element_ops)."""
    msg_ids = sorted(rows[0].coefficients)
    vecs = [tuple(row.coefficients[m] for m in msg_ids) for row in rows]
    units = [tuple(unit(d, msg_ids, spec).coefficients.values()) for d in demands]
    found = _first_decoders(vecs, units, element_ops(spec))
    return None if found is None else tuple(found)


def first_decoders(rows, targets, ops):
    """Per target t, the lexicographically first c with sum(c_i * rows[i]) = t,
    with the last input most significant over a field, else the first; None
    if a target has none.

    Howell-form elimination on [rows | -I] over a field or Z(p^k) (Howell
    1986; Storjohann and Mulders 1998): a column's pivot is its entry of least
    valuation v, scaled to p^v, and p^(k-v) times the pivot row is fed back.
    Each (t | 0), reduced along but never a pivot, ends as (0 | c), c in least
    residues, iff t is decodable; a target left nonzero at a message column
    stays so, and the elimination stops there.  ops has a rings.Arithmetic's
    fields: for a != 0, val(a) = w is p^v as an integer, split(a, w) =
    (u, p^(k-v)) for a unit u with u*a = p^v, and cancel(a, w) is the c
    making a + c*p^v the least residue of a modulo p^v.
    """
    zero, plus, scaled, val, split, cancel = ops.zero, ops.plus, ops.scaled, ops.val, ops.split, ops.cancel
    minus_one = cancel(ops.one, 1)  # 1 + (-1)*1 = 0, the least residue of 1 modulo 1
    order = range(len(rows))[::-1] if ops.field else range(len(rows))  # most significant first
    todo = [row + tuple(minus_one if i == k else zero for k in order) for i, row in enumerate(rows)]
    done = [t + (zero,) * len(rows) for t in targets]
    for j in range(len(done[0]) if done else 0):
        live = [v for v in todo if v[j] != zero]
        if live:
            first = min(live, key=lambda v: val(v[j])) if len(live) > 1 else live[0]
            live.remove(first)
            w = val(first[j])
            u, f = split(first[j], w)
            pivot = scaled(u, first)
            todo = [v for v in todo if v[j] == zero] + [plus(v, scaled(cancel(v[j], w), pivot)) for v in live]
            done = [plus(v, scaled(cancel(v[j], w), pivot)) if v[j] != zero else v for v in done]
            if f != zero:  # the feedback row, zero at column j
                todo.append(scaled(f, pivot))
        if j < len(targets[0]) and any(v[j] != zero for v in done):
            return None  # todo is zero at column j now: no later pivot changes it
    return [v[len(t):][::-1] if ops.field else v[len(t):] for t, v in zip(targets, done)]


def search(net, spec):
    """First scalar linear solution over spec in canonical coefficient order,
    with decoders from decode, or None."""
    inputs_of, msg_ids = layout(net)[1], net.message_ids()
    searched, forms, recv_ready = search_plan(net)
    vec_of = {("msg", m): unit(m, msg_ids, spec) for m in msg_ids}
    vec_of[("zero", "")] = TransferVector(dict.fromkeys(msg_ids, zero(spec)))

    decode_cache: dict = {}

    def receiver_ok(recv):
        rows = [vec_of[f] for f in forms[recv.node]]
        key = (recv.demands, tuple(r.coefficients[m] for r in rows for m in msg_ids))
        if key in decode_cache:
            return decode_cache[key]
        found = {}
        for demand in recv.demands:
            coeffs = decode(rows, demand, spec)
            if coeffs is None:
                found = None
                break
            found[demand] = coeffs
        decode_cache[key] = found
        return found

    for recv in recv_ready.get(-1, ()):
        if receiver_ok(recv) is None:
            return None

    domain = elements(spec)
    choice_lists = [
        list(itertools.product(domain, repeat=len(inputs_of[e.tail])))
        for e in searched
    ]
    chosen = {}

    def descend(depth):
        if depth == len(searched):
            return True
        e = searched[depth]
        vecs = [vec_of[f] for f in forms[e.tail]]
        for combo in choice_lists[depth]:
            vec_of[("edge", e.id)] = TransferVector({m: fold(combo, vecs, m, spec) for m in msg_ids})
            if all(receiver_ok(r) is not None for r in recv_ready.get(depth, ())):
                if descend(depth + 1):
                    chosen[e.id] = combo
                    return True
        return False

    if not descend(0):
        return None
    edge_coeffs = {
        e.id: chosen.get(e.id, (one(spec),) * len(inputs_of[e.tail]))
        for e in net.edges
    }
    decoders = {
        (recv.node, demand): coeffs
        for recv in net.receivers
        for demand, coeffs in receiver_ok(recv).items()
    }
    return _checked(_layout(net), ScalarLinearCode(spec, edge_coeffs, decoders))
