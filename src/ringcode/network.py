"""Networks, scalar linear codes over a catalog ring, and an exhaustive solver.

A network is a finite directed acyclic multigraph with messages generated at
nodes and receivers demanding messages.  A scalar linear code assigns each
edge a coefficient list over a ring, one coefficient per input of the edge's
tail node (a node's inputs are its own messages, sorted by id, followed by
its in-edges, sorted by id), and each (receiver, demand) a decoding
coefficient list over the receiver's inputs.  The symbol an edge carries is
the corresponding linear combination, so each edge has an exact transfer
vector of per-message coefficients.

Each public call compiles the network once, in _layout, into a _Plan that
holds for every ring.  One walk over the edges, sorted once by id and
grouped by tail, in Kahn's order with the smallest ready node id first,
gives the edges in (rank of tail, id) order, an integer slot per message,
for the zero vector and per edge, each node's input slots and the slot each
edge carries through relays; the defects of an invalid network are scanned
for only when the walk meets one.  The search's receiver checks per depth
are made from the carried slots on first use.  verify checks D * M = I on
that plan (Koetter and Medard 2003): it holds one vector per slot, a tuple
in message_ids() order of values of the ring's record
rings.arithmetic(spec), on which _domain(spec) builds the vector operations
that verify, decode_search and the search share.  It owner-checks and
encodes each coefficient once and skips a zero one; a relay edge (one
input) skips the general combination and shares its input's vector where
its coefficient is one.  transfer and decode_search take and give
TransferVector of RingElements, so values become elements again only on the
way out.

The solver splits products and composite Z(n) and refutes Z(p^k) and D(p)
through their residue field, so it only searches fields and Z(p^k), all on
one plan, each with one call of _search, which returns the code it found.
The codes it builds on the way are not checked; the code a public call
returns is checked once, and a failed check raises RuntimeError.  The
search pins edges whose tail has a single input to the relay coefficient 1:
over a commutative ring any solution can be rescaled into this normal form
(consumers absorb the copy factor), so solvability is unaffected while the
search space collapses to the genuinely combining edges.  Receivers are
checked as soon as the edges they depend on are assigned.

The search runs in canonical order of element indices.  A node tries the
first coefficient tuple of each unit orbit of its edge's span.  Only a tuple
whose first nonzero entry is the least index of its unit orbit (1 over a
field, p^t over Z(p^k)) can be first, so only those are made: q + 2 for two
inputs over GF(q).  That list depends only on the edge's input vectors, so it
is made once per input tuple and extended lazily.  Only failing subtrees go
and the first solution in canonical order stays.  One Howell-form
elimination per receiver decides all of its demands and gives a decoder for
each: the lexicographically first, with the last input most significant over
a field and the first over Z(p^k).  It stops at the first message column
that a demand's unit vector cannot reach; it reduces its rows in place with
the record's scalar add and mul, touching only the nonzero entries of each
pivot.  Every search over one ring value, and over Z(p) and GF(p) alike,
shares that ring's _search_memo: its eliminations, keyed by (target vectors,
rows), and its candidate lists, so sweeps over many networks redo neither; a
one-shot solve starts from an empty memo and does the same work as without
it.
"""

from __future__ import annotations

import copy
import functools
import heapq
import itertools
import json
import math
import operator
from typing import Callable, NamedTuple, Sequence

from ._record import Frozen, Record, _set
from .errors import BudgetExceeded, GuardExceeded
from .rings import (
    DualNumbers,
    FIELD_TABLE_LIMIT,
    GaloisField,
    IntegersMod,
    PrimeField,
    Product,
    RingElement,
    RingHom,
    RingSpec,
    SURJECTIVE_KINDS,
    _check_owner,
    _iter_elements,
    _kept,
    add,
    apply_hom,
    arithmetic,
    crt,
    factorize,
    format_element,
    format_ring,
    is_prime,
    mul,
    one,
    parse_element,
    parse_ring,
    ring_size,
    subring_inclusion,
    zero,
)

DEFAULT_BUDGET = 2**26
CHOOSE_TWO_MAX_N = 12
SEARCH_MEMO_LIMIT = 4096  # entries a ring's search memo may hold when a search starts
_by_id = operator.attrgetter("id")


class Edge(Frozen):
    __slots__ = ("id", "tail", "head")

    def __init__(self, id: str, tail: str, head: str):
        _set(self, "id", id)
        _set(self, "tail", tail)
        _set(self, "head", head)


class Message(Frozen):
    __slots__ = ("id", "source")

    def __init__(self, id: str, source: str):
        _set(self, "id", id)
        _set(self, "source", source)


class Receiver(Frozen):
    __slots__ = ("node", "demands")

    def __init__(self, node: str, demands: tuple[str, ...]):
        _set(self, "node", node)
        _set(self, "demands", demands)


class Network(Frozen):
    __slots__ = ("nodes", "edges", "messages", "receivers")

    def __init__(self, nodes: tuple[str, ...], edges: tuple[Edge, ...], messages: tuple[Message, ...],
                 receivers: tuple[Receiver, ...]):
        self.__setstate__((nodes, edges, messages, receivers))

    def message_ids(self) -> list[str]:
        return sorted(m.id for m in self.messages)


class ScalarLinearCode(Record):
    __slots__ = ("ring", "edge_coeffs", "decoders")

    def __init__(self, ring: RingSpec, edge_coeffs: dict[str, tuple[RingElement, ...]],
                 decoders: dict[tuple[str, str], tuple[RingElement, ...]]):
        self.ring = ring
        self.edge_coeffs = edge_coeffs
        self.decoders = decoders


class TransferVector(Record):
    """Per-message coefficients of the symbol an edge carries."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: dict[str, RingElement]):
        self.coefficients = coefficients


def validate(net: Network) -> list[str]:
    """Structural defects, one entry per violation; empty iff the network is valid."""
    return _Plan(net).defects


def _defects(net: Network, order: list[str] | None) -> list[str]:
    nodes, known, defects = set(net.nodes), {m.id for m in net.messages}, []
    for kind, ids in (("node", net.nodes), ("edge", [e.id for e in net.edges]),
                      ("message", [m.id for m in net.messages])):
        if len(set(ids)) != len(ids):
            defects.append(f"duplicate {kind} ids")
    defects += [f"edge {e.id}: unknown {end} {node}" for e in net.edges
                for end, node in (("tail", e.tail), ("head", e.head)) if node not in nodes]
    defects += [f"message {m.id}: unknown source {m.source}" for m in net.messages if m.source not in nodes]
    for r in net.receivers:
        if r.node not in nodes:
            defects.append(f"receiver at unknown node {r.node}")
        defects += [f"receiver {r.node}: unknown demand {d}" for d in r.demands if d not in known]
    return defects + ["graph has a directed cycle"] * (order is None)


class _Search(NamedTuple):  # see _Plan
    sources: dict  # node -> tuple of slots
    checks: list  # by depth: lists of (demand slots, source slots, receivers)


class _Plan:
    """A network compiled once per public call, for every ring, by one walk
    over its edges grouped by tail, in Kahn's order taking the smallest ready
    node id first (order, None on a cycle).  Slots number the vectors a call
    computes: message m at msg_slot[m], in message_ids() order, then zero,
    then edge i of edges, in (topological rank of tail, id) order, at
    len(msg_slot) + 1 + i.  inputs lists each node's input slots (see the
    module docstring); carries[slot] is the slot whose vector that slot
    carries through relays: itself for a message, zero or a searched edge,
    whose tail has two inputs or more (searched lists their (slot, edge)).
    defects is validate's list, scanned for only when the walk meets a
    defect.  search, read only by the search, is made from these on first use
    (see _Plan.search)."""

    def __init__(self, net: Network):
        nodes, edges, msgs = net.nodes, sorted(net.edges, key=_by_id), sorted(net.messages, key=_by_id)
        self.net, self.msg_slot = net, (msg_slot := {m.id: i for i, m in enumerate(msgs)})
        (inputs, outs, into), indeg = ({n: [] for n in nodes} for _ in range(3)), dict.fromkeys(nodes, 0)
        ok = (len(indeg) == len(nodes) and len(msg_slot) == len(msgs) and len(set(map(_by_id, edges))) == len(edges)
              and indeg.keys() >= {r.node for r in net.receivers}
              and msg_slot.keys() >= {d for r in net.receivers for d in r.demands})
        for i, m in enumerate(msgs):
            if (ins := inputs.get(m.source)) is None:
                ok = False
            else:
                ins.append(i)
        for i, e in enumerate(edges):  # outs and into: by id
            if e.tail in outs and e.head in outs:
                outs[e.tail].append(i)
                into[e.head].append(i)
                indeg[e.head] += 1
            else:
                ok = False
        ready = sorted(n for n, d in indeg.items() if not d)  # a sorted list is a heap
        order, slot_of, self.edges, base = [], [0] * len(edges), [], len(msg_slot) + 1
        self.carries, self.searched = carries, searched = list(range(base)), []
        place, carry, pop, push = self.edges.append, carries.append, heapq.heappop, heapq.heappush
        while ready:
            order.append(n := pop(ready))
            (ins := inputs[n]).extend(map(slot_of.__getitem__, into[n]))  # in-edges come before n's own
            relayed = carries[ins[0]] if len(ins) == 1 else None if ins else base - 1  # None: n's edges are searched
            for i in outs[n]:
                slot_of[i] = slot = len(carries)
                place(e := edges[i])
                if relayed is None:
                    searched.append((slot, e))
                    carry(slot)
                else:
                    carry(relayed)
                indeg[h := e.head] -= 1
                if not indeg[h]:
                    push(ready, h)
        self.inputs, self.order = inputs, order if len(order) == len(nodes) else None
        self.defects = [] if ok and self.order is not None else _defects(net, self.order)

    @functools.cached_property
    def search(self) -> _Search:
        """The search's part of a valid plan, made on first use from the
        walk's carried slots, with no second walk over the edges, so verify
        and the transforms never pay for it: sources, for each node, the
        slots its inputs carry; checks[depth], each receiver check (demand
        slots, source slots, the receivers it decides) once, after the last
        searched edge it depends on."""
        searched, carried, demand = self.searched, self.carries.__getitem__, self.msg_slot.__getitem__
        depth = {slot: i for i, (slot, _) in enumerate(searched, 1)}
        sources = {n: tuple(map(carried, ins)) for n, ins in self.inputs.items()}
        checks = [{} for _ in range(len(searched) + 1)]
        for r in self.net.receivers:  # carried slots rise with depth, so the largest gives the level
            level = checks[depth.get(max(rows), 0) if (rows := sources[r.node]) else 0]
            level.setdefault((tuple(map(demand, r.demands)), rows), []).append(r)
        return _Search(sources, [[(*k, rs) for k, rs in level.items()] for level in checks])


def _layout(net: Network) -> _Plan:
    """net's _Plan.  Raises ValueError naming the defects of an invalid network."""
    if (plan := _Plan(net)).defects:
        raise ValueError("invalid network: " + "; ".join(plan.defects))
    return plan


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@functools.cache  # a Network is frozen, so every caller can share one per n
def choose_two(n: int) -> Network:
    """Two messages x, y; n coded symbols; one receiver per unordered pair.

    The source emits n combining edges into middle nodes; each middle node
    fans its symbol out to the receivers of the pairs it belongs to through
    copy edges.  Every receiver sees the symbols of a distinct pair {i, j}
    and demands both messages.  Built once per n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > CHOOSE_TWO_MAX_N:
        raise GuardExceeded(f"n must be at most {CHOOSE_TWO_MAX_N}")
    nodes = ["s"] + [f"m{i:02d}" for i in range(1, n + 1)]
    edges = [Edge(f"lam{i:02d}", "s", f"m{i:02d}") for i in range(1, n + 1)]
    receivers = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        rnode = f"r{i:02d}x{j:02d}"
        nodes.append(rnode)
        edges.append(Edge(f"a{i:02d}x{j:02d}", f"m{i:02d}", rnode))
        edges.append(Edge(f"b{i:02d}x{j:02d}", f"m{j:02d}", rnode))
        receivers.append(Receiver(rnode, ("x", "y")))
    return Network(tuple(nodes), tuple(edges), (Message("x", "s"), Message("y", "s")), tuple(receivers))


def two_six() -> Network:
    """The four-symbol, six-receiver multicast variant: choose_two(4)."""
    return choose_two(4)


# ---------------------------------------------------------------------------
# transfer vectors and verification
# ---------------------------------------------------------------------------


def _itself(a):
    return a


class _Domain(NamedTuple):
    """The vectors that verify, decode_search and the search compute on over
    one ring (see _domain): tuples of the values of its record
    rings.arithmetic(spec).  add and mul are the record's scalar operations,
    with which the elimination reduces its rows in place; val, split and
    cancel are the elimination's too (see _first_decoders), with val(zero)
    the ring size, and exist over fields and Z(p^k) only."""

    encode: Callable  # RingElement -> value
    decode: Callable  # value -> RingElement, the shared one where the ring has them
    zero: object
    one: object
    add: Callable  # add(a, b): the value a + b
    mul: Callable  # mul(a, b): the value a * b
    plus: Callable  # plus(u, v): the vector u + v
    scaled: Callable  # scaled(c, v): the vector c * v
    val: Callable | None = None
    split: Callable | None = None
    cancel: Callable | None = None
    field: bool = False

    def orbit_key(self, v):
        """Names the unit orbit {u*v} of a vector over a field or Z(p^k): v
        scaled so its first entry of least valuation t becomes p^t (1 over a
        field); the units fixing p^t fix every entry of valuation >= t."""
        least = min(v, key=self.val, default=self.zero)
        return v if least == self.zero else self.scaled(self.split(least, self.val(least))[0], v)


def _domain(spec: RingSpec) -> _Domain:
    """spec's vectors over its record r = arithmetic(spec), built on first
    use and kept on spec.  plus and scaled apply r.add and r.mul entry by
    entry; a product's run once per factor on the transposed vector, so each
    factor computes on its own values (logs for a table field).  Over a field
    every nonzero entry is a unit: val(a) is 1, split(a, w) gives r.inv(a)
    and cancel(a, w) is r.neg(a).  Z(p^k) eliminates by gcd valuations."""
    return _kept(spec, "_domain", _build_domain)


def _build_domain(spec: RingSpec) -> _Domain:
    r, q = arithmetic(spec), ring_size(spec)
    if isinstance(spec, Product):
        parts = tuple(map(_domain, spec.factors))
        plus = lambda u, v: tuple(zip(*[f.plus(a, b) for f, a, b in zip(parts, zip(*u), zip(*v))]))
        scaled = lambda c, v: tuple(zip(*[f.scaled(x, a) for f, x, a in zip(parts, c, zip(*v))]))
    else:
        plus, scaled = (lambda u, v: tuple(map(r.add, u, v))), (lambda c, v: tuple(map(r.mul, itertools.repeat(c), v)))
    d, z = _Domain(r.encode, r.decode, r.zero, r.one, r.add, r.mul, plus, scaled), r.zero
    if isinstance(spec, (PrimeField, GaloisField)):
        return d._replace(val=lambda a: q if a == z else 1, split=lambda a, w: (r.inv(a), z),
                          cancel=lambda a, w: r.neg(a), field=True)
    if isinstance(spec, IntegersMod) and len(factorize(q)) == 1:  # no elimination over composite Z(n)
        return d._replace(val=lambda a: math.gcd(a, q), split=lambda a, w: (pow(a // w, -1, q), q // w % q),
                          cancel=lambda a, w: -(a // w) % q, field=is_prime(q))
    return d


def _slot_vectors(d: _Domain, width: int) -> list:
    """The vectors of a plan's first slots over d: each message's unit vector, then zero."""
    z = (d.zero,)
    return [z * i + (d.one,) + z * (width - 1 - i) for i in range(width)] + [z * width]


def transfer(net: Network, code: ScalarLinearCode) -> dict[str, TransferVector]:
    """Exact per-edge message coefficients under the code."""
    (vecs, _), decode = _transfer(plan := _layout(net), code), _domain(code.ring).decode
    edge_vecs = zip(plan.edges, vecs[len(plan.msg_slot) + 1:])
    return {e.id: TransferVector(dict(zip(plan.msg_slot, map(decode, v)))) for e, v in edge_vecs}


def _transfer(plan: _Plan, code: ScalarLinearCode):
    """(vecs, combine): every slot's vector under the code (see _Plan), in
    _domain(code.ring), and combine(coeffs, slots), sum(c_i * vecs[slots[i]]).
    Each coefficient is owner-checked (ValueError if not over code.ring) and
    encoded once; a zero adds nothing and a one passes its vector through
    unmultiplied.  A relay edge skips combine: its coefficient, owner-checked,
    is compared with the ring's one, then zero, and a one shares the vector."""
    d = _domain(spec := code.ring)
    encode, plus, scaled, z, u, relay = d.encode, d.plus, d.scaled, d.zero, d.one, one(spec)
    vecs = _slot_vectors(d, len(plan.msg_slot))
    zeros = vecs[-1]

    def combine(coeffs, slots):
        acc = zeros
        for c, s in zip(coeffs, slots):
            _check_owner(c, spec)
            if (x := encode(c)) != z:
                v = vecs[s] if x == u else scaled(x, vecs[s])
                acc = v if acc is zeros else plus(acc, v)  # the first term itself, not zero plus it
        return acc

    for e in plan.edges:  # edge i fills slot len(msg_slot) + 1 + i
        coeffs, ins = code.edge_coeffs.get(e.id), plan.inputs[e.tail]
        if coeffs is None or len(coeffs) != len(ins):
            raise ValueError(f"edge {e.id}: coefficient arity mismatch")
        if len(ins) != 1:
            vecs.append(combine(coeffs, ins))
            continue
        _check_owner(c := coeffs[0], spec)
        v = vecs[ins[0]]
        vecs.append(v if c is relay or (x := encode(c)) == u else zeros if x == z else scaled(x, v))
    return vecs, combine


def verify(net: Network, code: ScalarLinearCode) -> bool:
    """True iff every receiver's decoders recover exactly its demands."""
    return _verify(_layout(net), code)


def _verify(plan: _Plan, code: ScalarLinearCode) -> bool:
    """verify on the network's _Plan."""
    vecs, combine = _transfer(plan, code)
    for recv in plan.net.receivers:
        slots = plan.inputs[recv.node]
        for demand in recv.demands:
            coeffs = code.decoders.get((recv.node, demand))
            if coeffs is None:
                return False
            if len(coeffs) != len(slots):
                raise ValueError(f"receiver {recv.node}: decoder arity mismatch for {demand}")
            if combine(coeffs, slots) != vecs[plan.msg_slot[demand]]:
                return False
    return True


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def decode_search(
    rows: Sequence[TransferVector], demands: Sequence[str], spec: RingSpec
) -> tuple[tuple[RingElement, ...], ...] | None:
    """Per demand, in order, coefficients c with sum(c_i * row_i) = its unit
    vector; None if some demand has none, () if there are no demands.

    spec must be a field or Z(p^k), every row over the same messages and
    every demand one of them, else ValueError.  Each c is the
    lexicographically first in canonical element order, with the last input
    most significant over a field and the first over Z(p^k).  One
    _first_decoders call serves every demand of the receiver: on the record's
    logs and scalar add and mul over a table field (see _domain), each row
    entry owner-checked and encoded once, else on the public, checked
    rings.add and rings.mul, with the record's val, split and cancel read
    through encode and decode.
    """
    d = _domain(spec)
    if d.val is None:
        raise ValueError(f"decode_search needs a field or Z(p^k), not {format_ring(spec)}")
    if not demands:
        return ()
    if not rows:
        return None
    msg_ids = sorted(rows[0].coefficients)
    if bad := [i for i, row in enumerate(rows) if row.coefficients.keys() != rows[0].coefficients.keys()]:
        raise ValueError(f"row {bad[0]} is over other messages than row 0, which is over {', '.join(msg_ids)}")
    if bad := [m for m in demands if m not in msg_ids]:
        raise ValueError(f"unknown demand {bad[0]}: the rows are over {', '.join(msg_ids)}")
    vecs = [tuple(row.coefficients[m] for m in msg_ids) for row in rows]
    if d.zero is None:  # a table field, on logs
        for x in itertools.chain.from_iterable(vecs):
            _check_owner(x, spec)
        ops, vecs = d, [tuple(map(d.encode, v)) for v in vecs]
    else:
        encode, decode, z = d.encode, d.decode, zero(spec)
        ops = _Domain(
            _itself, _itself, z, one(spec), add, mul, None, None,  # no vector ops: the kernel needs none
            val=lambda a: d.val(encode(a)), split=lambda a, w: tuple(map(decode, d.split(encode(a), w))),
            cancel=lambda a, w: decode(d.cancel(encode(a), w)), field=d.field,
        )
    units = [tuple(ops.one if m == demand else ops.zero for m in msg_ids) for demand in demands]
    found = _first_decoders(vecs, units, ops)
    return None if found is None else tuple(tuple(map(ops.decode, cs)) for cs in found)


def _first_decoders(rows, targets, ops):
    """Per target t, the lexicographically first c with sum(c_i * rows[i]) = t,
    with the last input most significant over a field, else the first; None
    if a target has none.

    Howell-form elimination on [rows | -I] over a field or Z(p^k) (Howell
    1986; Storjohann and Mulders 1998): a column's pivot is its entry of least
    valuation v, scaled to p^v, and p^(k-v) times the pivot row is fed back.
    Each (t | 0), reduced along but never a pivot, ends as (0 | c), c in least
    residues, iff t is decodable; a target left nonzero at a message column
    stays so, and the elimination stops there.  The rows are lists reduced in
    place with ops's scalar add and mul: at column j every row still to
    eliminate and the pivot are zero before j, so only the pivot's nonzero
    entries from j on are added.  ops has a _Domain's fields: for a != 0,
    val(a) = w is p^v as an integer, split(a, w) = (u, p^(k-v)) for a unit u
    with u*a = p^v, and cancel(a, w) is the c making a + c*p^v the least
    residue of a modulo p^v.
    """
    zero, add, mul, val, split, cancel = ops.zero, ops.add, ops.mul, ops.val, ops.split, ops.cancel
    field, n, messages = ops.field, len(rows), len(targets[0]) if targets else 0
    width = messages + n
    todo = [[*row, *(zero,) * n] for row in rows]
    minus_one = cancel(ops.one, 1)  # 1 + (-1)*1 = 0, the least residue of 1 modulo 1
    for i, v in enumerate(todo):  # -I, with the most significant input's -1 first
        v[width - 1 - i if field else messages + i] = minus_one
    done = [[*t, *(zero,) * n] for t in targets]
    for j in range(width if done else 0):
        live = [v for v in todo if v[j] != zero]
        if live:  # over a field every live entry has valuation 0: the first is the pivot
            first = live.pop(0 if field or len(live) == 1 else min(range(len(live)), key=lambda i: val(live[i][j])))
            w = val(first[j])
            u, f = split(first[j], w)
            pivot = [(k, mul(u, first[k])) for k in range(j, width) if first[k] != zero]
            todo = [v for v in todo if v[j] == zero] + live
            for v in live + [v for v in done if v[j] != zero]:
                c = cancel(v[j], w)
                for k, a in pivot:
                    v[k] = add(v[k], mul(c, a))
            if f != zero:  # the feedback row, zero at column j
                todo.append(feedback := [zero] * width)
                for k, a in pivot:
                    feedback[k] = mul(f, a)
        if j < messages:
            for v in done:
                if v[j] != zero:
                    return None  # todo is zero at column j now: no later pivot changes it
    return [tuple(v[messages:][::-1] if field else v[messages:]) for v in done]


# ---------------------------------------------------------------------------
# exhaustive solver
# ---------------------------------------------------------------------------


def solve_brute(net: Network, spec: RingSpec, budget: int = DEFAULT_BUDGET) -> ScalarLinearCode | None:
    """A scalar linear solution over spec in the solver's normal form, or None.

    A product (in its factor order) or composite Z(n) (over its Z(p^k)) is
    solvable iff every factor is; the factor solutions combine by product_code
    and, for Z(n), crt.  Z(p^k) and D(p) are refuted when their residue field
    is, and D(p) lifts the GF(p) solution.  Fields and Z(p^k) are searched in
    canonical coefficient order, and the result is the image of those first
    solutions.  BudgetExceeded is raised before a ring is searched when its
    size ** (coefficients to search) exceeds budget.  The network is compiled
    once, and the code returned is checked once: RuntimeError, also under
    python -O, if it fails verify.
    """
    return _solve(net, spec, budget)[0]


def _solve(net: Network, spec: RingSpec, budget: int, plan: _Plan | None = None):
    """solve_brute's answer and the refutation chain: [] for a solution, else
    the exhausted ring, then each reduction, e.g. ["Z(2)", "residue field of Z(4)"].
    A call without a plan compiles the network and checks its answer once; the
    rings on its route (factors, residue fields, CRT parts) are solved on that
    plan, unchecked: their codes are parts or images of the answer."""
    if plan is None:
        code, why = _solve(net, spec, budget, plan := _layout(net))
        return (None if code is None else _checked(plan, code)), why
    fac = factorize(spec.n) if isinstance(spec, IntegersMod) else []
    if isinstance(spec, Product) or len(fac) > 1:
        parts = spec.factors if not fac else [IntegersMod(p**k) for p, k in fac]
        solutions = []
        for part in parts:
            code, why = _solve(net, part, budget, plan)
            if code is None:
                return None, why + [f"factor of {format_ring(spec)}"]
            solutions.append(code)
        code = _product_code(plan, solutions)
        return (_apply_to_code(code, crt(code.ring, spec)) if fac else code), []
    if isinstance(spec, DualNumbers) or (fac and fac[0][1] > 1):  # D(p), Z(p^k>p)
        residue = IntegersMod(fac[0][0]) if fac else PrimeField(spec.p)
        code, why = _solve(net, residue, budget, plan)
        if code is None:
            return None, why + [f"residue field of {format_ring(spec)}"]
        if isinstance(spec, DualNumbers):
            return _apply_to_code(code, subring_inclusion(code.ring, spec)), []
    required = ring_size(spec) ** sum(len(plan.inputs[e.tail]) for _, e in plan.searched)
    if required > budget:
        raise BudgetExceeded(required, budget)
    code = _search(plan, spec)
    return code, [] if code is not None else [format_ring(spec)]


@functools.cache  # by ring value, like rings._shared: _solve makes fresh equal specs
def _search_memo(spec: RingSpec) -> tuple[dict, dict]:
    """(decodes, lists) shared by every _search over a ring equal to spec,
    one thread at a time: _first_decoders results by (target vectors, rows),
    and candidate lists by input vectors or depth (see candidates).  Z(p)
    searches use the memo of GF(p), whose values and kernel are theirs."""
    return {}, {}


def _search(plan: _Plan, spec: RingSpec) -> ScalarLinearCode | None:
    """The first scalar linear solution over a field or Z(p^k) in canonical
    coefficient order of the searched edges, unchecked, or None; relay edges
    get 1 (see the module docstring).  Over a field the decoders are the
    kernel's, else _decoded's.  GuardExceeded, before any work, if an edge is
    searched over more than FIELD_TABLE_LIMIT elements.

    Eliminations and candidate lists are the ring's _search_memo, which a
    search finding it above SEARCH_MEMO_LIMIT entries empties first.  One
    that exits by an exception drops the memo's lists: a generator the
    exception stopped would end them early, a false refutation."""
    if (searched := plan.searched) and ring_size(spec) > FIELD_TABLE_LIMIT:
        raise GuardExceeded(f"{format_ring(spec)} is too large to search")
    d, relay = _domain(spec), (one(spec),)  # one tuple for every relay edge
    code = ScalarLinearCode(spec, {e.id: relay * len(plan.inputs[e.tail]) for e in plan.net.edges}, {})
    if not searched:
        return _decoded(plan, code)
    decodes, store = _search_memo(PrimeField(spec.n) if isinstance(spec, IntegersMod) and d.field else spec)
    if len(decodes) + len(store) > SEARCH_MEMO_LIMIT:
        decodes.clear()
        store.clear()
    values, plus, scaled, decode = tuple(map(d.encode, _iter_elements(spec))), d.plus, d.scaled, d.decode

    # vecs by slot (see _Plan): the search writes only its searched edges' slots
    (sources, levels), width = plan.search, len(plan.msg_slot)
    vecs, base = _slot_vectors(d, width) + [None] * len(plan.edges), width + 1
    at = vecs.__getitem__
    checks = [[(tuple(map(at, demands)), rows, receivers) for demands, rows, receivers in level] for level in levels]

    # val gives each nonzero scalar the least index of its unit orbit: 1 over a
    # field, whose nonzero elements are one orbit, and p^t over Z(p^k)
    reps = sorted({d.val(x) for x in values[1:]})

    def first_of_orbits(inputs):
        """(combo, vector) for the first combo in canonical order of each unit
        orbit of the span of inputs: receiver spans ignore a unit, and later
        edges absorb it, so a node tries only these.  A combo whose first
        nonzero entry is not in reps is never first: a unit takes that entry
        into reps, and the multiple, earlier, spans the same orbit."""
        multiples, n = [[scaled(x, v) for x in values] for v in inputs], len(inputs)
        combos = itertools.chain([(0,) * n], (  # canonical order: the last first nonzero entry first
            (0,) * i + (r,) + rest for i in reversed(range(n)) for r in reps
            for rest in itertools.product(range(len(values)), repeat=n - 1 - i)))
        seen = set()
        for combo in combos:
            acc = functools.reduce(plus, map(list.__getitem__, multiples, combo))
            if (key := d.orbit_key(acc)) not in seen:
                seen.add(key)
                yield tuple(map(values.__getitem__, combo)), acc

    # an edge fed by no searched edge has the same inputs at every node, so
    # such edges share one list per input tuple; the others keep one per depth.
    # store: key -> (inputs, a tee at the start of first_of_orbits(inputs))
    fixed = [all(s < base for s in sources[e.tail]) for _, e in searched]

    def candidates(depth: int, inputs):
        """A walk over first_of_orbits(inputs) from its start.  Copies of a tee
        share its buffer: a walk reads what earlier walks made, extends it only
        at its end, and never re-enters the generator."""
        key = inputs if fixed[depth] else depth
        if (entry := store.get(key)) is None or entry[0] != inputs:
            entry = store[key] = (inputs, itertools.tee(first_of_orbits(inputs), 1)[0])
        return copy.copy(entry[1])

    chosen: dict[str, tuple] = {}

    def descend(depth: int) -> bool:  # first checks the receivers edge depth - 1 completed
        for targets, rows, _ in checks[depth]:
            key = (targets, tuple(map(at, rows)))
            if (found := decodes.get(key, ...)) is ...:  # not yet eliminated
                found = decodes[key] = _first_decoders(key[1], targets, d)
            if found is None:
                return False
        if depth == len(searched):
            return True
        slot, e = searched[depth]
        for combo, vec in candidates(depth, tuple(map(at, sources[e.tail]))):
            vecs[slot] = vec
            if descend(depth + 1):
                chosen[e.id] = combo
                return True
        return False

    try:
        if not descend(0):
            return None
    except BaseException:
        store.clear()
        raise
    code.edge_coeffs.update((e, tuple(map(decode, cs))) for e, cs in chosen.items())
    if not d.field:
        return _decoded(plan, code)
    code.decoders = {(r.node, m): tuple(map(decode, cs)) for level in checks for targets, rows, receivers in level
                     for r in receivers for m, cs in zip(r.demands, decodes[targets, tuple(map(at, rows))])}
    return code


def _decoded(plan: _Plan, code: ScalarLinearCode) -> ScalarLinearCode | None:
    """The code with decoders from one decode_search per receiver on its
    exact transfer vectors, not checked.  A receiver that cannot decode gives
    None when no edge combines, else RuntimeError: the search or construction
    ensured it."""
    (vecs, _), decode = _transfer(plan, code), _domain(code.ring).decode
    for recv in plan.net.receivers:
        rows = [TransferVector(dict(zip(plan.msg_slot, map(decode, vecs[s])))) for s in plan.inputs[recv.node]]
        found = decode_search(rows, recv.demands, code.ring)
        if found is None:
            if plan.searched:
                raise RuntimeError(f"receiver {recv.node} cannot decode {', '.join(recv.demands)}")
            return None
        code.decoders.update(((recv.node, d), cs) for d, cs in zip(recv.demands, found))
    return code


# ---------------------------------------------------------------------------
# structured constructions and transforms
# ---------------------------------------------------------------------------


def _checked(plan: _Plan, code: ScalarLinearCode) -> ScalarLinearCode:
    """The code a public call returns, once verify accepts it; else RuntimeError, also under -O."""
    if not _verify(plan, code):
        raise RuntimeError("constructed code fails verify")
    return code


def choose_two_field_solution(n: int, spec: RingSpec) -> ScalarLinearCode:
    """Pairwise independent coding of choose_two(n) over a field of size >= n-1.

    The coded symbols get the coefficient pairs (0,1) and (1,a) for n-1
    distinct field values a; any two of those pairs form an invertible 2x2
    matrix, so every receiver decodes.
    """
    if not isinstance(spec, (PrimeField, GaloisField)):
        raise ValueError("need a finite field")
    q = ring_size(spec)
    if q < n - 1:
        raise ValueError(f"field size {q} is below n - 1 = {n - 1}")
    net = choose_two(n)
    pairs = [(zero(spec), one(spec))] + [(one(spec), a) for a in itertools.islice(_iter_elements(spec), n - 1)]
    edge_coeffs = {e.id: (one(spec),) for e in net.edges}  # the lam edges come first
    edge_coeffs.update((f"lam{i:02d}", pair) for i, pair in enumerate(pairs, 1))
    plan = _layout(net)
    return _checked(plan, _decoded(plan, ScalarLinearCode(spec, edge_coeffs, {})))


def product_code(net: Network, solutions: Sequence[tuple[RingSpec, ScalarLinearCode]]) -> ScalarLinearCode:
    """Componentwise combination of verified solutions into one over the product ring."""
    if not solutions:
        raise ValueError("need at least one solution")
    plan = _layout(net)
    for spec, code in solutions:
        if code.ring != spec:
            raise ValueError("listed ring does not own its code")
        if not _verify(plan, code):
            raise ValueError("unverified input solution")
    return _checked(plan, _product_code(plan, [code for _, code in solutions]))


def _product_code(plan: _Plan, codes: list[ScalarLinearCode]) -> ScalarLinearCode:
    """product_code of codes known to verify, not checked."""
    prod = Product(tuple(code.ring for code in codes))

    def stack(keys, tables):
        return {key: tuple(RingElement(prod, comps) for comps in zip(*(t[key] for t in tables))) for key in keys}

    edge_coeffs = stack([e.id for e in plan.net.edges], [c.edge_coeffs for c in codes])
    decoders = stack(codes[0].decoders, [c.decoders for c in codes])
    return ScalarLinearCode(prod, edge_coeffs, decoders)


def _apply_to_code(code: ScalarLinearCode, hom: RingHom) -> ScalarLinearCode:
    """Every coefficient of a code known to verify mapped through hom, not checked."""
    mapped = lambda table: {k: tuple(apply_hom(hom, c) for c in cs) for k, cs in table.items()}
    return ScalarLinearCode(hom.target, mapped(code.edge_coeffs), mapped(code.decoders))


def map_code(net: Network, code: ScalarLinearCode, hom: RingHom) -> ScalarLinearCode:
    """Push a verified solution through a surjective hom coefficient by coefficient."""
    if hom.kind not in SURJECTIVE_KINDS:
        raise ValueError(f"hom kind {hom.kind} is not surjective")
    if code.ring != hom.source:
        raise ValueError("code ring does not match the hom source")
    if not _verify(plan := _layout(net), code):
        raise ValueError("unverified input solution")
    return _checked(plan, _apply_to_code(code, hom))


def lift_subring(net: Network, code: ScalarLinearCode, target: RingSpec) -> ScalarLinearCode:
    """Re-read a verified solution over a subring as one over the larger ring.

    Supported inclusions: GF(p^m) into GF(p^k) for m | k, GF(p) into D(p),
    and the identity.
    """
    if not _verify(plan := _layout(net), code):
        raise ValueError("unverified input solution")
    if code.ring != target:
        return _checked(plan, _apply_to_code(code, subring_inclusion(code.ring, target)))
    return ScalarLinearCode(target, dict(code.edge_coeffs), dict(code.decoders))


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def network_to_json(net: Network) -> dict:
    return {
        "nodes": list(net.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in net.edges],
        "messages": [{"id": m.id, "source": m.source} for m in net.messages],
        "receivers": [{"node": r.node, "demands": list(r.demands)} for r in net.receivers],
    }


def _json(value, kind: type, what: str):
    """value if it is a JSON value of kind (dict, list or str), else TypeError naming what."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be {({dict: 'an object', list: 'a list', str: 'a string'})[kind]}")
    return value


def _json_strings(value, what: str) -> list:
    """value if it is a JSON list of strings, else TypeError naming what."""
    if not all(map(str.__instancecheck__, _json(value, list, what))):
        raise TypeError(f"{what} must hold strings only")
    return value


def _json_objects(value, what: str, *keys: str) -> list:
    """value if it is a JSON list of objects with a string at each key, else TypeError naming the first other."""
    for i, item in enumerate(_json(value, list, what)):
        for key in keys:
            _json(_json(item, dict, f"{what}[{i}]").get(key), str, f"{what}[{i}].{key}")
    return value


def network_from_json(data: dict) -> Network:
    """The network of a JSON object in the README's shape; ValueError for any other."""
    try:
        nodes = _json_strings(_json(data, dict, "a network").get("nodes"), "nodes")
        edges = _json_objects(data.get("edges"), "edges", "id", "tail", "head")
        msgs = _json_objects(data.get("messages"), "messages", "id", "source")
        demands = [_json_strings(r.get("demands"), f"receivers[{i}].demands")
                   for i, r in enumerate(_json_objects(data.get("receivers"), "receivers", "node"))]
    except TypeError as exc:
        raise ValueError(f"malformed network JSON: {exc}") from None
    return Network(tuple(nodes), tuple(Edge(e["id"], e["tail"], e["head"]) for e in edges),
                   tuple(Message(m["id"], m["source"]) for m in msgs),
                   tuple(Receiver(r["node"], tuple(ds)) for r, ds in zip(data["receivers"], demands)))


def code_to_json(code: ScalarLinearCode) -> dict:
    if any(":" in node for node, _ in code.decoders):
        raise ValueError("node ids must not contain ':'")
    return {"ring": format_ring(code.ring),
            "edges": {e: [format_element(c) for c in cs] for e, cs in sorted(code.edge_coeffs.items())},
            "decoders": {f"{node}:{msg}": [format_element(c) for c in cs]
                         for (node, msg), cs in sorted(code.decoders.items())}}


def code_from_json(data: dict) -> ScalarLinearCode:
    """The code of a JSON object in the README's shape, its decoders keyed
    node:message; ValueError for any other shape or element text."""
    try:
        ring = _json(_json(data, dict, "a code").get("ring"), str, "ring")
        for part in ("edges", "decoders"):  # hundreds of lists: checked flat, then the first other named
            lists = _json(data.get(part), dict, part).values()
            if not (all(map(list.__instancecheck__, lists))
                    and all(map(str.__instancecheck__, itertools.chain.from_iterable(lists)))):
                for key, ts in data[part].items():
                    _json_strings(ts, f"{part}[{key!r}]")
        if bad := [key for key in data["decoders"] if ":" not in key]:
            raise TypeError(f"decoder key {bad[0]!r} is not node:message")
    except TypeError as exc:
        raise ValueError(f"malformed code JSON: {exc}") from None
    spec = parse_ring(ring)
    edges = {e: tuple(parse_element(t, spec) for t in ts) for e, ts in data["edges"].items()}
    decoders = {tuple(key.split(":", 1)): tuple(parse_element(t, spec) for t in ts)
                for key, ts in data["decoders"].items()}
    return ScalarLinearCode(spec, edges, decoders)


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)
