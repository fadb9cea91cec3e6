"""Networks, scalar linear codes over a catalog ring, and an exhaustive solver.

A network is a finite directed acyclic multigraph with messages generated at
nodes and receivers demanding messages.  A scalar linear code assigns each
edge a coefficient list over a ring, one coefficient per input of the edge's
tail node (a node's inputs are its own messages, sorted by id, followed by
its in-edges, sorted by id), and each (receiver, demand) a decoding
coefficient list over the receiver's inputs.  The symbol an edge carries is
the corresponding linear combination, so each edge has an exact transfer
vector of per-message coefficients, computed in topological order.  verify
carries these vectors as tuples in message_ids() order, checks each
coefficient's ring once, and passes an input vector through unmultiplied where
its coefficient is one (a relay edge).  Over a table field (GF(p^k), k >= 2,
at most FIELD_TABLE_LIMIT elements) the tuples hold discrete logarithms, None
for zero, and verify and decode_search compute with the field's log add and
mul; over every other ring they hold RingElements (see _domain).  transfer
and decode_search take and give TransferVector of RingElements, so logs
become the field's shared elements again only on the way out.

The solver splits products and composite Z(n) and refutes Z(p^k) and D(p)
through their residue field, so it only searches fields and Z(p^k).

The solver enumerates coefficient assignments in canonical element order.
Edges whose tail has a single input are pinned to the relay coefficient 1:
over a commutative ring any solution can be rescaled into this normal form
(consumers absorb the copy factor), so solvability is unaffected while the
search space collapses to the genuinely combining edges.  Receivers are
checked as soon as the edges they depend on are assigned, which prunes most
of the space.

The search runs on integers: each element is its index in elements(spec),
mapped back through the ring's shared element tuple, and transfer vectors
are int tuples combined through add and mul tables built once per search,
and only when some edge combines.  A node tries, in
canonical order, the first coefficient tuple of each unit orbit of its
edge's span; that list depends only on the edge's input vectors, so it is
made once per input tuple and extended lazily.  Only failing subtrees go and
the first solution in canonical order stays.  One Howell-form elimination
per receiver decides all of its demands and gives a decoder for each: the
lexicographically first, with the last input most significant over a field
and the first over Z(p^k).  It stops at the first message column that a
demand's unit vector cannot reach.
"""

from __future__ import annotations

import copy
import functools
import heapq
import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

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
    _field_tables,
    _iter_elements,
    _log_ops,
    _shared,
    add,
    apply_hom,
    arithmetic,
    crt,
    factorize,
    format_element,
    format_ring,
    inverse,
    is_prime,
    mul,
    neg,
    one,
    parse_element,
    parse_ring,
    ring_size,
    subring_inclusion,
    zero,
)

DEFAULT_BUDGET = 2**26
CHOOSE_TWO_MAX_N = 12


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True, slots=True)
class Message:
    id: str
    source: str


@dataclass(frozen=True, slots=True)
class Receiver:
    node: str
    demands: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Network:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    messages: tuple[Message, ...]
    receivers: tuple[Receiver, ...]

    def message_ids(self) -> list[str]:
        return sorted(m.id for m in self.messages)


@dataclass(slots=True)
class ScalarLinearCode:
    ring: RingSpec
    edge_coeffs: dict[str, tuple[RingElement, ...]]
    decoders: dict[tuple[str, str], tuple[RingElement, ...]]


@dataclass(slots=True)
class TransferVector:
    """Per-message coefficients of the symbol an edge carries."""

    coefficients: dict[str, RingElement]


def validate(net: Network) -> list[str]:
    """Structural defects, one entry per violation; empty iff the network is valid."""
    return _defects(net, _topological_order(net))


def _defects(net: Network, order: list[str] | None) -> list[str]:
    defects = []
    nodes = set(net.nodes)
    if len(nodes) != len(net.nodes):
        defects.append("duplicate node ids")
    edge_ids = [e.id for e in net.edges]
    if len(set(edge_ids)) != len(edge_ids):
        defects.append("duplicate edge ids")
    msg_ids = [m.id for m in net.messages]
    known = set(msg_ids)
    if len(known) != len(msg_ids):
        defects.append("duplicate message ids")
    for e in net.edges:
        if e.tail not in nodes:
            defects.append(f"edge {e.id}: unknown tail {e.tail}")
        if e.head not in nodes:
            defects.append(f"edge {e.id}: unknown head {e.head}")
    for m in net.messages:
        if m.source not in nodes:
            defects.append(f"message {m.id}: unknown source {m.source}")
    for r in net.receivers:
        if r.node not in nodes:
            defects.append(f"receiver at unknown node {r.node}")
        for d in r.demands:
            if d not in known:
                defects.append(f"receiver {r.node}: unknown demand {d}")
    if order is None:
        defects.append("graph has a directed cycle")
    return defects


def _topological_order(net: Network) -> list[str] | None:
    """Kahn's order taking the smallest ready node id first; None on a cycle."""
    indeg = {n: 0 for n in net.nodes}
    heads: dict[str, list[str]] = {n: [] for n in net.nodes}
    for e in net.edges:
        if e.head in indeg and e.tail in indeg:
            indeg[e.head] += 1
            heads[e.tail].append(e.head)
    ready = sorted(n for n, d in indeg.items() if d == 0)  # a sorted list is a heap
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for head in heads[n]:
            indeg[head] -= 1
            if indeg[head] == 0:
                heapq.heappush(ready, head)
    return order if len(order) == len(net.nodes) else None


def _layout(net: Network) -> tuple[list[Edge], dict[str, list[tuple[str, str]]]]:
    """Edges in (topological rank of tail, id) order and every node's inputs.

    Raises ValueError naming the defects of an invalid network.
    """
    order = _topological_order(net)
    defects = _defects(net, order)
    if defects:
        raise ValueError("invalid network: " + "; ".join(defects))
    rank = {node: i for i, node in enumerate(order)}
    edges = sorted(net.edges, key=lambda e: (rank[e.tail], e.id))
    inputs_of: dict[str, list] = {node: [] for node in net.nodes}
    for m in sorted(net.messages, key=lambda m: m.id):
        inputs_of[m.source].append(("msg", m.id))
    for e in sorted(net.edges, key=lambda e: e.id):
        inputs_of[e.head].append(("edge", e.id))
    return edges, inputs_of


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def choose_two(n: int) -> Network:
    """Two messages x, y; n coded symbols; one receiver per unordered pair.

    The source emits n combining edges into middle nodes; each middle node
    fans its symbol out to the receivers of the pairs it belongs to through
    copy edges.  Every receiver sees the symbols of a distinct pair {i, j}
    and demands both messages.
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
    return Network(
        tuple(nodes),
        tuple(edges),
        (Message("x", "s"), Message("y", "s")),
        tuple(receivers),
    )


def two_six() -> Network:
    """The four-symbol, six-receiver multicast variant: choose_two(4)."""
    return choose_two(4)


# ---------------------------------------------------------------------------
# transfer vectors and verification
# ---------------------------------------------------------------------------


def _itself(a):
    return a


def _domain(spec: RingSpec):
    """(encode, decode, zero, one, add, mul) of the values that verify and
    decode_search compute on over spec.  A table field computes on discrete
    logs with rings._log_ops: encode(a) is log a, None for zero, and decode(i)
    the shared element g^i.  Every other ring computes on its RingElements
    with its arithmetic(spec) closures, and encode and decode are _itself."""
    if not isinstance(spec, GaloisField) or (t := _field_tables(spec.p, spec.k)) is None:
        add, mul, *_ = arithmetic(spec)
        return _itself, _itself, zero(spec), one(spec), add, mul
    log, els, z = t.log.get, t.els, t.zero
    return (lambda a: log(a.payload)), (lambda i: z if i is None else els[i]), None, 0, *_log_ops(spec.p, spec.k)


def _combiner(spec: RingSpec, width: int):
    """combine(coeffs, vecs): sum(c_i * vec_i) over spec of vectors of width
    entries in _domain(spec), for RingElements c_i; ValueError if a c_i is
    not over spec.  A c_i equal to one passes vec_i through unmultiplied."""
    encode, _, zero_, _, add, mul = _domain(spec)
    uno, zeros = one(spec), (zero_,) * width

    def combine(coeffs, vecs):
        acc = None
        for c, vec in zip(coeffs, vecs):
            _check_owner(c, spec)
            if c is not uno and c.payload != uno.payload:
                vec = tuple(map(mul, itertools.repeat(encode(c), width), vec))
            acc = vec if acc is None else tuple(map(add, acc, vec))  # the first term itself, not zero plus it
        return zeros if acc is None else acc

    return combine


def transfer(net: Network, code: ScalarLinearCode) -> dict[str, TransferVector]:
    """Exact per-edge message coefficients under the code."""
    return {ref: v for (kind, ref), v in _transfer_vectors(net, code, _layout(net)).items() if kind == "edge"}


def _transfer_vectors(net: Network, code: ScalarLinearCode, layout) -> dict:
    """_transfer's vectors as TransferVectors of elements."""
    msg_ids, decode = net.message_ids(), _domain(code.ring)[1]
    return {i: TransferVector(dict(zip(msg_ids, map(decode, v)))) for i, v in _transfer(net, code, layout).items()}


def _transfer(net: Network, code: ScalarLinearCode, layout):
    """The vector of every node input on the network's _layout, a tuple in
    message_ids() order in _domain(code.ring): ("msg", m) is the unit vector
    of m, built once per call, ("edge", e) the transfer vector of e."""
    edges, inputs_of = layout
    msg_ids = net.message_ids()
    combine = _combiner(code.ring, len(msg_ids))
    _, _, zero_, one_, *_ = _domain(code.ring)
    vectors = {("msg", m): tuple(one_ if j == m else zero_ for j in msg_ids) for m in msg_ids}
    for e in edges:
        coeffs = code.edge_coeffs.get(e.id)
        inputs = inputs_of[e.tail]
        if coeffs is None or len(coeffs) != len(inputs):
            raise ValueError(f"edge {e.id}: coefficient arity mismatch")
        vectors[("edge", e.id)] = combine(coeffs, [vectors[i] for i in inputs])
    return vectors


def verify(net: Network, code: ScalarLinearCode) -> bool:
    """True iff every receiver's decoders recover exactly its demands."""
    return _verify(net, code, _layout(net))


def _verify(net: Network, code: ScalarLinearCode, layout) -> bool:
    """verify on the network's _layout."""
    vectors = _transfer(net, code, layout)
    combine = _combiner(code.ring, len(net.messages))
    for recv in net.receivers:
        rows = [vectors[i] for i in layout[1][recv.node]]
        for demand in recv.demands:
            coeffs = code.decoders.get((recv.node, demand))
            if coeffs is None:
                return False
            if len(coeffs) != len(rows):
                raise ValueError(
                    f"receiver {recv.node}: decoder arity mismatch for {demand}"
                )
            if combine(coeffs, rows) != vectors[("msg", demand)]:
                return False
    return True


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _is_field(spec: RingSpec) -> bool:
    if isinstance(spec, (PrimeField, GaloisField)):
        return True
    return isinstance(spec, IntegersMod) and is_prime(spec.n)


def decode_search(
    rows: Sequence[TransferVector], demands: Sequence[str], spec: RingSpec
) -> tuple[tuple[RingElement, ...], ...] | None:
    """Per demand, in order, coefficients c with sum(c_i * row_i) = its unit
    vector; None if some demand has none, () if there are no demands.

    spec must be a field or Z(p^k), every row over the same messages and
    every demand one of them, else ValueError.  Each c is the
    lexicographically first in canonical element order, with the last input
    most significant over a field and the first over Z(p^k).  One
    _first_decoders call serves every demand of the receiver, so no element
    tables are built: over a table field on discrete logs (see _domain), the
    row entries owner-checked and encoded once, and over any other ring on
    the public, checked rings.add and rings.mul.
    """
    if not (_is_field(spec) or isinstance(spec, IntegersMod) and len(factorize(spec.n)) == 1):
        raise ValueError(f"decode_search needs a field or Z(p^k), not {format_ring(spec)}")
    if not demands:
        return ()
    if not rows:
        return None
    msg_ids, q = sorted(rows[0].coefficients), ring_size(spec)
    if bad := [i for i, row in enumerate(rows) if row.coefficients.keys() != rows[0].coefficients.keys()]:
        raise ValueError(f"row {bad[0]} is over other messages than row 0, which is over {', '.join(msg_ids)}")
    if bad := [d for d in demands if d not in msg_ids]:
        raise ValueError(f"unknown demand {bad[0]}: the rows are over {', '.join(msg_ids)}")
    encode, decode, z, uno, log_add, log_mul = _domain(spec)
    vecs = [tuple(row.coefficients[m] for m in msg_ids) for row in rows]
    units = [tuple(uno if m == d else z for m in msg_ids) for d in demands]
    minus = neg(decode(uno))
    plus, scaled = (lambda u, v: tuple(map(add, u, v))), (lambda c, v: tuple(x if x == z else mul(c, x) for x in v))
    if z is None:  # a table field, on logs: every nonzero element is a unit
        for x in itertools.chain.from_iterable(vecs):
            _check_owner(x, spec)
        vecs, minus = [tuple(map(encode, v)) for v in vecs], encode(minus)
        arith = (lambda a: 1), (lambda a, w: (-a % (q - 1), None)), (lambda a, w: log_mul(a, minus))
        plus, scaled = (lambda u, v: tuple(map(log_add, u, v))), (lambda c, v: tuple(map(log_mul, itertools.repeat(c), v)))
    elif isinstance(spec, GaloisField):  # every nonzero element is a unit
        arith = (lambda a: 1), (lambda a, w: (inverse(a), z)), (lambda a, w: neg(a))
    else:  # payloads are the integer values
        el = arithmetic(spec).element
        arith = (lambda a: math.gcd(a.payload, q), lambda a, w: (el(pow(a.payload // w, -1, q)), el(q // w % q)),
                 lambda a, w: el(-(a.payload // w) % q))
    found = _first_decoders(vecs, units, _is_field(spec), (z, minus, plus, scaled, *arith))
    return None if found is None else tuple(tuple(map(decode, cs)) for cs in found)


def _first_decoders(rows, targets, last_first, ops):
    """Per target t, the lexicographically first c with sum(c_i * rows[i]) = t,
    with the last input most significant if last_first, else the first; None
    if a target has none.

    Howell-form elimination on [rows | -I] over a field or Z(p^k) (Howell
    1986; Storjohann and Mulders 1998): a column's pivot is its entry of least
    valuation v, scaled to p^v, and p^(k-v) times the pivot row is fed back.
    Each (t | 0), reduced along but never a pivot, ends as (0 | c), c in least
    residues, iff t is decodable; a target left nonzero at a message column
    stays so, and the elimination stops there.  ops = (zero, minus_one, plus,
    scaled, val, split, cancel); for a != 0, val(a) = w is p^v as an integer,
    split(a, w) = (u, p^(k-v)) for a unit u with u*a = p^v, and cancel(a, w)
    is the c making a + c*p^v the least residue of a modulo p^v.
    """
    zero, minus_one, plus, scaled, val, split, cancel = ops
    order = range(len(rows))[::-1] if last_first else range(len(rows))  # most significant first
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
    return [v[len(t):][::-1] if last_first else v[len(t):] for t, v in zip(targets, done)]


# ---------------------------------------------------------------------------
# exhaustive solver
# ---------------------------------------------------------------------------


def solve_brute(
    net: Network,
    spec: RingSpec,
    budget: int = DEFAULT_BUDGET,
) -> ScalarLinearCode | None:
    """A scalar linear solution over spec in the solver's normal form, or None.

    A product (in its factor order) or composite Z(n) (over its Z(p^k)) is
    solvable iff every factor is; the factor solutions combine by product_code
    and, for Z(n), crt.  Z(p^k) and D(p) are refuted when their residue field
    is, and D(p) lifts the GF(p) solution.  Fields and Z(p^k) are searched in
    canonical coefficient order, and the result is the image of those first
    solutions.  BudgetExceeded is raised before a ring is searched when its
    size ** (coefficients to search) exceeds budget.
    """
    return _solve(net, spec, budget)[0]


def _solve(net: Network, spec: RingSpec, budget: int, layout=None):
    """solve_brute's answer and the refutation chain: [] for a solution, else
    the exhausted ring, then each reduction, e.g. ["Z(2)", "residue field of Z(4)"]."""
    layout = layout or _layout(net)
    fac = factorize(spec.n) if isinstance(spec, IntegersMod) else []
    if isinstance(spec, Product) or len(fac) > 1:
        parts = spec.factors if not fac else [IntegersMod(p**k) for p, k in fac]
        solutions = []
        for part in parts:
            code, why = _solve(net, part, budget, layout)
            if code is None:
                return None, why + [f"factor of {format_ring(spec)}"]
            solutions.append(code)
        code = _product_code(net, solutions, layout)
        return (_apply_to_code(net, code, crt(code.ring, spec), layout) if fac else code), []
    if isinstance(spec, DualNumbers) or (fac and fac[0][1] > 1):  # D(p), Z(p^k>p)
        residue = IntegersMod(fac[0][0]) if fac else PrimeField(spec.p)
        code, why = _solve(net, residue, budget, layout)
        if code is None:
            return None, why + [f"residue field of {format_ring(spec)}"]
        if isinstance(spec, DualNumbers):
            return _apply_to_code(net, code, subring_inclusion(code.ring, spec), layout), []
    edges, inputs_of = layout
    arities = [len(inputs_of[e.tail]) for e in edges]
    required = ring_size(spec) ** sum(a for a in arities if a >= 2)
    if required > budget:
        raise BudgetExceeded(required, budget)
    code = _search(net, spec, layout)
    return code, [] if code is not None else [format_ring(spec)]


def _search(net: Network, spec: RingSpec, layout) -> ScalarLinearCode | None:
    """First scalar linear solution over a field or Z(p^k) in canonical
    coefficient order of the combining edges (tail arity >= 2); single-input
    edges relay their input (see the module docstring)."""
    edges, inputs_of = layout
    searched = [e for e in edges if len(inputs_of[e.tail]) >= 2]
    chosen, decoders = _index_search(net, spec, inputs_of, searched) if searched else ({}, None)
    if chosen is None:
        return None
    domain = _shared(spec)
    edge_coeffs = {
        e.id: tuple(domain[c] for c in chosen.get(e.id, ()))
        or (one(spec),) * len(inputs_of[e.tail])
        for e in net.edges
    }
    if decoders is None:  # Z(p^k), or nothing searched
        return _decoded(net, ScalarLinearCode(spec, edge_coeffs, {}), layout)
    decoders = {k: tuple(domain[c] for c in cs) for k, cs in decoders.items()}
    return _checked(net, ScalarLinearCode(spec, edge_coeffs, decoders), layout)


def _tables(spec: RingSpec):
    """(add, mul, neg, inverse, one, val) of a field or Z(n) on element
    indices, index i standing for elements(spec)[i]; inverse[i] is None for a
    non-unit, and val[i] is 1 for a unit, else gcd(i, n): p^v for i of
    valuation v in Z(p^k), and the ring size for 0."""
    q = ring_size(spec)
    if q > FIELD_TABLE_LIMIT:  # each table has q*q entries
        raise GuardExceeded(f"{format_ring(spec)} is too large for index tables")
    if isinstance(spec, GaloisField):
        # an index's base-p digits are the payload coefficients, so addition
        # is digit by digit; multiplication adds logarithms
        p, tables = spec.p, _field_tables(spec.p, spec.k)
        digit = [[(a + b) % p for b in range(p)] for a in range(p)]
        add_t = digit
        for _ in range(spec.k - 1):  # append the next less significant digit
            add_t = [[x * p + d for x in row for d in ds] for row in add_t for ds in digit]
        exp = [functools.reduce(lambda acc, c: acc * p + c, x, 0) for x in tables[0]]
        log = dict(zip(exp, range(q - 1)))
        logs = [log[b] for b in range(1, q)]
        mul_t = [[0] * q] + [[0, *map(exp[log[a]:].__getitem__, logs)] for a in range(1, q)]
        unit = q // p
    elif isinstance(spec, (PrimeField, IntegersMod)):
        r = list(range(q))
        add_t = [r[a:] + r[:a] for a in r]
        mul_t = [[r[a * b % q] for b in r] for a in r]
        unit = 1
    else:
        raise ValueError(f"no index tables for {format_ring(spec)}")
    neg_t = [row.index(0) for row in add_t]
    inv_t = [row.index(unit) if unit in row else None for row in mul_t]
    val = [1 if inv_t[a] is not None else math.gcd(a, q) for a in range(q)]
    return add_t, mul_t, neg_t, inv_t, unit, val


def _orbit_key(tables):
    """orbit_key(v) names the unit orbit {u*v} of an index vector over a field or
    Z(p^k) in O(len(v)): v scaled so its first entry of least valuation t becomes
    p^t (1 over a field); the units fixing p^t fix every entry of valuation >= t."""
    _, mul_t, _, inv_t, unit, val = tables
    # for a != 0, a // val[a] is a unit (a non-unit index of Z(p^k) is its integer)
    scaler = [inv_t[a // w] or unit for a, w in enumerate(val)]  # scaler[a] * a = p^t

    def orbit_key(v):
        least = min(v, key=val.__getitem__, default=0)
        return tuple(map(mul_t[scaler[least]].__getitem__, v))

    return orbit_key


def _index_search(net: Network, spec: RingSpec, inputs_of, searched):
    """(chosen, decoders): index tuples per searched edge of the first choice
    under which every receiver decodes its demands, and over a field those of
    decode_search per (receiver, demand); (None, None) if there is none."""
    tables = add_t, mul_t, neg_t, inv_t, unit, val = _tables(spec)
    orbit_key = _orbit_key(tables)
    q = len(add_t)
    msg_ids = net.message_ids()
    edge_by_id = {e.id: e for e in net.edges}

    def resolve(inp: tuple[str, str]) -> tuple[str, str]:
        """The message or searched edge whose symbol inp carries."""
        kind, ref = inp
        ins = inputs_of[edge_by_id[ref].tail] if kind == "edge" else []
        if kind == "msg" or len(ins) >= 2:
            return inp
        return resolve(ins[0]) if ins else ("zero", "")

    forms = {node: [resolve(i) for i in ins] for node, ins in inputs_of.items()}
    vec_of = {("msg", m): tuple(unit if j == m else 0 for j in msg_ids) for m in msg_ids}
    vec_of[("zero", "")] = (0,) * len(msg_ids)

    # receiver readiness: the depth of the last searched edge its inputs depend on
    depth_of = {("edge", e.id): i for i, e in enumerate(searched)}
    recv_ready: dict[int, list[Receiver]] = {}
    for recv in net.receivers:
        last = max((depth_of.get(f, -1) for f in forms[recv.node]), default=-1)
        recv_ready.setdefault(last, []).append(recv)

    def scaled(c, vec):
        return tuple(map(mul_t[c].__getitem__, vec))

    def plus(u, v):  # add_t[a][b] for a, b in zip(u, v)
        return tuple(map(list.__getitem__, map(add_t.__getitem__, u), v))

    ops = (0, neg_t[unit], plus, scaled, val.__getitem__, lambda a, w: (inv_t[a // w], q // w % q), lambda a, w: neg_t[a // w])
    field = _is_field(spec)
    decode_cache: dict = {}

    def decoders_of(recv: Receiver):  # None if recv cannot decode its demands
        rows = tuple(map(vec_of.__getitem__, forms[recv.node]))
        key = (recv.demands, rows)
        if key not in decode_cache:
            targets = [vec_of[("msg", d)] for d in recv.demands]
            decode_cache[key] = _first_decoders(rows, targets, field, ops)
        return decode_cache[key]

    def first_of_orbits(inputs):
        """(combo, vector) for the first combo in canonical order of each unit
        orbit of the span of inputs: receiver spans ignore a unit, and later
        edges absorb it, so a node tries only these."""
        multiples = [[scaled(c, v) for c in range(q)] for v in inputs]
        seen = set()
        for combo in itertools.product(range(q), repeat=len(multiples)):
            acc = multiples[0][combo[0]]
            for mults, c in zip(multiples[1:], combo[1:]):
                acc = plus(acc, mults[c])
            if (key := orbit_key(acc)) not in seen:
                seen.add(key)
                yield combo, acc

    # an edge fed by no searched edge has the same inputs at every node, so
    # such edges share one list per input tuple; the others keep one per depth
    fixed = [all(kind != "edge" for kind, _ in forms[e.tail]) for e in searched]
    store: dict = {}  # key -> (inputs, a tee at the start of first_of_orbits(inputs))

    def candidates(depth: int, inputs):
        """A walk over first_of_orbits(inputs) from its start.  Copies of a tee
        share its buffer: a walk reads what earlier walks made, extends it only
        at its end, and never re-enters the generator."""
        key = inputs if fixed[depth] else depth
        if (entry := store.get(key)) is None or entry[0] != inputs:
            entry = store[key] = (inputs, itertools.tee(first_of_orbits(inputs), 1)[0])
        return copy.copy(entry[1])

    chosen: dict[str, tuple[int, ...]] = {}

    def descend(depth: int) -> bool:  # first checks the receivers edge depth - 1 completed
        if any(decoders_of(r) is None for r in recv_ready.get(depth - 1, ())):
            return False
        if depth == len(searched):
            return True
        e = searched[depth]
        for combo, vec in candidates(depth, tuple(map(vec_of.__getitem__, forms[e.tail]))):
            vec_of[("edge", e.id)] = vec
            if descend(depth + 1):
                chosen[e.id] = combo
                return True
        return False

    if not descend(0):
        return None, None
    if not field:
        return chosen, None
    recvs = net.receivers
    return chosen, {(r.node, d): cs for r in recvs for d, cs in zip(r.demands, decoders_of(r))}


def _decoded(net: Network, code: ScalarLinearCode, layout) -> ScalarLinearCode | None:
    """The code with decoders from one decode_search per receiver on its
    exact transfer vectors, checked.  A receiver that cannot decode gives None
    when no edge combines, else RuntimeError: the search or construction
    ensured it."""
    vectors, inputs_of = _transfer_vectors(net, code, layout), layout[1]
    for recv in net.receivers:
        rows = [vectors[i] for i in inputs_of[recv.node]]
        found = decode_search(rows, recv.demands, code.ring)
        if found is None:
            if any(len(inputs_of[e.tail]) >= 2 for e in net.edges):
                raise RuntimeError(f"receiver {recv.node} cannot decode {', '.join(recv.demands)}")
            return None
        code.decoders.update(((recv.node, d), cs) for d, cs in zip(recv.demands, found))
    return _checked(net, code, layout)


# ---------------------------------------------------------------------------
# structured constructions and transforms
# ---------------------------------------------------------------------------


def _checked(net: Network, code: ScalarLinearCode, layout) -> ScalarLinearCode:
    """The constructed code once verify accepts it; raises RuntimeError, also under -O."""
    if not _verify(net, code, layout):
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
    pairs = [(zero(spec), one(spec))] + [
        (one(spec), a) for a in itertools.islice(_iter_elements(spec), n - 1)
    ]
    edge_coeffs: dict[str, tuple[RingElement, ...]] = {}
    for i in range(1, n + 1):
        edge_coeffs[f"lam{i:02d}"] = pairs[i - 1]
    for e in net.edges:
        if e.id not in edge_coeffs:
            edge_coeffs[e.id] = (one(spec),)
    return _decoded(net, ScalarLinearCode(spec, edge_coeffs, {}), _layout(net))


def product_code(
    net: Network, solutions: Sequence[tuple[RingSpec, ScalarLinearCode]]
) -> ScalarLinearCode:
    """Componentwise combination of verified solutions into one over the product ring."""
    if not solutions:
        raise ValueError("need at least one solution")
    layout = _layout(net)
    for spec, code in solutions:
        if code.ring != spec:
            raise ValueError("listed ring does not own its code")
        if not _verify(net, code, layout):
            raise ValueError("unverified input solution")
    return _product_code(net, [code for _, code in solutions], layout)


def _product_code(net: Network, codes: list[ScalarLinearCode], layout) -> ScalarLinearCode:
    """product_code of codes known to verify."""
    prod = Product(tuple(code.ring for code in codes))

    def stack(keys, tables):
        return {
            key: tuple(
                RingElement(prod, comps) for comps in zip(*(t[key] for t in tables))
            )
            for key in keys
        }

    edge_coeffs = stack([e.id for e in net.edges], [c.edge_coeffs for c in codes])
    decoders = stack(codes[0].decoders, [c.decoders for c in codes])
    return _checked(net, ScalarLinearCode(prod, edge_coeffs, decoders), layout)


def _apply_to_code(
    net: Network, code: ScalarLinearCode, hom: RingHom, layout
) -> ScalarLinearCode:
    """Map every coefficient of a code known to verify through hom, then check the image."""
    out = ScalarLinearCode(
        hom.target,
        {e: tuple(apply_hom(hom, c) for c in cs) for e, cs in code.edge_coeffs.items()},
        {k: tuple(apply_hom(hom, c) for c in cs) for k, cs in code.decoders.items()},
    )
    return _checked(net, out, layout)


def map_code(net: Network, code: ScalarLinearCode, hom: RingHom) -> ScalarLinearCode:
    """Push a verified solution through a surjective hom coefficient by coefficient."""
    if hom.kind not in SURJECTIVE_KINDS:
        raise ValueError(f"hom kind {hom.kind} is not surjective")
    if code.ring != hom.source:
        raise ValueError("code ring does not match the hom source")
    if not _verify(net, code, layout := _layout(net)):
        raise ValueError("unverified input solution")
    return _apply_to_code(net, code, hom, layout)


def lift_subring(
    net: Network, code: ScalarLinearCode, target: RingSpec
) -> ScalarLinearCode:
    """Re-read a verified solution over a subring as one over the larger ring.

    Supported inclusions: GF(p^m) into GF(p^k) for m | k, GF(p) into D(p),
    and the identity.
    """
    if not _verify(net, code, layout := _layout(net)):
        raise ValueError("unverified input solution")
    if code.ring != target:
        return _apply_to_code(net, code, subring_inclusion(code.ring, target), layout)
    return ScalarLinearCode(target, dict(code.edge_coeffs), dict(code.decoders))


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def network_to_json(net: Network) -> dict:
    return {
        "nodes": list(net.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in net.edges],
        "messages": [{"id": m.id, "source": m.source} for m in net.messages],
        "receivers": [
            {"node": r.node, "demands": list(r.demands)} for r in net.receivers
        ],
    }


def network_from_json(data: dict) -> Network:
    try:
        return Network(
            tuple(data["nodes"]),
            tuple(Edge(e["id"], e["tail"], e["head"]) for e in data["edges"]),
            tuple(Message(m["id"], m["source"]) for m in data["messages"]),
            tuple(
                Receiver(r["node"], tuple(r["demands"])) for r in data["receivers"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed network JSON: {exc}") from None


def code_to_json(code: ScalarLinearCode) -> dict:
    for (node, _msg) in code.decoders:
        if ":" in node:
            raise ValueError("node ids must not contain ':'")
    return {
        "ring": format_ring(code.ring),
        "edges": {
            e: [format_element(c) for c in cs]
            for e, cs in sorted(code.edge_coeffs.items())
        },
        "decoders": {
            f"{node}:{msg}": [format_element(c) for c in cs]
            for (node, msg), cs in sorted(code.decoders.items())
        },
    }


def code_from_json(data: dict) -> ScalarLinearCode:
    try:
        spec = parse_ring(data["ring"])
        edges = {
            e: tuple(parse_element(t, spec) for t in ts)
            for e, ts in data["edges"].items()
        }
        decoders = {}
        for key, ts in data["decoders"].items():
            node, _, msg = key.partition(":")
            decoders[(node, msg)] = tuple(parse_element(t, spec) for t in ts)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed code JSON: {exc}") from None
    return ScalarLinearCode(spec, edges, decoders)


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)
