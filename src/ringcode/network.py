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
rings.arithmetic(spec), whose vector and elimination operations verify,
decode_search and the search share.  It owner-checks and
encodes each coefficient once and skips a zero one; a relay edge (one
input) skips the general combination and shares its input's vector where
its coefficient is one.  transfer and decode_search take and give
TransferVector of RingElements, so values become elements again only on the
way out.

This module owns the records, the plan, transfer, verify, decode_search,
the solver's routing, the constructions and transforms, and JSON; rings
owns each ring's record and _kernel the search.  The solver splits products
and composite Z(n) and refutes Z(p^k) and D(p) through their residue field,
so it only searches fields and Z(p^k), all on one plan, with one
_kernel._search each, whose values _search_code makes a code.  Relay edges,
whose tail has a single input, get 1: over a commutative ring any solution
can be rescaled into this normal form (consumers absorb the copy factor).
The codes the solver builds on the way are not checked; the code a public
call returns is checked once, and a failed check raises RuntimeError.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import operator
from typing import NamedTuple, Sequence

from ._record import Frozen, Record, _set
from ._kernel import _first_decoders, _search, _slot_vectors
from .errors import BudgetExceeded, GuardExceeded
from .rings import (
    DualNumbers,
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
    add,
    apply_hom,
    arithmetic,
    crt,
    factorize,
    format_element,
    format_ring,
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


def transfer(net: Network, code: ScalarLinearCode) -> dict[str, TransferVector]:
    """Exact per-edge message coefficients under the code."""
    (vecs, _), decode = _transfer(plan := _layout(net), code), arithmetic(code.ring).decode
    edge_vecs = zip(plan.edges, vecs[len(plan.msg_slot) + 1:])
    return {e.id: TransferVector(dict(zip(plan.msg_slot, map(decode, v)))) for e, v in edge_vecs}


def _transfer(plan: _Plan, code: ScalarLinearCode):
    """(vecs, combine): every slot's vector under the code (see _Plan), on
    the record arithmetic(code.ring), and combine(coeffs, slots),
    sum(c_i * vecs[slots[i]]).  Each coefficient is owner-checked (ValueError
    if not over code.ring) and encoded once; a zero adds nothing and a one
    passes its vector through unmultiplied.  A relay edge skips combine: its
    coefficient, owner-checked, is compared with the ring's one, then zero,
    and a one shares the vector."""
    d = arithmetic(spec := code.ring)
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
    _first_decoders call serves every demand of the receiver: on the logs
    and scalar add and mul of the record rings.arithmetic(spec) over a table
    field, each row entry owner-checked and encoded once, else on the public,
    checked rings.add and rings.mul, with the record's val, split and cancel
    read through encode and decode.
    """
    d = arithmetic(spec)
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
        encode, decode = d.encode, d.decode
        ops = d._replace(
            encode=_itself, decode=_itself, zero=zero(spec), one=one(spec), add=add, mul=mul,
            val=lambda a: d.val(encode(a)), split=lambda a, w: tuple(map(decode, d.split(encode(a), w))),
            cancel=lambda a, w: decode(d.cancel(encode(a), w)),
        )
    units = [tuple(ops.one if m == demand else ops.zero for m in msg_ids) for demand in demands]
    found = _first_decoders(vecs, units, ops)
    return None if found is None else tuple(tuple(map(ops.decode, cs)) for cs in found)


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
    code = _search_code(plan, spec)
    return code, [] if code is not None else [format_ring(spec)]


def _search_code(plan: _Plan, spec: RingSpec) -> ScalarLinearCode | None:
    """The code of _search's values over spec, not checked, or None: relay
    edges get 1, and over Z(p^k) or with nothing searched the decoders are _decoded's."""
    if (found := _search(plan, spec)) is None:
        return None
    (chosen, decoders), decode, relay = found, arithmetic(spec).decode, (one(spec),)  # one tuple for every relay edge
    coeffs = {e.id: relay * len(plan.inputs[e.tail]) for e in plan.net.edges}
    coeffs.update((e, tuple(map(decode, cs))) for e, cs in chosen.items())
    if decoders is None:
        return _decoded(plan, ScalarLinearCode(spec, coeffs, {}))
    return ScalarLinearCode(spec, coeffs, {key: tuple(map(decode, cs)) for key, cs in decoders.items()})


def _decoded(plan: _Plan, code: ScalarLinearCode) -> ScalarLinearCode | None:
    """The code with decoders from one decode_search per receiver on its
    exact transfer vectors, not checked.  A receiver that cannot decode gives
    None when no edge combines, else RuntimeError: the search or construction
    ensured it."""
    (vecs, _), decode = _transfer(plan, code), arithmetic(code.ring).decode
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
        receivers = _json_objects(data.get("receivers"), "receivers", "node")
        demands = [_json_strings(r.get("demands"), f"receivers[{i}].demands") for i, r in enumerate(receivers)]
        for i, r in enumerate(receivers):  # decoder keys are node:message
            if ":" in r["node"]:
                raise TypeError(f"receivers[{i}].node {r['node']!r} contains ':'")
    except TypeError as exc:
        raise ValueError(f"malformed network JSON: {exc}") from None
    return Network(tuple(nodes), tuple(Edge(e["id"], e["tail"], e["head"]) for e in edges),
                   tuple(Message(m["id"], m["source"]) for m in msgs),
                   tuple(Receiver(r["node"], tuple(ds)) for r, ds in zip(receivers, demands)))


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
