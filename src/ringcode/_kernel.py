"""The solver's search kernel, which owns the search algorithm: candidate
lists, orbit keys, the search memo and the Howell-form elimination, on the
values of the ring's record rings.arithmetic(spec).  It imports from rings
and errors only; network compiles the _Plan it reads and builds the code
from the values _search returns.

The search runs in canonical order of element indices and keeps the first
solution.  A node tries only the first coefficient tuple of each unit orbit
of its edge's span (q + 2 for two inputs over GF(q)), from a list made once
per input tuple and extended lazily.  A receiver is checked as soon as the
edges it depends on are assigned, by one elimination that decides all of
its demands (see _first_decoders).  Every search over one ring value, and
over Z(p) and GF(p) alike, shares that ring's _search_memo of eliminations
and candidate lists, so sweeps over many networks redo neither; a one-shot
solve starts from an empty memo and does the same work as without it.
"""

from __future__ import annotations

import copy
import functools
import itertools

from .errors import GuardExceeded
from .rings import (Arithmetic, FIELD_TABLE_LIMIT, IntegersMod, PrimeField, RingSpec, _iter_elements, arithmetic,
                    format_ring, ring_size)

SEARCH_MEMO_LIMIT = 4096  # entries a ring's search memo may hold when a search starts


def _orbit_key(d: Arithmetic, v):
    """Names the unit orbit {u*v} of a vector over a field or Z(p^k), on the
    ring's record d: v scaled so its first entry of least valuation t becomes
    p^t (1 over a field); the units fixing p^t fix every entry of valuation
    >= t."""
    least = min(v, key=d.val, default=d.zero)
    return v if least == d.zero else d.scaled(d.split(least, d.val(least))[0], v)


def _slot_vectors(d: Arithmetic, width: int) -> list:
    """The vectors of a plan's first slots over d: each message's unit vector, then zero."""
    z = (d.zero,)
    return [z * i + (d.one,) + z * (width - 1 - i) for i in range(width)] + [z * width]


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
    entries from j on are added.  ops has a rings.Arithmetic's fields: for
    a != 0, val(a) = w is p^v as an integer, split(a, w) = (u, p^(k-v)) for a
    unit u with u*a = p^v, and cancel(a, w) is the c making a + c*p^v the
    least residue of a modulo p^v.
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


@functools.cache  # by ring value, like rings._shared: _solve makes fresh equal specs
def _search_memo(spec: RingSpec) -> tuple[dict, dict]:
    """(decodes, lists) shared by every _search over a ring equal to spec,
    one thread at a time: _first_decoders results by (target vectors, rows),
    and candidate lists by input vectors or depth (see candidates).  Z(p)
    searches use the memo of GF(p), whose values and kernel are theirs."""
    return {}, {}


def _search(plan, spec: RingSpec) -> tuple[dict, dict | None] | None:
    """The first scalar linear solution over a field or Z(p^k) in canonical
    coefficient order of the searched edges of plan, a network._Plan, as
    values of arithmetic(spec), or None: (chosen, decoders), the coefficient
    tuple of each searched edge by id and, over a field, the kernel's
    decoders by (receiver node, demand), else None, as when nothing is
    searched.  GuardExceeded, before any work, if an edge is searched over
    more than FIELD_TABLE_LIMIT elements.

    Eliminations and candidate lists are the ring's _search_memo, which a
    search finding it above SEARCH_MEMO_LIMIT entries empties first.  One
    that exits by an exception drops the memo's lists: a generator the
    exception stopped would end them early, a false refutation."""
    if (searched := plan.searched) and ring_size(spec) > FIELD_TABLE_LIMIT:
        raise GuardExceeded(f"{format_ring(spec)} is too large to search")
    if not searched:
        return {}, None
    d = arithmetic(spec)
    decodes, store = _search_memo(PrimeField(spec.n) if isinstance(spec, IntegersMod) and d.field else spec)
    if len(decodes) + len(store) > SEARCH_MEMO_LIMIT:
        decodes.clear()
        store.clear()
    values, plus, scaled = tuple(map(d.encode, _iter_elements(spec))), d.plus, d.scaled

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
            if (key := _orbit_key(d, acc)) not in seen:
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
    if not d.field:
        return chosen, None
    return chosen, {(r.node, m): cs for level in checks for targets, rows, receivers in level
                    for r in receivers for m, cs in zip(r.demands, decodes[targets, tuple(map(at, rows))])}
