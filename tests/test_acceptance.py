"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:  pytest -s tests/test_acceptance.py -v
"""

import io
import itertools
import time

import numpy as np

from netcorpus import corpus
from partition_oracle import is_maximal_naive
from ringcode import cli
from ringcode.dominance import (
    Relation,
    catalog_dominates,
    check_certificate,
    field_product_dominates,
    maximal_rings,
    to_partition_ring,
)
from ringcode.network import (
    choose_two,
    choose_two_field_solution,
    lift_subring,
    map_code,
    product_code,
    solve_brute,
    two_six,
    verify,
)
from ringcode.partitions import (
    enumerate_partitions,
    has_unique_maximal,
    is_maximal,
)
from ringcode.rings import (
    DualNumbers,
    IntegersMod,
    PrimeField,
    Product,
    add,
    apply_hom,
    characteristic,
    dual_augmentation,
    elements,
    format_ring,
    galois_field,
    mod_reduction,
    mul,
    one,
    parse_ring,
    projection,
    ring_size,
    subring_inclusion,
    zero,
)


def report(name: str, ok: bool, started: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} {name}{suffix} ({time.time() - started:.1f}s)")
    assert ok, f"{name}{suffix}"


def test_criterion_01_table1_reproduction():
    t0 = time.time()
    buf = io.StringIO()
    code = cli.run(["verify", "table1", "--max-k", "30"], out=buf)
    ok = code == 0 and buf.getvalue() == "table1 OK (30 rows checked)\n"
    report("criterion 1: Table 1 reproduction, k <= 30", ok, t0)


def test_criterion_02_unique_maximal_exactly_1_2_3_4_6():
    t0 = time.time()
    ok = all(
        has_unique_maximal(k) == (k in {1, 2, 3, 4, 6}) for k in range(1, 31)
    )
    report("criterion 2: unique maximal partition iff k in {1,2,3,4,6}", ok, t0)


EXPECTED_PRIME_POWER = {
    5: ["(3,2)"],
    7: ["(5,2)", "(4,3)"],
    8: ["(5,3)"],
    9: ["(7,2)", "(5,4)"],
    10: ["(7,3)", "(6,4)"],
    11: ["(9,2)", "(8,3)", "(7,4)", "(6,5)"],
    12: ["(7,5)"],
}


def test_criterion_03_prime_power_maximal_ring_lists():
    t0 = time.time()
    ok = True
    for p in (2, 3):
        for k, extras in EXPECTED_PRIME_POWER.items():
            got = [str(pr.partition_for(p)) for pr in maximal_rings([(p, k)])]
            ok = ok and got == [f"({k})"] + extras
    report("criterion 3: maximal rings of size p^k, k in 5,7..12", ok, t0)


def test_criterion_04_composite_maximal_rings():
    t0 = time.time()
    got = [str(pr) for pr in maximal_rings([(2, 7), (3, 5), (5, 2)])]
    want = [
        "GF(2^7)xGF(3^5)xGF(5^2)",
        "GF(2^5)xGF(2^2)xGF(3^5)xGF(5^2)",
        "GF(2^4)xGF(2^3)xGF(3^5)xGF(5^2)",
        "GF(2^7)xGF(3^3)xGF(3^2)xGF(5^2)",
        "GF(2^5)xGF(2^2)xGF(3^3)xGF(3^2)xGF(5^2)",
        "GF(2^4)xGF(2^3)xGF(3^3)xGF(3^2)xGF(5^2)",
    ]
    report("criterion 4: the 6 maximal rings of size 777600", got == want, t0)


def test_criterion_05_gf8xgf4_vs_gf32_incomparable():
    t0 = time.time()
    s = to_partition_ring([(2, 3), (2, 2)])
    r = to_partition_ring([(2, 5)])
    ok = (
        field_product_dominates(s, r).relation is Relation.NOT_DOMINATES
        and field_product_dominates(r, s).relation is Relation.NOT_DOMINATES
    )
    report("criterion 5: GF(8)xGF(4) and GF(32) incomparable", ok, t0)


def test_criterion_06_pair_network_field_threshold():
    t0 = time.time()
    ok = True
    detail = []
    for n in (3, 4, 5):
        net = choose_two(n)
        for q in (2, 3, 4, 5):
            spec = galois_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q])
            if q >= n - 1:
                solvable = verify(net, choose_two_field_solution(n, spec))
            else:
                solvable = solve_brute(net, spec) is not None
            if solvable != (q >= n - 1):
                ok = False
                detail.append(f"n={n},q={q}")
    report(
        "criterion 6: choose_two(n) over GF(q) solvable iff q >= n-1",
        ok,
        t0,
        ",".join(detail),
    )


def test_criterion_07_two_six_slices():
    t0 = time.time()
    ts = two_six()
    gf3, gf4, gf5 = PrimeField(3), galois_field(2, 2), PrimeField(5)
    ok = solve_brute(ts, PrimeField(2)) is None
    ok = ok and solve_brute(ts, IntegersMod(6)) is None
    witnesses = {}
    for spec in (gf3, gf4, gf5):
        code = solve_brute(ts, spec)
        ok = ok and code is not None and verify(ts, code)
        witnesses[format_ring(spec)] = code
    # GF(4) doubles as the field of the non-field size-4 alphabet story
    ok = ok and witnesses["GF(2^2)"] is not None
    combined = product_code(
        ts, [(gf4, witnesses["GF(2^2)"]), (gf3, witnesses["GF(3)"])]
    )
    ok = ok and verify(ts, combined) and format_ring(combined.ring) == "GF(2^2)xGF(3)"
    report(
        "criterion 7: two_six unsolvable over GF(2),Z(6); solvable over "
        "GF(3),GF(4),GF(5),GF(4)xGF(3)",
        ok,
        t0,
    )


def test_criterion_08_code_chain_at_p2_over_corpus():
    t0 = time.time()
    d2, gf2, gf4 = DualNumbers(2), PrimeField(2), galois_field(2, 2)
    z4, z2 = IntegersMod(4), IntegersMod(2)
    aug = dual_augmentation(2)
    red = mod_reduction(z4, z2)
    nets = corpus()
    ok = len(nets) == 10
    for net in nets:
        c_dual = solve_brute(net, d2)
        c_field = solve_brute(net, gf2)
        c_mod = solve_brute(net, z4)
        ok = ok and None not in (c_dual, c_field, c_mod)
        ok = ok and verify(net, map_code(net, c_dual, aug))
        ok = ok and verify(net, lift_subring(net, c_field, d2))
        ok = ok and verify(net, lift_subring(net, c_field, gf4))
        ok = ok and verify(net, map_code(net, c_mod, red))
    report("criterion 8: D(2)/GF(2)/GF(4)/Z(4) code transforms over 10 networks", ok, t0)


def test_criterion_09_maximality_oracle_equivalence():
    t0 = time.time()
    ok = True
    for k in range(1, 21):
        for p in enumerate_partitions(k):
            if is_maximal(p) != is_maximal_naive(p):
                ok = False
    report("criterion 9: shortest-sum maximality equals full scan, k <= 20", ok, t0)


# ---------------------------------------------------------------------------
# criterion 10: exhaustive algebra laws for catalog rings and homs up to 512
# ---------------------------------------------------------------------------

RING_FAMILY = [
    "GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(13)", "GF(31)", "GF(127)",
    "GF(4)", "GF(8)", "GF(16)", "GF(32)", "GF(256)", "GF(512)",
    "GF(9)", "GF(27)", "GF(243)", "GF(25)", "GF(125)", "GF(49)", "GF(121)",
    "Z(4)", "Z(6)", "Z(8)", "Z(9)", "Z(12)", "Z(16)", "Z(64)", "Z(360)", "Z(512)",
    "D(2)", "D(3)", "D(5)", "D(7)", "D(11)", "D(19)",
    "GF(8)xGF(4)", "GF(4)xGF(3)", "Z(4)xGF(3)", "D(2)xGF(3)",
    "GF(2)xGF(2)xGF(2)", "Z(8)xZ(9)xGF(7)", "GF(4)xD(3)",
]

_table_cache: dict = {}


def _tables(spec):
    key = format_ring(spec)
    if key in _table_cache:
        return _table_cache[key]
    els = elements(spec)
    idx = {e: i for i, e in enumerate(els)}
    n = len(els)
    add_t = np.empty((n, n), dtype=np.int32)
    mul_t = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(els):
        row_a = add_t[i]
        row_m = mul_t[i]
        for j, b in enumerate(els):
            row_a[j] = idx[add(a, b)]
            row_m[j] = idx[mul(a, b)]
    out = (els, idx, add_t, mul_t)
    _table_cache[key] = out
    return out


def _assoc_holds(t: np.ndarray) -> bool:
    n = t.shape[0]
    step = max(1, (2**22) // (n * n))
    for start in range(0, n, step):
        blk = t[start : start + step]
        if not np.array_equal(t[blk], blk[:, t]):
            return False
    return True


def _distrib_holds(add_t: np.ndarray, mul_t: np.ndarray) -> bool:
    n = add_t.shape[0]
    step = max(1, (2**22) // (n * n))
    for start in range(0, n, step):
        mrows = mul_t[start : start + step]
        lhs = mrows[:, add_t]
        rhs = add_t[mrows[:, :, None], mrows[:, None, :]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def _ring_laws_hold(spec) -> bool:
    els, idx, add_t, mul_t = _tables(spec)
    n = len(els)
    zi, oi = idx[zero(spec)], idx[one(spec)]
    fine = np.array_equal(add_t, add_t.T) and np.array_equal(mul_t, mul_t.T)
    fine = fine and np.array_equal(mul_t[oi], np.arange(n))
    fine = fine and bool((mul_t[zi] == zi).all())
    fine = fine and bool((add_t == zi).any(axis=1).all())  # additive inverses
    fine = fine and np.array_equal(add_t[zi], np.arange(n))
    fine = fine and _assoc_holds(add_t) and _assoc_holds(mul_t)
    fine = fine and _distrib_holds(add_t, mul_t)
    return fine


def _hom_family():
    gf = galois_field
    return [
        mod_reduction(IntegersMod(512), IntegersMod(8)),
        mod_reduction(IntegersMod(360), IntegersMod(12)),
        mod_reduction(IntegersMod(360), PrimeField(5)),
        mod_reduction(IntegersMod(12), IntegersMod(4)),
        mod_reduction(IntegersMod(12), PrimeField(3)),
        mod_reduction(IntegersMod(16), IntegersMod(2)),
        dual_augmentation(2),
        dual_augmentation(3),
        dual_augmentation(5),
        dual_augmentation(19),
        projection(parse_ring("Z(8)xZ(9)xGF(7)"), 0),
        projection(parse_ring("Z(8)xZ(9)xGF(7)"), 1),
        projection(parse_ring("Z(8)xZ(9)xGF(7)"), 2),
        projection(parse_ring("GF(8)xGF(4)"), 0),
        projection(parse_ring("GF(8)xGF(4)"), 1),
        subring_inclusion(gf(2, 1), gf(2, 2)),
        subring_inclusion(gf(2, 1), gf(2, 8)),
        subring_inclusion(gf(2, 2), gf(2, 4)),
        subring_inclusion(gf(2, 2), gf(2, 8)),
        subring_inclusion(gf(2, 3), gf(2, 6)),
        subring_inclusion(gf(2, 4), gf(2, 8)),
        subring_inclusion(gf(2, 3), gf(2, 9)),
        subring_inclusion(gf(2, 1), gf(2, 9)),
        subring_inclusion(gf(3, 1), gf(3, 2)),
        subring_inclusion(gf(3, 2), gf(3, 4)),
        subring_inclusion(gf(3, 1), gf(3, 5)),
        subring_inclusion(gf(5, 1), gf(5, 2)),
        subring_inclusion(PrimeField(2), DualNumbers(2)),
        subring_inclusion(PrimeField(3), DualNumbers(3)),
        subring_inclusion(PrimeField(5), DualNumbers(5)),
    ]


def _hom_laws_hold(h) -> bool:
    src_els, src_idx, src_add, src_mul = _tables(h.source)
    tgt_els, tgt_idx, tgt_add, tgt_mul = _tables(h.target)
    harr = np.array([tgt_idx[apply_hom(h, a)] for a in src_els], dtype=np.int32)
    if not (
        apply_hom(h, zero(h.source)) == zero(h.target)
        and apply_hom(h, one(h.source)) == one(h.target)
    ):
        return False
    if not np.array_equal(harr[src_add], tgt_add[harr[:, None], harr[None, :]]):
        return False
    if not np.array_equal(harr[src_mul], tgt_mul[harr[:, None], harr[None, :]]):
        return False
    image = len(set(harr.tolist()))
    if h.kind == "subring_inclusion":
        return image == len(src_els)
    return image == len(tgt_els)


def test_criterion_10_algebra_axioms_up_to_512():
    t0 = time.time()
    ok = True
    bad = []
    for text in RING_FAMILY:
        spec = parse_ring(text)
        assert ring_size(spec) <= 512
        if not _ring_laws_hold(spec):
            ok = False
            bad.append(text)
        if ring_size(spec) % characteristic(spec) != 0:
            ok = False
            bad.append(f"char {text}")
    for h in _hom_family():
        if not _hom_laws_hold(h):
            ok = False
            bad.append(f"hom {h.kind} {format_ring(h.source)}->{format_ring(h.target)}")
    report(
        f"criterion 10: ring and hom laws over {len(RING_FAMILY)} rings, "
        f"{len(_hom_family())} homs (size <= 512)",
        ok,
        t0,
        ",".join(bad),
    )


def test_honesty_audit_certificates():
    """Every definite engine verdict must survive certificate re-verification;
    Unknown verdicts must carry a named obligation."""
    t0 = time.time()
    specs = [
        parse_ring(t)
        for t in (
            "GF(2)", "GF(3)", "GF(4)", "GF(8)", "GF(9)", "GF(8)xGF(4)", "GF(32)",
            "GF(2)xGF(3)", "GF(4)xGF(3)", "Z(4)", "Z(6)", "Z(8)", "Z(9)", "Z(12)",
            "Z(36)", "D(2)", "D(3)", "Z(4)xGF(3)", "D(2)xGF(9)", "GF(4)xZ(4)",
        )
    ]
    ok = True
    definite = unknown = 0
    for s, r in itertools.product(specs, specs):
        v = catalog_dominates(s, r)
        if not check_certificate(s, r, v):
            ok = False
        if v.relation is Relation.UNKNOWN:
            unknown += 1
        else:
            definite += 1
    report(
        "honesty audit: certificates re-verify",
        ok,
        t0,
        f"{definite} definite, {unknown} unknown",
    )
