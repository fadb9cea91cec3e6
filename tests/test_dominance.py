"""Dominance verdicts, partition rings, and maximal-ring enumeration."""

import hashlib
import itertools
import time

import pytest

from partition_oracle import partition_dominance_bridge
from ringcode.dominance import (
    CharacteristicObstruction,
    DominanceVerdict,
    EquivalenceStep,
    FactorSelection,
    FieldCriterion,
    FieldViolation,
    ModReductionStep,
    Obligation,
    PartitionRing,
    Relation,
    SubfieldStep,
    catalog_dominates,
    check_certificate,
    field_product_dominates,
    is_maximal_ring,
    maximal_rings,
    partition_ring_of,
    smallest_field_refuge,
    square_free_fields,
    to_partition_ring,
    zmod_dominates,
    _atoms,
)
from ringcode.errors import GuardExceeded
from ringcode.network import solve_brute, two_six
from ringcode.partitions import Partition, enumerate_partitions
from ringcode.rings import (
    DualNumbers,
    IntegersMod,
    PrimeField,
    Product,
    elements,
    factorize,
    format_ring,
    galois_field,
    parse_ring,
    ring_size,
    zero,
)

DOM = Relation.DOMINATES
NOT = Relation.NOT_DOMINATES
UNK = Relation.UNKNOWN

CATALOG = (
    "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(16)",
    "GF(32)", "Z(4)", "Z(6)", "Z(8)", "Z(9)", "Z(12)", "Z(20)", "D(2)", "D(3)",
    "GF(2)xGF(2)", "GF(2)xGF(3)", "GF(4)xGF(2)", "GF(4)xGF(3)", "GF(8)xGF(4)",
    "GF(9)xGF(3)", "Z(4)xGF(3)", "D(2)xGF(3)", "GF(2)xGF(2)xGF(2)",
)
RULE_GRID = (
    "DNDNNDNDDNNNNNNDNDNDNDNNND",
    "NDNNNNDNNNNNNNNNDNNNNNDNNN",
    "NNDNNNNDNUNUUNNNNNNNNNNNNN",
    "NNNDNNNNNNNNNNNNNNNNNNNNNN",
    "NNNNDNNNNNNNNNNNNNNNNNNNNN",
    "NNNNNDNNNUNUUNNNNNNNNNNNNN",
    "NNNNNNDNNUNUUNNNNNNNNNNNNN",
    "NNNNNNNDNUNUUNNNNNNNNNNNNN",
    "NNNNNNNNDUNUUNNNNNNNNNNNNN",
    "DNDNNDUDDDNNNNNDNDNDNDNNND",
    "DDDNNDDDDNDNNNNDDDDDDDDNDD",
    "DNDNNDUDDDNDNNNDNDNDNDNNND",
    "NDUNNUDUUNNNDNNNDNNNUUDNNN",
    "DDDNNDDDDDDNNDNDDDDDDDDDDD",
    "DNDDNDUDDDNNNNDDNDNDNDNNND",
    "DNDNNDNDDNNNNNNDNDNDNDNNND",
    "NDNNNNDNNNNNNNNNDNNNNNDNNN",
    "DNDNNDNDDUNUUNNDNDNDNDNNND",
    "DDDNNDDDDNDNNNNDDDDDDDDNDD",
    "DNDNNDNDDUNUUNNDNDNDNDNNND",
    "NDDNNNDDNUNUUUNNDNNNDNDUNN",
    "NNDNNDNDNUNUUNNNNNNNNDNNNN",
    "NDNNNNDNNUNUUUNNDNNNNNDUNN",
    "DDDNNDDDDDDNNDNDDDDDDDDDDD",
    "DDDNNDDDDNDNNNNDDDDDDDDNDD",
    "DNDNNDNDDUNUUNNDNDNDNDNNND",
)

# GF(q), Z(n) for prime, prime-power and composite n, D(p) and mixed
# products; the pinned digests below and in test_cli.py run every ordered
# pair of these
PINNED_RINGS = (
    "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(8)", "GF(9)", "GF(16)", "Z(2)",
    "Z(5)", "Z(4)", "Z(8)", "Z(9)", "Z(6)", "Z(12)", "Z(30)", "D(2)", "D(3)",
    "GF(2)xGF(2)", "GF(2)xGF(3)", "GF(4)xGF(2)", "GF(8)xGF(4)", "GF(4)xZ(9)",
    "Z(4)xGF(3)", "D(2)xGF(3)", "GF(4)xD(2)", "Z(4)xZ(9)",
)


PINNED_DIGEST = "2511566c23eb68face739d7937f492105648146f23d2961b82f3ec490b0c58df"


def pinned_digest(pairs, texts) -> str:
    """sha256 of relation, describe(), certificate repr and check_certificate
    of each (left, right) pair, then is_maximal_ring and partition_ring_of
    (value or error text) of each ring, every ring parsed afresh.  The lines
    are hashed in PINNED_RINGS order, whatever order they are computed in."""
    lines = {}
    for left, right in pairs:
        s, r = parse_ring(left), parse_ring(right)
        v = catalog_dominates(s, r)
        lines[left, right] = (
            f"{left} {right} {v.relation.name} {v.describe()} "
            f"{v.certificate!r} {check_certificate(s, r, v)}"
        )
    for text in texts:
        spec = parse_ring(text)
        try:
            as_fields = repr(partition_ring_of(spec))
        except ValueError as exc:
            as_fields = f"error: {exc}"
        lines[text] = f"{text} {is_maximal_ring(spec)} {as_fields}"
    order = [*itertools.product(PINNED_RINGS, repeat=2), *PINNED_RINGS]
    return hashlib.sha256("\n".join(lines[key] for key in order).encode()).hexdigest()


def pr(assignment: dict) -> PartitionRing:
    return PartitionRing(
        tuple((p, Partition(tuple(parts))) for p, parts in assignment.items())
    )


class TestToPartitionRing:
    def test_grouping(self):
        got = to_partition_ring([(2, 2), (2, 2), (2, 1), (3, 2), (3, 1)])
        assert got == pr({2: (2, 2, 1), 3: (2, 1)})
        assert got.size == 864

    def test_single(self):
        assert to_partition_ring([(5, 1)]) == pr({5: (1,)})

    def test_mixed(self):
        assert to_partition_ring([(2, 4), (2, 1), (3, 3)]) == pr({2: (4, 1), 3: (3,)})

    def test_from_spec(self):
        spec = parse_ring("GF(8)xGF(4)")
        assert partition_ring_of(spec) == pr({2: (3, 2)})
        with pytest.raises(ValueError):
            partition_ring_of(parse_ring("Z(4)"))

    def test_rendering(self):
        assert str(pr({2: (5,)})) == "GF(2^5)"
        assert str(pr({2: (5, 2), 3: (5,), 5: (2,)})) == "GF(2^5)xGF(2^2)xGF(3^5)xGF(5^2)"


class TestFieldProductDominates:
    def test_incomparable_pair(self):
        s, r = pr({2: (3, 2)}), pr({2: (5,)})
        v1, v2 = field_product_dominates(s, r), field_product_dominates(r, s)
        assert v1.relation is NOT and v2.relation is NOT
        assert v1.certificate[0].prime == 2 and v1.certificate[0].exponent == 5
        assert v1.certificate[0].available == (3, 2)

    def test_equivalent_non_isomorphic(self):
        # k = 5, p = 2: (3,1,1) and (4,1) dominate each other
        s, r = pr({2: (3, 1, 1)}), pr({2: (4, 1)})
        assert field_product_dominates(s, r).relation is DOM
        assert field_product_dominates(r, s).relation is DOM

    def test_reflexive(self):
        s = pr({2: (3, 2), 3: (2, 1)})
        assert field_product_dominates(s, s).relation is DOM

    def test_sizes_may_differ(self):
        assert field_product_dominates(pr({2: (1,)}), pr({2: (4,)})).relation is DOM
        assert field_product_dominates(pr({2: (1,)}), pr({3: (1,)})).relation is NOT

    def test_never_unknown_and_matches_bridge_all_sizes(self):
        """For every size m <= 2^12, every ordered pair of partition rings of
        size m gets a definite verdict that agrees with per-prime partition
        division."""
        from ringcode.rings import factorize

        for m in range(2, 2**12 + 1):
            fac = factorize(m)
            per_prime = [
                [(p, q.parts) for q in enumerate_partitions(k)] for p, k in fac
            ]
            rings_m = [
                pr(dict(choice)) for choice in itertools.product(*per_prime)
            ]
            for s, r in itertools.product(rings_m, rings_m):
                v = field_product_dominates(s, r)
                assert v.relation in (DOM, NOT)
                assert (v.relation is DOM) == partition_dominance_bridge(s, r)

    def test_quasi_order_laws_single_prime(self):
        # reflexive and transitive at every fixed size 2^k, k <= 10
        for k in range(1, 11):
            rings_k = [pr({2: p.parts}) for p in enumerate_partitions(k)]
            rel = [
                [field_product_dominates(a, b).relation is DOM for b in rings_k]
                for a in rings_k
            ]
            n = len(rings_k)
            for i in range(n):
                assert rel[i][i]
                for j in range(n):
                    if rel[i][j]:
                        for l in range(n):
                            if rel[j][l]:
                                assert rel[i][l]


class TestBridge:
    def test_examples(self):
        assert partition_dominance_bridge(pr({2: (1, 1)}), pr({2: (2,)}))
        assert not partition_dominance_bridge(pr({2: (3, 2)}), pr({2: (5,)}))
        assert partition_dominance_bridge(
            pr({2: (2, 2, 1), 3: (2, 1)}), pr({2: (4, 1), 3: (3,)})
        )

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            partition_dominance_bridge(pr({2: (1,)}), pr({3: (1,)}))
        with pytest.raises(ValueError):
            partition_dominance_bridge(pr({2: (1,)}), pr({2: (2,)}))


class TestZmod:
    def test_examples(self):
        assert zmod_dominates(12, 4).relation is DOM
        assert zmod_dominates(4, 8).relation is NOT

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_power_chain(self, p):
        assert zmod_dominates(p * p, p).relation is DOM
        assert zmod_dominates(p, p * p).relation is NOT

    def test_matches_divisibility(self):
        for n in range(2, 30):
            for m in range(2, 30):
                want = DOM if n % m == 0 else NOT
                assert zmod_dominates(n, m).relation is want


class TestCatalogEngine:
    def test_size_p2_chain(self):
        for p in (2, 3):
            zsq = IntegersMod(p * p)
            d = DualNumbers(p)
            ff = Product((PrimeField(p), PrimeField(p)))
            f2 = galois_field(p, 2)
            assert catalog_dominates(zsq, d).relation is DOM
            assert catalog_dominates(d, zsq).relation is NOT
            assert catalog_dominates(d, ff).relation is DOM
            assert catalog_dominates(ff, d).relation is DOM
            assert catalog_dominates(ff, f2).relation is DOM
            assert catalog_dominates(f2, ff).relation is NOT
            assert catalog_dominates(zsq, f2).relation is DOM

    def test_dual_equivalence(self):
        d3 = DualNumbers(3)
        ff = Product((PrimeField(3), PrimeField(3)))
        assert catalog_dominates(d3, ff).relation is DOM
        assert catalog_dominates(ff, d3).relation is DOM

    def test_factor_selection(self):
        s = Product((galois_field(2, 2), PrimeField(2)))
        assert catalog_dominates(s, galois_field(2, 2)).relation is DOM

    def test_characteristic_rule_for_field_vs_zlocal(self):
        # char(R) does not divide char(S): the characteristic-char(S) family
        # is solvable over S only
        for s, r, c in (
            (galois_field(2, 2), IntegersMod(4), 2),
            (Product((PrimeField(2), PrimeField(2))), IntegersMod(8), 2),
            (IntegersMod(20), galois_field(3, 2), 20),
        ):
            v = catalog_dominates(s, r)
            assert v.relation is NOT and check_certificate(s, r, v)
            assert v.certificate[-1].witness_modulus == c

    def test_characteristic_rule_closes_the_catalog(self):
        # the benchmark's catalog; RULE_GRID[i][j] is the relation of
        # CATALOG[i] against CATALOG[j] under the field, factor and Z(n) rules
        # alone (D, N, or U where they leave the pair open).  The
        # characteristic rule turns every U into a certified N.
        for left, row in zip(CATALOG, RULE_GRID):
            for right, rule in zip(CATALOG, row):
                s, r = parse_ring(left), parse_ring(right)
                v = catalog_dominates(s, r)
                assert v.relation.name[0] == ("N" if rule == "U" else rule), (left, right)
                assert check_certificate(s, r, v), (left, right)

    def test_z_recognition(self):
        # GF(2)xGF(3) is Z(6) in disguise; Z(4) does not divide into it
        s = Product((PrimeField(2), PrimeField(3)))
        assert catalog_dominates(s, IntegersMod(4)).relation is NOT
        assert catalog_dominates(IntegersMod(6), s).relation is DOM
        assert catalog_dominates(s, IntegersMod(6)).relation is DOM

    def test_mixed_products(self):
        z12 = IntegersMod(12)
        assert catalog_dominates(z12, PrimeField(3)).relation is DOM
        assert catalog_dominates(z12, PrimeField(2)).relation is DOM
        assert catalog_dominates(z12, PrimeField(5)).relation is NOT
        assert catalog_dominates(z12, IntegersMod(4)).relation is DOM
        assert catalog_dominates(z12, IntegersMod(8)).relation is NOT

    def test_agrees_with_field_product_rule(self):
        specs = [
            parse_ring(t)
            for t in (
                "GF(2)",
                "GF(4)",
                "GF(8)xGF(4)",
                "GF(32)",
                "GF(2)xGF(3)",
                "GF(4)xGF(3)",
                "GF(9)xGF(3)",
                "GF(16)xGF(2)",
            )
        ]
        for s, r in itertools.product(specs, specs):
            got = catalog_dominates(s, r).relation
            want = field_product_dominates(
                partition_ring_of(s), partition_ring_of(r)
            ).relation
            assert got is want

    def test_certificates_verify(self):
        specs = [
            parse_ring(t)
            for t in (
                "GF(2)",
                "GF(4)",
                "GF(8)xGF(4)",
                "GF(32)",
                "Z(4)",
                "Z(6)",
                "Z(12)",
                "Z(8)",
                "D(2)",
                "D(3)",
                "Z(4)xGF(3)",
                "GF(2)xGF(3)",
                "D(2)xGF(9)",
            )
        ]
        definite = 0
        for s, r in itertools.product(specs, specs):
            v = catalog_dominates(s, r)
            assert check_certificate(s, r, v)
            if v.relation is not UNK:
                definite += 1
        assert definite > 60  # the rule set settles most of this corpus

    def test_reflexive_on_catalog(self):
        for t in ("GF(4)", "Z(12)", "D(3)", "Z(8)", "GF(8)xGF(4)", "Z(4)xGF(3)"):
            spec = parse_ring(t)
            assert catalog_dominates(spec, spec).relation is DOM

    def test_outputs_are_pinned(self):
        # as recorded before the factor walks were merged
        assert pinned_digest(itertools.product(PINNED_RINGS, repeat=2), PINNED_RINGS) == PINNED_DIGEST


class TestAtomCache:
    """Each ring value's atoms are built once (dominance._atoms) and read by
    every later query, whichever spec object asks."""

    def test_cold_and_warm_give_the_pinned_bytes(self):
        _atoms.cache_clear()
        pairs = list(itertools.product(PINNED_RINGS, repeat=2))[::-1]
        assert pinned_digest(pairs, PINNED_RINGS[::-1]) == PINNED_DIGEST
        assert _atoms.cache_info().hits > 0

    def test_one_build_per_ring_value(self):
        # GF(4), Z(4), D(2) and GF(2)xGF(2) have the same size; GF(2^2) and
        # GF(4) are one value, and so are the two parses of Z(4)
        texts = ("GF(4)", "Z(4)", "D(2)", "GF(2)xGF(2)", "GF(2^2)", "Z(4)", "Z(12)", "GF(3)xZ(4)")
        distinct = {parse_ring(t) for t in texts}
        _atoms.cache_clear()
        for left, right in itertools.product(texts, repeat=2):
            s, r = parse_ring(left), parse_ring(right)
            assert check_certificate(s, r, catalog_dominates(s, r))
        for text in texts:
            is_maximal_ring(parse_ring(text))
            smallest_field_refuge(parse_ring(text), 2)
        assert len(distinct) == 6
        assert _atoms.cache_info().misses == len(distinct)


class TestForgedCertificates:
    """check_certificate rejects a certificate whose claim does not hold,
    one forgery per step kind; each pair's true certificate passes."""

    @pytest.mark.parametrize(
        "left, right, relation, steps",
        [
            # a field criterion with a wrong exponent: 3 does not divide 4
            ("GF(8)", "GF(16)", DOM, (FieldCriterion(((2, 4, 3),)),)),
            # ... citing a left exponent the left side lacks
            ("GF(4)", "GF(16)", DOM, (FieldCriterion(((2, 4, 4),)),)),
            # ... or a right factor the right side lacks
            ("GF(4)", "GF(16)", DOM, (FieldCriterion(((2, 8, 2),)),)),
            # a field violation where the divisor 2 of 4 exists
            ("GF(4)", "GF(16)", NOT, (FieldViolation(2, 4, (2,)),)),
            # ... on a left side that is not a product of fields
            ("Z(4)", "GF(8)", NOT, (FieldViolation(2, 3, ()),)),
            # ... citing a right factor the right side lacks
            ("GF(8)", "GF(16)", NOT, (FieldViolation(2, 5, (3,)),)),
            # a characteristic obstruction whose c is divisible by char(R)
            ("Z(8)", "Z(4)", NOT, (CharacteristicObstruction(8, 8, 4),)),
            # ... or not divisible by char(S)
            ("GF(4)", "Z(4)", NOT, (CharacteristicObstruction(3, 2, 4),)),
            # a NOT resting on no violation at all
            ("GF(8)", "GF(16)", NOT, (SubfieldStep(2, 3, 4),)),
            # a residue reduction and a subfield step that do not divide
            ("Z(8)", "Z(4)", DOM, (ModReductionStep(8, 3),)),
            ("GF(8)", "GF(16)", DOM, (SubfieldStep(2, 3, 4),)),
            # a factor selection out of range
            ("GF(4)xGF(2)", "GF(4)", DOM, (FactorSelection(2, "GF(2)"), SubfieldStep(2, 2, 2))),
            ("GF(4)xGF(2)", "GF(4)", DOM, (FactorSelection(-1, "GF(2)"), SubfieldStep(2, 2, 2))),
            # an equivalence under an unknown rule
            ("D(2)", "GF(2)", DOM, (EquivalenceStep("frobenius", "D(2) is GF(2)"),
                                    FieldCriterion(((2, 1, 1),)))),
            # a step of no known kind
            ("Z(8)", "Z(4)", DOM, (Obligation("trust me"), ModReductionStep(8, 4))),
            # the right-hand factor Z(4)'s terminal step dropped
            ("Z(12)", "Z(4)xGF(3)", DOM, (
                EquivalenceStep("crt-split", "Z(12) is isomorphic to Z(4)xZ(3)"),
                FactorSelection(1, "GF(3)"),
                SubfieldStep(3, 1, 1),
                FactorSelection(0, "Z(4)"),
            )),
            # a subfield step from a field the left side lacks
            ("GF(3)", "GF(4)", DOM, (SubfieldStep(2, 1, 2),)),
            # a residue reduction from a Z(p^k) the left side lacks
            ("GF(5)", "Z(4)", DOM, (ModReductionStep(8, 4),)),
            # a factor selection naming a factor other than the one at its index
            ("GF(2)xGF(3)", "GF(9)", DOM, (FactorSelection(0, "GF(3)"), SubfieldStep(3, 1, 2))),
            # a NOT resting on no step at all
            ("GF(2)", "GF(3)", NOT, ()),
            # a true violation after an unknown rule and a step of no known kind
            ("GF(2)", "GF(3)", NOT, (EquivalenceStep("bogus", "x"), Obligation("y"), FieldViolation(3, 1, ()))),
            # ... after a step that is no equivalence
            ("D(2)", "GF(3)", NOT, (SubfieldStep(2, 1, 1), FieldViolation(3, 1, ()))),
        ],
    )
    def test_rejects(self, left, right, relation, steps):
        s, r = parse_ring(left), parse_ring(right)
        assert check_certificate(s, r, catalog_dominates(s, r))
        assert not check_certificate(s, r, DominanceVerdict(relation, steps))

    def test_unknown_needs_an_obligation(self):
        s, r = parse_ring("GF(4)xZ(9)"), parse_ring("GF(2)")
        assert not check_certificate(s, r, DominanceVerdict(UNK))
        assert not check_certificate(s, r, DominanceVerdict(UNK, (SubfieldStep(2, 1, 1),)))


def test_unknown_pair_is_open():
    # no rule settles GF(4)xZ(9) against GF(2): GF(4) is no subfield of GF(2)
    # and Z(9) has characteristic 3
    s, r = parse_ring("GF(4)xZ(9)"), parse_ring("GF(2)")
    v = catalog_dominates(s, r)
    assert v == DominanceVerdict(UNK, (Obligation("no rule settles this left side against GF(2)"),))
    assert check_certificate(s, r, v)
    # two-six solves over the left side only, so a rule may settle the
    # pair only as NOT
    assert solve_brute(two_six(), s) is not None
    assert solve_brute(two_six(), r) is None


class TestMaximalRings:
    def test_p5(self):
        got = [str(x) for x in maximal_rings([(2, 5)])]
        assert got == ["GF(2^5)", "GF(2^3)xGF(2^2)"]

    def test_p6_unique(self):
        assert [str(x) for x in maximal_rings([(7, 6)])] == ["GF(7^6)"]

    def test_composite_exact_list_and_order(self):
        got = [str(x) for x in maximal_rings([(2, 7), (3, 5), (5, 2)])]
        assert got == [
            "GF(2^7)xGF(3^5)xGF(5^2)",
            "GF(2^5)xGF(2^2)xGF(3^5)xGF(5^2)",
            "GF(2^4)xGF(2^3)xGF(3^5)xGF(5^2)",
            "GF(2^7)xGF(3^3)xGF(3^2)xGF(5^2)",
            "GF(2^5)xGF(2^2)xGF(3^3)xGF(3^2)xGF(5^2)",
            "GF(2^4)xGF(2^3)xGF(3^3)xGF(3^2)xGF(5^2)",
        ]

    def test_members_are_maximal_and_incomparable(self):
        from ringcode.partitions import is_maximal

        for factored in ([(2, 11)], [(2, 17)], [(2, 7), (3, 5), (5, 2)], [(2, 23)]):
            rings = maximal_rings(factored)
            for x in rings:
                assert all(is_maximal(part) for _, part in x.assignment)
                if all(
                    p**a <= 2**20 for p, part in x.assignment for a in part.parts
                ):
                    assert is_maximal_ring(x.spec())
            for a, b in itertools.permutations(rings, 2):
                assert field_product_dominates(a, b).relation is NOT

    def test_uniqueness_iff_1_2_3_4_6(self):
        for k in range(1, 31):
            assert (len(maximal_rings([(2, k)])) == 1) == (k in {1, 2, 3, 4, 6})

    def test_validation(self):
        with pytest.raises(ValueError):
            maximal_rings([(2, 3), (2, 4)])
        with pytest.raises(ValueError):
            maximal_rings([(4, 2)])
        with pytest.raises(GuardExceeded):
            maximal_rings([(2, 41)])

    def test_guards_before_primality(self):
        # trial division of this prime takes seconds
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            maximal_rings([(10000000000000061, 1)])
        assert time.perf_counter() - start < 1.0


class TestIsMaximalRing:
    def test_examples(self):
        assert is_maximal_ring(parse_ring("GF(8)xGF(4)"))
        assert is_maximal_ring(parse_ring("GF(32)"))
        assert not is_maximal_ring(parse_ring("D(2)"))
        assert not is_maximal_ring(parse_ring("Z(4)"))
        assert not is_maximal_ring(parse_ring("GF(16)xGF(2)"))  # (4,1) divides (5)
        assert is_maximal_ring(parse_ring("Z(7)"))  # Z(p) is the field GF(p)
        assert not is_maximal_ring(parse_ring("GF(4)xZ(9)"))
        assert is_maximal_ring(parse_ring("Z(6)"))  # Z(6) is GF(2)xGF(3)
        assert is_maximal_ring(parse_ring("Z(30)"))
        assert not is_maximal_ring(parse_ring("Z(12)"))

    def test_sweep_against_nilpotents_and_maximal_rings(self):
        # catalog atoms and their pairwise products of size <= 64.  A ring
        # with a nonzero x, x*x = 0 (D(p) or Z(p^k), k >= 2, anywhere in a
        # product) is never maximal; any other is a product of fields
        # (square-free Z(n) as its GF(p)s), maximal exactly when it is one of
        # maximal_rings of its size
        atoms = (
            "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)",
            "GF(16)", "GF(32)", "Z(2)", "Z(6)", "Z(4)", "Z(8)", "Z(9)", "Z(12)",
            "D(2)", "D(3)",
        )
        products = (
            f"{a}x{b}" for a, b in itertools.combinations_with_replacement(atoms, 2)
        )
        checked = nilpotent = 0
        for text in (*atoms, *products):
            spec = parse_ring(text)
            size = ring_size(spec)
            if size > 64:
                continue
            checked += 1
            z = zero(spec)
            if any(x != z and x * x == z for x in elements(spec)):
                nilpotent += 1
                assert not is_maximal_ring(spec), text
                continue
            factors = spec.factors if isinstance(spec, Product) else (spec,)
            fields = [pk for f in factors for pk in factorize(ring_size(f))]
            listed = to_partition_ring(fields) in maximal_rings(factorize(size))
            assert is_maximal_ring(spec) is listed, text
        assert (checked, nilpotent) == (125, 65)


class TestRefugeAndSquareFree:
    def test_refuge_examples(self):
        assert format_ring(smallest_field_refuge(IntegersMod(12), 2)) == "GF(2)"
        assert (
            format_ring(
                smallest_field_refuge(Product((galois_field(2, 2), PrimeField(3))), 2)
            )
            == "GF(2^2)"
        )
        assert format_ring(smallest_field_refuge(IntegersMod(30), 5)) == "GF(5)"

    def test_refuge_is_engine_certified(self):
        cases = [
            (IntegersMod(12), 2),
            (IntegersMod(12), 3),
            (Product((galois_field(2, 2), PrimeField(3))), 2),
            (IntegersMod(30), 5),
            (Product((galois_field(2, 3), galois_field(2, 2))), 2),
            (DualNumbers(5), 5),
            (Product((IntegersMod(8), PrimeField(3))), 2),
        ]
        for spec, p in cases:
            refuge = smallest_field_refuge(spec, p)
            assert ring_size(refuge) % p == 0
            v = catalog_dominates(spec, refuge)
            assert v.relation is DOM
            assert check_certificate(spec, refuge, v)

    def test_refuge_picks_largest_exponent(self):
        spec = Product((galois_field(2, 3), galois_field(2, 2)))
        assert format_ring(smallest_field_refuge(spec, 2)) == "GF(2^3)"

    def test_refuge_field_wins_exponent_tie(self):
        spec = Product((galois_field(2, 2), IntegersMod(4)))
        assert format_ring(smallest_field_refuge(spec, 2)) == "GF(2^2)"

    def test_refuge_errors(self):
        with pytest.raises(ValueError):
            smallest_field_refuge(IntegersMod(12), 5)

    def test_square_free(self):
        assert [format_ring(f) for f in square_free_fields(6)] == ["GF(2)", "GF(3)"]
        assert [format_ring(f) for f in square_free_fields(30)] == [
            "GF(2)",
            "GF(3)",
            "GF(5)",
        ]
        assert [format_ring(f) for f in square_free_fields(7)] == ["GF(7)"]
        with pytest.raises(ValueError):
            square_free_fields(12)


def _size_preserving_field_bound(spec) -> list[tuple[int, int]]:
    """Independent reduction of a catalog ring to a same-size list of field
    factors that dominate it: fields stay, D(p) widens to GF(p)xGF(p), Z(n)
    splits into prime powers with each Z(p^k) bounded by GF(p^k)."""
    from ringcode.rings import (
        DualNumbers as D,
        GaloisField as G,
        IntegersMod as Z,
        PrimeField as F,
        Product as Pr,
        factorize,
    )

    if isinstance(spec, F):
        return [(spec.p, 1)]
    if isinstance(spec, G):
        return [(spec.p, spec.k)]
    if isinstance(spec, D):
        return [(spec.p, 1), (spec.p, 1)]
    if isinstance(spec, Z):
        return list(factorize(spec.n))
    out = []
    for f in spec.factors:
        out.extend(_size_preserving_field_bound(f))
    return out


class TestCertifiedChainToMaximal:
    def test_every_catalog_ring_reaches_a_maximal_partition_ring(self):
        from ringcode.partitions import divides, maximal_partitions

        family = [
            parse_ring(t)
            for t in (
                "GF(2)",
                "GF(512)",
                "GF(8)xGF(4)",
                "GF(16)xGF(2)",
                "Z(32)",
                "Z(512)",
                "Z(360)",
                "Z(4)xZ(4)",
                "D(2)",
                "D(2)xZ(9)",
                "GF(4)xD(3)",
                "Z(100)",
                "D(7)",
                "Z(49)xGF(2)",
            )
        ]
        for spec in family:
            bound = to_partition_ring(_size_preserving_field_bound(spec))
            assignment = []
            for p, part in bound.assignment:
                target = next(
                    m for m in maximal_partitions(part.total) if divides(part, m)
                )
                assignment.append((p, target))
            maximal = PartitionRing(tuple(assignment))
            assert maximal.size == ring_size(spec)
            assert all(
                m in maximal_partitions(part.total)
                for (_, part), (_, m) in zip(bound.assignment, maximal.assignment)
            )
            v = catalog_dominates(spec, maximal.spec())
            assert v.relation is DOM
            assert check_certificate(spec, maximal.spec(), v)
