"""Ring catalog arithmetic, homomorphisms, and the expression grammar."""

import gc
import importlib
import itertools
import random
import sys
import weakref

import pytest
from hom_oracle import verify_hom_table_all_pairs
from ring_oracle import oracle_add, oracle_is_unit, oracle_mul, oracle_neg, oracle_ops, oracle_reducible_monics

from ringcode import rings as rings_mod
from ringcode.errors import GuardExceeded, ParseError
from ringcode.rings import (
    DualNumbers,
    GaloisField,
    IntegersMod,
    PrimeField,
    Product,
    RingElement,
    add,
    apply_hom,
    arithmetic,
    canonicalize,
    characteristic,
    crt,
    dual_augmentation,
    element,
    elements,
    find_irreducible,
    format_element,
    format_ring,
    galois_field,
    inverse,
    is_prime,
    mod_reduction,
    mul,
    neg,
    one,
    parse_element,
    parse_ring,
    poly_is_irreducible,
    projection,
    ring_size,
    smallest_generator,
    subring_inclusion,
    zero,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = galois_field(2, 2)
Z4 = IntegersMod(4)
Z12 = IntegersMod(12)
D2 = DualNumbers(2)
D3 = DualNumbers(3)


class TestFindIrreducible:
    def test_degree_one_is_x(self):
        assert find_irreducible(2, 1) == (0, 1)
        assert find_irreducible(7, 1) == (0, 1)

    def test_gf4_modulus(self):
        # exhaustive check: x^2, x^2+x, x^2+1 all have roots in GF(2)
        for c0, c1 in [(0, 0), (0, 1), (1, 0)]:
            assert not poly_is_irreducible((c0, c1, 1), 2)
        assert find_irreducible(2, 2) == (1, 1, 1)

    def test_gf9_modulus(self):
        # smaller monic quadratics over GF(3) all have roots
        assert find_irreducible(3, 2) == (1, 0, 1)

    def test_deterministic_and_irreducible(self):
        for p, k in [(2, 3), (2, 8), (3, 3), (5, 2), (7, 2)]:
            m = find_irreducible(p, k)
            assert m == find_irreducible(p, k)
            assert len(m) == k + 1 and m[-1] == 1
            assert poly_is_irreducible(m, p)

    def test_size_guard(self):
        with pytest.raises(GuardExceeded):
            find_irreducible(2, 21)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_irreducible_iff_no_product_of_lower_monics(self, p):
        # every monic of degree <= 5 against the brute-force products
        reducible = oracle_reducible_monics(p, 5)
        for degree in range(6):
            for low in itertools.product(range(p), repeat=degree):
                f = low + (1,)
                assert poly_is_irreducible(f, p) == (degree >= 1 and f not in reducible), f

    # find_irreducible(p, k) for every p^k <= 2^12 and k >= 2; a field's modulus
    # fixes its element order and so every output over it; for k = 1 it is x
    MODULI = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 0, 1, 1),
        (2, 4): (1, 0, 0, 1, 1),
        (2, 5): (1, 0, 0, 1, 0, 1),
        (2, 6): (1, 0, 0, 0, 0, 1, 1),
        (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
        (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
        (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
        (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
        (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        (3, 2): (1, 0, 1),
        (3, 3): (1, 0, 2, 1),
        (3, 4): (1, 0, 1, 1, 1),
        (3, 5): (1, 0, 0, 0, 2, 1),
        (3, 6): (1, 0, 0, 0, 1, 1, 1),
        (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
        (5, 2): (1, 1, 1),
        (5, 3): (1, 0, 1, 1),
        (5, 4): (1, 0, 1, 1, 1),
        (5, 5): (1, 0, 0, 0, 4, 1),
        (7, 2): (1, 0, 1),
        (7, 3): (1, 0, 1, 1),
        (7, 4): (1, 0, 0, 1, 1),
        (11, 2): (1, 0, 1),
        (11, 3): (1, 0, 4, 1),
        (13, 2): (1, 3, 1),
        (13, 3): (1, 0, 4, 1),
        (17, 2): (1, 1, 1),
        (19, 2): (1, 0, 1),
        (23, 2): (1, 0, 1),
        (29, 2): (1, 1, 1),
        (31, 2): (1, 0, 1),
        (37, 2): (1, 3, 1),
        (41, 2): (1, 1, 1),
        (43, 2): (1, 0, 1),
        (47, 2): (1, 0, 1),
        (53, 2): (1, 1, 1),
        (59, 2): (1, 0, 1),
        (61, 2): (1, 5, 1),
    }

    def test_moduli_up_to_the_table_limit(self):
        assert all(find_irreducible(p, 1) == (0, 1) for p in range(2, 4097) if is_prime(p))
        got = {(p, k): find_irreducible(p, k) for p in range(2, 65) if is_prime(p)
               for k in range(2, 13) if p**k <= rings_mod.FIELD_TABLE_LIMIT}
        assert got == self.MODULI


class TestElements:
    def test_integers_mod(self):
        assert [e.payload for e in elements(Z4)] == [0, 1, 2, 3]

    def test_dual_numbers_order(self):
        assert [e.payload for e in elements(D2)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [format_element(e) for e in elements(D2)] == ["0", "x", "1", "1+x"]

    def test_product_lex(self):
        prod = Product((GF2, GF3))
        got = [(a.payload, b.payload) for a, b in (e.payload for e in elements(prod))]
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_count_matches_size(self):
        for spec in (GF4, Z12, D3, Product((GF4, GF3))):
            assert len(elements(spec)) == ring_size(spec)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            elements(IntegersMod(2**20 + 1))


class TestArithmetic:
    def test_gf4_x_squared(self):
        x = RingElement(GF4, (0, 1))
        assert mul(x, x).payload == (1, 1)  # x^2 = x + 1 mod x^2+x+1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_dual_x_squared_is_zero(self, p):
        d = DualNumbers(p)
        x = RingElement(d, (0, 1))
        assert mul(x, x) == zero(d)

    def test_z12_add(self):
        assert add(RingElement(Z12, 7), RingElement(Z12, 8)).payload == 3

    def test_owner_mismatch(self):
        with pytest.raises(ValueError):
            add(RingElement(GF2, 1), RingElement(GF3, 1))

    def test_operator_sugar(self):
        a, b = RingElement(Z12, 7), RingElement(Z12, 8)
        assert (a + b).payload == 3
        assert (a * b).payload == 8
        assert (-a).payload == 5
        assert (a - b).payload == 11


class TestCharacteristic:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (Z12, 12),
            (galois_field(2, 5), 2),
            (Product((galois_field(2, 3), GF4)), 2),
            (Product((Z4, GF3)), 12),
            (D3, 3),
        ],
    )
    def test_values(self, spec, expected):
        assert characteristic(spec) == expected

    def test_divides_size(self):
        for spec in (GF2, GF4, Z12, D3, Product((Z4, GF3)), galois_field(3, 3)):
            assert ring_size(spec) % characteristic(spec) == 0


class TestInverse:
    def test_z12(self):
        assert inverse(RingElement(Z12, 5)).payload == 5
        assert inverse(RingElement(Z12, 4)) is None

    def test_gf4(self):
        x = RingElement(GF4, (0, 1))
        assert inverse(x).payload == (1, 1)

    def test_every_nonzero_field_element(self):
        for spec in (GF4, galois_field(2, 3), galois_field(3, 2), PrimeField(7)):
            units = 0
            for a in elements(spec):
                inv = inverse(a)
                if a == zero(spec):
                    assert inv is None
                else:
                    units += 1
                    assert mul(a, inv) == one(spec)
            assert units == ring_size(spec) - 1

    def test_dual_numbers(self):
        d = DualNumbers(3)
        a = RingElement(d, (2, 1))
        assert mul(a, inverse(a)) == one(d)
        assert inverse(RingElement(d, (0, 1))) is None

    def test_product_componentwise(self):
        prod = Product((Z4, GF3))
        a = element(prod, (3, 2))
        assert mul(a, inverse(a)) == one(prod)
        assert inverse(element(prod, (2, 1))) is None


class TestHoms:
    def test_mod_reduction(self):
        h = mod_reduction(Z12, Z4)
        assert apply_hom(h, RingElement(Z12, 7)).payload == 3
        with pytest.raises(ValueError):
            mod_reduction(Z4, IntegersMod(8))

    def test_dual_augmentation(self):
        h = dual_augmentation(3)
        assert apply_hom(h, RingElement(D3, (2, 1))).payload == 2

    def test_projection(self):
        prod = Product((galois_field(2, 3), GF4))
        h = projection(prod, 1)
        u = elements(prod)[7]
        assert apply_hom(h, u) == u.payload[1]

    def test_owner_check(self):
        h = dual_augmentation(3)
        with pytest.raises(ValueError):
            apply_hom(h, RingElement(D2, (1, 0)))

    def test_surjective_kinds_cover_target(self):
        cases = [
            mod_reduction(Z12, Z4),
            dual_augmentation(2),
            projection(Product((GF2, GF3)), 1),
        ]
        for h in cases:
            image = {apply_hom(h, a).payload for a in elements(h.source)}
            assert len(image) == ring_size(h.target)

    def test_hom_laws_exhaustive_small(self):
        homs = [
            mod_reduction(Z12, Z4),
            mod_reduction(Z12, GF3),
            dual_augmentation(3),
            projection(Product((Z4, GF3)), 0),
            subring_inclusion(GF2, GF4),
            subring_inclusion(GF4, galois_field(2, 4)),
            subring_inclusion(GF3, galois_field(3, 2)),
            subring_inclusion(GF2, D2),
        ]
        for h in homs:
            src = elements(h.source)
            assert apply_hom(h, zero(h.source)) == zero(h.target)
            assert apply_hom(h, one(h.source)) == one(h.target)
            for a, b in itertools.product(src, src):
                assert apply_hom(h, add(a, b)) == add(apply_hom(h, a), apply_hom(h, b))
                assert apply_hom(h, mul(a, b)) == mul(apply_hom(h, a), apply_hom(h, b))

    def test_subring_injective(self):
        h = subring_inclusion(galois_field(2, 3), galois_field(2, 6))
        images = {apply_hom(h, a).payload for a in elements(h.source)}
        assert len(images) == 8

    def test_inclusion_then_retraction_is_identity(self):
        for p in (2, 3, 5):
            f = PrimeField(p)
            inc = subring_inclusion(f, DualNumbers(p))
            aug = dual_augmentation(p)
            for a in elements(f):
                assert apply_hom(aug, apply_hom(inc, a)) == a

    def test_inclusion_sends_a_generator_to_subgroup_generator(self):
        src, tgt = GF4, galois_field(2, 4)
        h = subring_inclusion(src, tgt)
        g = element(tgt, smallest_generator(tgt))
        t = g
        for _ in range(4):  # g^(15/3) = g^5
            t = mul(t, g)
        images = {apply_hom(h, a) for a in elements(src)}
        assert t in images

    def test_unsupported_pair(self):
        with pytest.raises(ValueError):
            subring_inclusion(GF3, GF4)
        with pytest.raises(ValueError):
            subring_inclusion(GF4, galois_field(2, 3))


class TestCrt:
    @pytest.mark.parametrize(
        "moduli,n", [((2, 3), 6), ((2, 5), 10), ((4, 3), 12), ((3, 4), 12)]
    )
    def test_hom_laws(self, moduli, n):
        prod = Product(tuple(IntegersMod(m) for m in moduli))
        h = crt(prod, IntegersMod(n))
        src = elements(prod)
        assert apply_hom(h, zero(prod)) == zero(h.target)
        assert apply_hom(h, one(prod)) == one(h.target)
        for a, b in itertools.product(src, src):
            assert apply_hom(h, add(a, b)) == add(apply_hom(h, a), apply_hom(h, b))
            assert apply_hom(h, mul(a, b)) == mul(apply_hom(h, a), apply_hom(h, b))
        assert len({apply_hom(h, a).payload for a in src}) == n
        # the image of (c_i) reduces to c_i modulo each m_i
        for a in src:
            c = apply_hom(h, a).payload
            assert tuple(c % m for m in moduli) == tuple(x.payload for x in a.payload)

    def test_prime_fields_count_as_residues(self):
        h = crt(Product((GF2, GF3)), IntegersMod(6))
        assert apply_hom(h, RingElement(h.source, (one(GF2), zero(GF3)))).payload == 3

    @pytest.mark.parametrize(
        "factors,n",
        [
            ((IntegersMod(2), IntegersMod(6)), 12),  # not coprime
            ((IntegersMod(4), IntegersMod(3)), 24),  # product is not n
            ((IntegersMod(2), IntegersMod(3)), 5),
            ((D2, GF3), 12),  # not a Z(m) factor
        ],
    )
    def test_rejects_bad_factor_lists(self, factors, n):
        with pytest.raises(ValueError):
            crt(Product(factors), IntegersMod(n))

    def test_rejects_non_product_ends(self):
        with pytest.raises(ValueError):
            crt(IntegersMod(6), IntegersMod(6))
        with pytest.raises(ValueError):
            crt(Product((GF2, GF3)), Product((GF2, GF3)))


class TestCanonicalize:
    def test_flatten_and_sort(self):
        spec = Product((Product((GF4,)), galois_field(2, 3)))
        assert canonicalize(spec) == Product((galois_field(2, 3), GF4))

    def test_identity_on_scalars(self):
        assert canonicalize(PrimeField(5)) == PrimeField(5)

    def test_sort_by_prime_then_exponent(self):
        spec = Product((GF3, GF4, GF2))
        assert canonicalize(spec) == Product((GF4, GF2, GF3))

    def test_non_fields_follow_in_order(self):
        spec = Product((Z4, GF3, D2))
        assert canonicalize(spec) == Product((GF3, Z4, D2))

    def test_idempotent(self):
        spec = Product((GF3, Product((GF4, Z4)), GF2))
        assert canonicalize(canonicalize(spec)) == canonicalize(spec)


class TestAxiomsSmall:
    """Exhaustive ring laws for a few small rings; the full <=512 sweep runs
    in the acceptance suite."""

    @pytest.mark.parametrize(
        "spec", [GF4, Z4, IntegersMod(6), D2, D3, Product((GF2, GF3))]
    )
    def test_laws(self, spec):
        els = elements(spec)
        z, u = zero(spec), one(spec)
        for a in els:
            assert add(a, neg(a)) == z
            assert mul(u, a) == a
            assert mul(z, a) == z
        for a, b in itertools.product(els, els):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(els, els, els):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


class TestExpressionGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("GF(4)", GF4),
            ("GF(2^2)", GF4),
            ("GF(7)", PrimeField(7)),
            ("Z(12)", Z12),
            ("D(3)", D3),
            ("GF(8)xGF(4)", Product((galois_field(2, 3), GF4))),
            (" Z(4) x GF(3) ", Product((Z4, GF3))),
            ("gf(2)Xgf(3)", Product((GF2, GF3))),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_ring(text) == expected

    def test_round_trip(self):
        for text in ["GF(2^5)", "GF(8)xGF(4)", "Z(6)", "D(5)", "Z(4)xGF(3)xD(2)"]:
            assert format_ring(parse_ring(text)) in (
                text,
                text.replace("GF(8)", "GF(2^3)").replace("GF(4)", "GF(2^2)"),
            )
        # nested products: format_ring parenthesises a product factor
        for spec in [Product((Product((GF4, GF3)), PrimeField(5))), Product((GF2, Product((Z4, Product((D3, GF3)))))),
                     Product((Product((GF2, GF3)), Product((Z4, D2))))]:
            assert parse_ring(format_ring(spec)) == spec, format_ring(spec)
        # one-factor products: a parenthesised group is always a product
        single = Product((GF2,))
        for spec, text in [(single, "(GF(2))"), (Product((single, GF3)), "(GF(2))xGF(3)"),
                           (Product((single,)), "((GF(2)))"), (Product((Product((GF2, GF3)),)), "((GF(2)xGF(3)))"),
                           (Product((GF3, Product((single,)))), "GF(3)x((GF(2)))")]:
            assert format_ring(spec) == text and parse_ring(text) == spec, text
        assert parse_ring("(GF(4))") == Product((GF4,)) and canonicalize(parse_ring("(GF(4))")) == GF4

    def test_error_offsets(self):
        with pytest.raises(ParseError) as err:
            parse_ring("GF(6)")
        assert err.value.offset == 0
        with pytest.raises(ParseError) as err:
            parse_ring("GF(4)xQ(3)")
        assert err.value.offset == 6
        with pytest.raises(ParseError) as err:
            parse_ring("Z(1)")
        assert err.value.offset == 0
        with pytest.raises(ParseError) as err:
            parse_ring("GF(4) junk")
        assert err.value.offset == 6
        with pytest.raises(ParseError, match="degree must be positive") as err:
            parse_ring("Z(4) x GF(2^0)")
        assert err.value.offset == 7
        with pytest.raises(ParseError, match="expected '[)]'") as err:
            parse_ring("(GF(2)xGF(3) x GF(5)")
        assert err.value.offset == 20
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_ring("(" * 5000 + "GF(2)" + ")" * 5000)

    def test_whitespace_insensitive(self):
        assert parse_ring("GF( 8 ) x GF( 4 )") == parse_ring("GF(8)xGF(4)")


class TestElementText:
    def test_round_trip(self):
        for spec in (Z12, GF4, galois_field(3, 3), D3, Product((GF4, GF3))):
            for el in elements(spec):
                assert parse_element(format_element(el), spec) == el

    def test_accepts_reordered_terms(self):
        assert parse_element("x+1", GF4).payload == (1, 1)
        assert parse_element("1+x", GF4).payload == (1, 1)
        assert parse_element("2*x+1", galois_field(3, 2)).payload == (1, 2)

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            parse_element("x^5", GF4)
        with pytest.raises(ValueError):
            parse_element("7", Z4)


class TestValidatingConstructor:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            element(Z4, 4)
        with pytest.raises(ValueError):
            element(GF4, (0, 2))
        with pytest.raises(ValueError):
            element(GF4, (0,))

    def test_product_components(self):
        prod = Product((GF2, GF3))
        el = element(prod, (1, 2))
        assert el.payload[0].ring == GF2
        with pytest.raises(ValueError):
            element(prod, (1, 3))


class TestSpecValidation:
    def test_galois_modulus_is_not_a_parameter(self):
        # format_ring names no modulus, so a GF(p^k) over any other one
        # would be read back over the default after a JSON round trip
        with pytest.raises(TypeError):
            GaloisField(2, 3, (1, 1, 0, 1))
        with pytest.raises(TypeError):
            GaloisField(2, 2, modulus=(1, 1, 1))
        specs = [GaloisField(p, k) for p in range(2, 32) if is_prime(p)
                 for k in range(2, 11) if p**k <= 2**10]
        assert len(specs) == 26
        for spec in specs:
            assert spec.modulus == find_irreducible(spec.p, spec.k)
            assert parse_ring(format_ring(spec)) == spec

    def test_degree_one_is_a_prime_field(self):
        # GF(p^1) would print as GF(p) and read back as PrimeField(p)
        for p in (2, 3):
            with pytest.raises(ValueError, match="PrimeField"):
                GaloisField(p, 1)
            assert galois_field(p, 1) == PrimeField(p)
            assert parse_ring(format_ring(galois_field(p, 1))) == PrimeField(p)
        for make in (GaloisField, galois_field):
            with pytest.raises(ValueError, match=r"GF\(2\^0\): degree must be positive"):
                make(2, 0)

    def test_prime_checks(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            DualNumbers(4)
        with pytest.raises(ValueError):
            IntegersMod(1)
        with pytest.raises(ValueError):
            Product(())


def oracle_power(a, e, spec):
    out = (1,) + (0,) * (spec.k - 1)
    while e:
        if e & 1:
            out = oracle_mul(out, a, spec)
        a, e = oracle_mul(a, a, spec), e >> 1
    return out


def oracle_generator(spec):
    """The lexicographically smallest payload whose powers g^((q-1)/l) differ
    from 1 for every prime l dividing q - 1 (the scan smallest_generator did
    on rings.mul before the field tables)."""
    q, one_ = spec.p**spec.k, (1,) + (0,) * (spec.k - 1)
    ells = [ell for ell in range(2, q) if (q - 1) % ell == 0 and is_prime(ell)]
    for cand in itertools.product(range(spec.p), repeat=spec.k):
        if any(cand) and cand != one_:
            if all(oracle_power(cand, (q - 1) // ell, spec) != one_ for ell in ells):
                return cand


def galois_fields(limit):
    return [GaloisField(p, k) for p in range(2, limit) if is_prime(p)
            for k in range(2, 20) if p**k <= limit]


class TestFieldTables:
    """GF(p^k) mul and inverse (log/exp tables up to FIELD_TABLE_LIMIT
    elements, polynomials above) against the schoolbook oracle."""

    @pytest.mark.parametrize("spec", galois_fields(256), ids=format_ring)
    def test_exhaustive_small_fields(self, spec):
        els = elements(spec)
        for a in els:
            inv = inverse(a)
            if any(a.payload):
                assert oracle_mul(a.payload, inv.payload, spec) == one(spec).payload
            else:
                assert inv is None
            for b in els:
                assert mul(a, b).payload == oracle_mul(a.payload, b.payload, spec)

    @pytest.mark.parametrize("text", ["GF(2^10)", "GF(3^5)", "GF(5^4)", "GF(2^13)"])
    def test_seeded_pairs(self, text):
        spec = parse_ring(text)
        assert (rings_mod._field_tables(spec.p, spec.k) is None) == (text == "GF(2^13)")
        rng = random.Random(8)
        uno = one(spec).payload
        for _ in range(2000):
            a, b = (tuple(rng.randrange(spec.p) for _ in range(spec.k)) for _ in "ab")
            got = mul(RingElement(spec, a), RingElement(spec, b)).payload
            assert got == oracle_mul(a, b, spec)
            inv = inverse(RingElement(spec, a))
            assert (inv is None) == (not any(a))
            assert inv is None or oracle_mul(a, inv.payload, spec) == uno

    @pytest.mark.parametrize("spec", galois_fields(2**12), ids=format_ring)
    def test_exp_lists_the_powers_of_the_generator_twice(self, spec):
        # named for the doubled exp table this once checked: els now lists each power once
        t = rings_mod._field_tables(spec.p, spec.k)
        exp, q = [a.payload for a in t.els], spec.p**spec.k
        nonzero = set(itertools.product(range(spec.p), repeat=spec.k)) - {(0,) * spec.k}
        assert len(exp) == q - 1 and set(exp) == nonzero
        g = smallest_generator(spec)
        assert exp[0] == one(spec).payload and exp[1] == g
        assert all(oracle_mul(x, g, spec) == y for x, y in zip(exp, exp[1:] + exp[:1]))
        assert len(t.log) == q - 1 and all(exp[i] == a for a, i in t.log.items())

    def test_smallest_generator_matches_the_scan(self):
        specs = galois_fields(2**10 + 1)
        assert len(specs) == 26
        for spec in specs:
            assert smallest_generator(spec) == oracle_generator(spec)


class TestFieldAddition:
    """GF(p^k) add and neg (Zech logarithms up to FIELD_TABLE_LIMIT elements,
    coefficients above) and D(p) add and neg against the coefficient oracle."""

    @staticmethod
    def check(a, b, spec):
        assert add(a, b).payload == oracle_add(a.payload, b.payload, spec)
        assert (a - b).payload == oracle_add(a.payload, oracle_neg(b.payload, spec), spec)
        assert neg(a).payload == oracle_neg(a.payload, spec)
        assert (a == zero(a.ring)) == (not any(a.payload))

    @pytest.mark.parametrize(
        "spec", galois_fields(256) + [DualNumbers(2), DualNumbers(13)], ids=format_ring
    )
    def test_exhaustive_small_rings(self, spec):
        els = elements(spec)
        z, u = zero(spec), one(spec)
        assert z is zero(spec) and u is one(spec)
        assert z.payload == (0,) * len(z.payload) and u.payload[0] == 1 and not any(u.payload[1:])
        for a in els:
            assert add(a, z) == add(z, a) == mul(a, u) == a
            assert mul(a, z) == z and a + neg(a) == zero(a.ring)
            for b in els:
                self.check(a, b, spec)

    @pytest.mark.parametrize("text", ["GF(2^10)", "GF(3^5)", "GF(5^4)", "GF(2^13)"])
    def test_seeded_pairs(self, text):
        spec = parse_ring(text)
        assert (rings_mod._field_tables(spec.p, spec.k) is None) == (text == "GF(2^13)")
        rng = random.Random(9)
        for _ in range(2000):
            a, b = (tuple(rng.randrange(spec.p) for _ in range(spec.k)) for _ in "ab")
            self.check(RingElement(spec, a), RingElement(spec, b), spec)

    @pytest.mark.parametrize("spec", galois_fields(2**12), ids=format_ring)
    def test_zech_table(self, spec):
        log, zech, neg_one, els = rings_mod._field_tables(spec.p, spec.k)
        q, exp = spec.p**spec.k, [a.payload for a in els]
        assert len(zech) == len(exp) == q - 1 and zech.count(None) == 1
        assert zech.index(None) == neg_one == (0 if spec.p == 2 else (q - 1) // 2)
        uno = (1,) + (0,) * (spec.k - 1)
        for n, x in enumerate(exp):
            want = oracle_add(x, uno, spec)
            assert not any(want) if zech[n] is None else exp[zech[n]] == want

    @pytest.mark.parametrize("text", ["GF(4)", "GF(2^8)", "GF(3^5)", "GF(2^13)"])
    def test_results_are_over_the_parsed_spec(self, text):
        spec = parse_ring(text)
        assert spec is parse_ring(text) is galois_field(spec.p, spec.k)
        rng = random.Random(3)
        for _ in range(50):
            a, b = (RingElement(spec, tuple(rng.randrange(spec.p) for _ in range(spec.k))) for _ in "ab")
            for got in (add(a, b), a - b, neg(a), mul(a, b), a - a, mul(a, zero(spec)), inverse(a)):
                assert got is None or got.ring is spec


class TestResultOwner:
    """Results over rings without shared elements (products and rings above
    FIELD_TABLE_LIMIT) are over the spec object given, even after an equal
    spec of another object was used first."""

    @pytest.mark.parametrize("op", [zero, one])
    def test_zero_and_one_after_an_equal_fresh_spec(self, op):
        fresh, other, parsed = GaloisField(2, 13), GaloisField(2, 13), parse_ring("GF(2^13)")
        assert op(fresh).ring is fresh
        assert op(other).ring is other and op(parsed).ring is parsed

    def test_inverse_after_one_of_an_equal_fresh_spec(self):
        fresh, parsed = GaloisField(2, 13), parse_ring("GF(2^13)")
        one(fresh)
        a = RingElement(parsed, (0, 1) + (0,) * 11)
        assert inverse(a).ring is parsed and mul(a, inverse(a)) == one(parsed)

    def test_product_results_after_an_equal_fresh_product(self):
        fresh, other = (Product((GF4, IntegersMod(9))) for _ in "ab")
        a = element(other, ((1, 1), 2))
        for spec in (fresh, other):
            b = element(spec, ((0, 1), 4))
            for got in (zero(spec), one(spec), add(b, b), mul(b, b), neg(b), inverse(b)):
                assert got.ring is spec
        assert mul(a, inverse(a)).ring is other


HOM_CHECKS = [rings_mod._verify_hom_table, verify_hom_table_all_pairs]
HOM_CHECK_IDS = ["generators", "all_pairs"]
FORGED_PAIRS = [("GF(2^3)", "GF(2^6)"), ("GF(2^2)", "GF(2^4)"), ("GF(3)", "D(3)")]


def inclusion_table(src_text, dst_text):
    source, target = parse_ring(src_text), parse_ring(dst_text)
    return source, target, dict(subring_inclusion(source, target).table)


def shifted_coset(source, table):
    """table with the coset x^(m-1) + GF(p) moved by one: a -> f(a + 1) on it.
    f(a + 1) = f(a) + 1 still holds everywhere, but additivity over x fails."""
    p, m = source.p, source.k
    coset = [(c,) + (0,) * (m - 2) + (1,) for c in range(p)]
    out = dict(table)
    for a in coset:
        out[a] = table[((a[0] + 1) % p,) + a[1:]]
    return out


class TestHomTableCheck:
    """rings._verify_hom_table checks the laws on the source's additive
    generators; the all-pairs oracle checks them on every pair.  Both must
    reject every forgery and accept every true inclusion."""

    @pytest.mark.parametrize("check", HOM_CHECKS, ids=HOM_CHECK_IDS)
    @pytest.mark.parametrize("pair", FORGED_PAIRS, ids="->".join)
    def test_hom_table_rejects_every_single_entry_forgery(self, pair, check):
        source, target, table = inclusion_table(*pair)
        check(source, target, table)
        payloads = [b.payload for b in elements(target)]
        forged = 0
        for a, fa in table.items():
            for v in payloads:
                if v != fa:
                    with pytest.raises(ValueError):
                        check(source, target, {**table, a: v})
                    forged += 1
        assert forged == len(table) * (len(payloads) - 1)

    @pytest.mark.parametrize("check", HOM_CHECKS, ids=HOM_CHECK_IDS)
    @pytest.mark.parametrize("pair", FORGED_PAIRS, ids="->".join)
    def test_hom_table_rejects_moving_zero_or_one(self, pair, check):
        source, target, table = inclusion_table(*pair)
        z, u = zero(source).payload, one(source).payload
        swapped = {**table, z: table[u], u: table[z]}
        with pytest.raises(ValueError, match="preserve zero"):
            check(source, target, swapped)
        x = next(a for a in table if a not in (z, u))
        with pytest.raises(ValueError, match="preserve one"):
            check(source, target, {**table, u: table[x], x: table[u]})

    @pytest.mark.parametrize("check", HOM_CHECKS, ids=HOM_CHECK_IDS)
    @pytest.mark.parametrize("pair", FORGED_PAIRS + [("GF(3^2)", "GF(3^4)")], ids="->".join)
    def test_hom_table_accepts_the_frobenius_twist(self, pair, check):
        source, target, table = inclusion_table(*pair)
        ops = arithmetic(target)
        twisted = {}
        for a, fa in table.items():
            y = power = ops.element(fa)
            for _ in range(source.p - 1):
                power = mul(power, y)
            twisted[a] = power.payload
        assert isinstance(source, PrimeField) or twisted != table
        check(source, target, twisted)

    @pytest.mark.parametrize("check", HOM_CHECKS, ids=HOM_CHECK_IDS)
    @pytest.mark.parametrize("pair", [("GF(2^3)", "GF(2^6)"), ("GF(3^3)", "GF(3^6)")], ids="->".join)
    def test_hom_table_rejects_a_linear_map_that_is_not_multiplicative(self, pair, check):
        # L(x^2) = f(x^2) + f(x) keeps L additive, injective and unital
        source, target, table = inclusion_table(*pair)
        basis = [table[(0,) * j + (1,) + (0,) * (2 - j)] for j in range(3)]
        basis[2] = oracle_add(basis[2], basis[1], target)
        linear = {}
        for a in table:
            img = (0,) * target.k
            for c, b in zip(a, basis):
                for _ in range(c):
                    img = oracle_add(img, b, target)
            linear[a] = img
        assert len(set(linear.values())) == len(linear)
        with pytest.raises(ValueError, match="not multiplicative"):
            check(source, target, linear)

    @pytest.mark.parametrize("check", HOM_CHECKS, ids=HOM_CHECK_IDS)
    @pytest.mark.parametrize("pair", [("GF(2^3)", "GF(2^6)"), ("GF(3^2)", "GF(3^4)")], ids="->".join)
    def test_hom_table_rejects_a_map_additive_only_over_one(self, pair, check):
        source, target, table = inclusion_table(*pair)
        with pytest.raises(ValueError, match="not (additive|multiplicative)"):
            check(source, target, shifted_coset(source, table))

    @pytest.mark.parametrize("pair", [("GF(2)", "GF(2^5)"), ("GF(2^5)", "GF(2^10)"), ("GF(5^2)", "GF(5^4)"),
                                      ("GF(3)", "GF(3^5)"), ("GF(13)", "D(13)")], ids="->".join)
    def test_hom_table_checks_agree_on_the_built_inclusions(self, pair):
        source, target, table = inclusion_table(*pair)
        for check in HOM_CHECKS:
            check(source, target, table)

    @pytest.mark.parametrize("pair", [("GF(2^2)", "GF(2^4)"), ("GF(2^2)", "GF(2^6)"), ("GF(2^3)", "GF(2^6)"),
                                      ("GF(2^4)", "GF(2^8)"), ("GF(3^2)", "GF(3^4)"), ("GF(5^2)", "GF(5^2)"),
                                      ("GF(3^3)", "GF(3^6)"), ("GF(7^2)", "GF(7^4)"), ("GF(3^4)", "GF(3^8)")],
                             ids="->".join)
    def test_inclusion_sends_x_to_the_smallest_root_of_the_modulus(self, pair):
        source, target = parse_ring(pair[0]), parse_ring(pair[1])
        roots = []
        for a in itertools.product(range(target.p), repeat=target.k):
            acc = (0,) * target.k
            for c in reversed(source.modulus):  # Horner on the coefficient oracles
                acc = oracle_add(oracle_mul(acc, a, target), (c,) + (0,) * (target.k - 1), target)
            if not any(acc):
                roots.append(a)
        assert len(roots) == source.k
        x = (0, 1) + (0,) * (source.k - 2)
        assert subring_inclusion(source, target).table[x] == min(roots)

    def test_inclusion_above_the_table_limit_against_the_oracle(self):
        source, target = parse_ring("GF(2^7)"), parse_ring("GF(2^14)")
        assert rings_mod._field_tables(2, 14) is None
        table = subring_inclusion(source, target).table
        assert len(set(table.values())) == len(table) == 128
        assert table[one(source).payload] == one(target).payload
        rng = random.Random(14)
        payloads = list(table)
        for _ in range(500):
            a, b = rng.choice(payloads), rng.choice(payloads)
            assert table[oracle_add(a, b, source)] == oracle_add(table[a], table[b], target)
            assert table[oracle_mul(a, b, source)] == oracle_mul(table[a], table[b], target)


class TestCountedWork:
    """Products by schoolbook multiplication, counted through rings._field_mul."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = [0]
        field_mul = rings_mod._field_mul

        def counted(*args, **kwargs):
            counter[0] += 1
            return field_mul(*args, **kwargs)

        monkeypatch.setattr(rings_mod, "_field_mul", counted)
        return counter

    @pytest.fixture
    def uncached_generator(self, monkeypatch):
        monkeypatch.setattr(rings_mod, "smallest_generator", rings_mod.smallest_generator.__wrapped__)

    def test_field_tables_of_gf_2_10(self, calls, uncached_generator):
        tables = rings_mod._field_tables.__wrapped__(2, 10)
        assert 0 < calls[0] <= 150
        assert [a.payload for a in tables.els] == [a.payload for a in rings_mod._field_tables(2, 10).els]

    def test_smallest_generator_is_found_once_per_field_value(self, calls):
        first = smallest_generator(GaloisField(2, 11))
        calls[0] = 0
        assert smallest_generator(GaloisField(2, 11)) == first and calls[0] == 0

    def test_inclusion_above_the_table_limit(self, calls, uncached_generator):
        subring_inclusion(galois_field(2, 7), galois_field(2, 14))
        assert 0 < calls[0] <= 3000

    def test_inclusion_evaluates_the_modulus_up_to_its_first_root(self, calls, uncached_generator):
        # the hom-table check makes q_src * m = 10,240 products; the root
        # search stops at the first root and takes the smallest of its m
        # Frobenius conjugates (13,505 calls in all here, 22,666 when the
        # modulus was evaluated at all 1,023 nonzero subfield elements)
        subring_inclusion(galois_field(2, 10), galois_field(2, 20))
        assert 0 < calls[0] <= 15_000

    def test_inclusion_computes_on_the_target_record(self, monkeypatch):
        # the public element operations check ownership and build elements per call
        counter = {}
        for name in ("add", "mul", "neg", "inverse"):
            def counted(*args, _op=getattr(rings_mod, name), _name=name):
                counter[_name] = counter.get(_name, 0) + 1
                return _op(*args)

            monkeypatch.setattr(rings_mod, name, counted)
        for pair in [(2, 4, 8), (3, 2, 4), (2, 7, 14)]:
            subring_inclusion(galois_field(*pair[:2]), galois_field(pair[0], pair[2]))
        assert counter == {}


def flat(a):
    """A payload with every product component replaced by its own payload."""
    return tuple(flat(c) for c in a.payload) if isinstance(a.ring, Product) else a.payload


class TestBoundArithmetic:
    """Each ring kind's Arithmetic record, whose value operations the public
    add, mul, neg and inverse and the record's vectors are built on, against
    the oracles of ring_oracle through encode and decode: every pair for rings
    of at most 64 elements, 2,000 seeded pairs above."""

    RINGS = ["GF(7)", "Z(12)", "Z(1000)", "D(5)", "D(13)", "GF(2^5)", "GF(2^8)", "GF(3^5)",
             "GF(2^13)", "GF(3^8)", "GF(4)x(Z(4)xD(2))", "GF(2^8)xGF(3^5)", "GF(2^13)xZ(9)"]

    @staticmethod
    def _elements(spec, seed):
        """Every element of a ring of at most 64, else zero and 2,000 seeded ones."""
        if ring_size(spec) <= 64:
            return elements(spec)
        rng = random.Random(seed)
        return [zero(spec)] + [random_element(spec, rng) for _ in range(2000)]

    @pytest.mark.parametrize("text", RINGS)
    def test_against_the_oracles(self, text):
        spec = parse_ring(text)
        r, want = arithmetic(spec), oracle_ops(spec)
        assert r is arithmetic(spec)
        z, u = r.decode(r.zero), r.decode(r.one)
        if ring_size(spec) <= 64:
            pairs = itertools.product(elements(spec), repeat=2)
        else:
            rng = random.Random(10)
            pairs = [(random_element(spec, rng), random_element(spec, rng)) for _ in range(2000)]
        for a, b in pairs:
            x, y = r.encode(a), r.encode(b)
            assert r.decode(x) == a == r.element(a.payload)
            assert want[0](a.payload, z.payload) == flat(a) == want[1](a.payload, u.payload)
            for got, expected in ((r.add(x, y), want[0](a.payload, b.payload)),
                                  (r.mul(x, y), want[1](a.payload, b.payload)),
                                  (r.neg(x), want[2](a.payload))):
                c = r.decode(got)
                assert c.ring == spec and flat(c) == expected and r.encode(c) == got

    @pytest.mark.parametrize("text", RINGS)
    def test_inv_against_the_oracle(self, text):
        # a * inv(a) = 1 by the oracle, and None exactly for the non-units:
        # D(p)'s with a0 = 0 and products' with a non-unit factor among them
        spec = parse_ring(text)
        r, times = arithmetic(spec), oracle_ops(spec)[1]
        uno, seen = flat(r.decode(r.one)), set()
        for a in self._elements(spec, 11):
            got, unit = r.inv(r.encode(a)), oracle_is_unit(spec, a.payload)
            assert (got is not None) == unit, a
            if unit:
                b = r.decode(got)
                assert b.ring == spec and times(a.payload, b.payload) == uno, a
            elif isinstance(spec, Product):
                seen.add(sum(not oracle_is_unit(f, x.payload) for f, x in zip(spec.factors, a.payload)))
            seen.add(("unit", unit))
        assert seen >= {("unit", True), ("unit", False)}
        assert not isinstance(spec, Product) or 1 in seen
        if isinstance(spec, DualNumbers):
            assert any(a.payload[0] == 0 for a in self._elements(spec, 11))

    def test_kept_on_the_spec_outside_equality_hash_and_repr(self):
        fresh, other = IntegersMod(77), IntegersMod(77)
        assert arithmetic(fresh) is arithmetic(fresh) is not arithmetic(other)
        assert fresh == other and hash(fresh) == hash(other) and repr(fresh) == "IntegersMod(n=77)"
        assert {fresh: 1}[other] == 1
        assert rings_mod._Spec.__slots__ == ("_arithmetic",)  # the one record a spec keeps

    @pytest.mark.parametrize("text, eliminates, field", [
        ("GF(2)", True, True), ("GF(5)", True, True), ("GF(4)", True, True), ("GF(2^13)", True, True),
        ("Z(2)", True, True), ("Z(5)", True, True), ("Z(4)", True, False), ("Z(27)", True, False),
        ("D(2)", False, False), ("D(3)", False, False), ("Z(6)", False, False), ("Z(12)", False, False),
        ("GF(2)xGF(3)", False, False), ("Z(4)xGF(3)", False, False),
    ])
    def test_elimination_exactly_over_fields_and_z_p_k(self, text, eliminates, field):
        r = arithmetic(parse_ring(text))
        assert [f is not None for f in (r.val, r.split, r.cancel)] == [eliminates] * 3 and r.field is field


def random_element(spec, rng):
    if isinstance(spec, Product):
        return RingElement(spec, tuple(random_element(f, rng) for f in spec.factors))
    if isinstance(spec, (PrimeField, IntegersMod)):
        return RingElement(spec, rng.randrange(ring_size(spec)))
    k = spec.k if isinstance(spec, GaloisField) else 2
    return RingElement(spec, tuple(rng.randrange(spec.p) for _ in range(k)))


class TestSharedElements:
    """Every non-product ring of at most FIELD_TABLE_LIMIT elements has one
    element object per value, which every operation returns."""

    RINGS = ["GF(2)", "GF(13)", "Z(12)", "Z(4096)", "D(13)", "GF(4)", "GF(2^8)", "GF(3^5)"]

    @staticmethod
    def _sample(spec):
        els = elements(spec)
        return els if len(els) <= 64 else random.Random(ring_size(spec)).sample(els, 40)

    @pytest.mark.parametrize("text", RINGS)
    def test_results_are_the_shared_elements(self, text):
        spec = parse_ring(text)
        shared = {a.payload: a for a in elements(spec)}
        ops = arithmetic(spec)
        sample = self._sample(spec)
        got = [zero(spec), one(spec)]
        for a in sample:
            got += [neg(a), ops.decode(ops.encode(a)), inverse(a), element(spec, a.payload),
                    parse_element(format_element(a), spec), ops.element(a.payload)]
            for b in sample:
                got += [add(a, b), mul(a, b), a - b]
        for r in got:
            assert r is None or r is shared[r.payload]

    @pytest.mark.parametrize("hom, pick", [
        (mod_reduction(IntegersMod(26), IntegersMod(13)), None),
        (mod_reduction(IntegersMod(13), PrimeField(13)), None),
        (dual_augmentation(13), None),
        (crt(Product((Z4, GF3)), Z12), None),
        (None, ("GF(2^5)", "GF(2^10)")),
    ], ids=["Z(26)->Z(13)", "Z(13)->GF(13)", "D(13)->GF(13)", "crt->Z(12)", "GF(2^5)->GF(2^10)"])
    def test_hom_images_are_the_shared_elements(self, hom, pick):
        hom = hom or subring_inclusion(*map(parse_ring, pick))
        shared = {a.payload: a for a in elements(hom.target)}
        for a in elements(hom.source):
            image = apply_hom(hom, a)
            assert image is shared[image.payload]

    @pytest.mark.parametrize("text", RINGS)
    def test_elements_is_a_new_list_each_call(self, text):
        spec = parse_ring(text)
        first, second = elements(spec), elements(spec)
        assert first is not second and first == second
        first.reverse()
        first[0] = None
        assert elements(spec) == second and elements(spec)[0] is zero(spec)

    @pytest.mark.parametrize("text, twin", [
        ("GF(13)", PrimeField(13)), ("Z(12)", IntegersMod(12)), ("D(13)", DualNumbers(13)),
        ("GF(2^8)", GaloisField(2, 8)),
    ])
    def test_an_equal_spec_of_another_object_gives_equal_results(self, text, twin):
        spec = parse_ring(text)
        assert twin == spec and twin is not spec
        assert all(a is b for a, b in zip(elements(twin), elements(spec)))
        for a in self._sample(spec):
            x = RingElement(twin, a.payload)
            assert add(x, x) == add(a, a) and mul(x, x) == mul(a, a) and neg(x) == neg(a)
            assert inverse(x) == inverse(a) and element(twin, a.payload) is element(spec, a.payload)

    @pytest.mark.parametrize("text", RINGS)
    def test_a_sum_with_the_negation_is_zero(self, text):
        spec = parse_ring(text)
        assert all(add(a, neg(a)) is zero(spec) for a in self._sample(spec))

    @pytest.mark.parametrize("text", ["GF(4)", "GF(2^8)", "GF(3^5)"])
    def test_field_tables_hold_the_shared_elements(self, text):
        spec = parse_ring(text)
        t = rings_mod._field_tables(spec.p, spec.k)
        shared = {a.payload: a for a in elements(spec)}
        assert len(t.els) == ring_size(spec) - 1 and all(a is shared[a.payload] for a in t.els)
        assert t.els[0] is one(spec)

    @pytest.mark.parametrize("text", ["Z(4097)", "GF(2^13)"])
    def test_larger_rings_still_construct_their_elements(self, text):
        spec = parse_ring(text)
        a, b = random_element(spec, random.Random(1)), random_element(spec, random.Random(2))
        assert add(a, b) == add(a, b) and add(a, b) is not add(a, b)
        assert mul(a, b) is not mul(a, b) and element(spec, a.payload) is not element(spec, a.payload)
        assert elements(spec)[5] == elements(spec)[5] and elements(spec)[5] is not elements(spec)[5]
        assert flat(add(a, b)) == oracle_ops(spec)[0](a.payload, b.payload)


def test_reimport_frees_old_classes():
    """Nothing outside the package keeps an earlier import's classes alive
    (typing.Union's cache did), so re-importing ringcode does not leak; the
    caches of galois_field, the shared elements and the field tables go with
    their module."""
    saved = {
        name: mod for name, mod in sys.modules.items()
        if name == "ringcode" or name.startswith("ringcode.")
    }

    def import_and_compute():
        rings = importlib.import_module("ringcode.rings")
        gf4 = rings.galois_field(2, 2)
        x = rings.element(gf4, (0, 1))  # x^2 = x + 1
        assert rings.add(rings.mul(x, x), rings.one(gf4)) == rings.add(x, rings.zero(gf4))
        return [weakref.ref(rings.PrimeField), weakref.ref(rings.RingElement)]

    refs = []
    try:
        for _ in range(3):
            for name in saved:
                sys.modules.pop(name, None)
            refs += import_and_compute()
    finally:
        for name in [m for m in sys.modules if m == "ringcode" or m.startswith("ringcode.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert [ref() for ref in refs] == [None] * 6
