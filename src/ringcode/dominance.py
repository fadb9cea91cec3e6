"""The dominance quasi-order on commutative ring alphabets.

A ring S is dominated by R when every network with a scalar linear solution
over S also has one over R.  For direct products of finite fields the
relation is decided exactly by a divisor criterion: S is dominated by R iff
for every field factor GF(p^k) of R there is a factor GF(p^m) of S with the
same prime and m | k.  For Z(n) pairs it is decided by divisibility of the
moduli.  Other catalog pairs are read through their atoms: fields, with D(p)
and Z(p) read as GF(p), and Z(p^k) for k >= 2, Z(n) split by its prime
powers.  S is dominated by R when each atom of R is dominated by one atom of
S; a characteristic witness settles a pair as NotDominates, and a pair the
rules do not settle is Unknown rather than a guess.  Maximal rings are
products of fields, one maximal partition per prime (``maximal_rings``).

Definite verdicts carry certificates: small step objects naming the rule and
the arithmetic facts it used, so independent code can re-check them in one
pass; see ``check_certificate``.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Iterable, Iterator, Sequence

from ._record import Frozen, _set
from .errors import GuardExceeded
from .partitions import MAXIMAL_MAX_K, Partition, is_maximal, maximal_partitions
from .rings import (
    DualNumbers,
    ENUMERATION_GUARD,
    GaloisField,
    PrimeField,
    Product,
    RingSpec,
    canonicalize,
    characteristic,
    factorize,
    format_ring,
    galois_field,
    is_prime,
    prime_power,
    ring_size,
)


# ---------------------------------------------------------------------------
# partition rings
# ---------------------------------------------------------------------------


class PartitionRing(Frozen):
    """A direct product of finite fields, one integer partition per prime."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: tuple[tuple[int, Partition], ...]):
        pairs = tuple(sorted(assignment, key=lambda pa: pa[0]))
        primes = [p for p, _ in pairs]
        if not pairs:
            raise ValueError("a partition ring needs at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError("primes must be distinct")
        if any(not is_prime(p) for p in primes):
            raise ValueError("keys must be prime")
        _set(self, "assignment", pairs)

    @property
    def size(self) -> int:
        out = 1
        for p, part in self.assignment:
            out *= p**part.total
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.assignment)

    def partition_for(self, p: int) -> Partition:
        for q, part in self.assignment:
            if q == p:
                return part
        raise KeyError(p)

    def field_factors(self) -> tuple[tuple[int, int], ...]:
        """(prime, exponent) per field factor, primes ascending, parts in order."""
        return tuple(
            (p, a) for p, part in self.assignment for a in part.parts
        )

    def spec(self) -> RingSpec:
        factors = tuple(galois_field(p, a) for p, a in self.field_factors())
        return factors[0] if len(factors) == 1 else Product(factors)

    def __str__(self) -> str:  # format_ring(self.spec()), without building the fields
        return "x".join(f"GF({p}^{a})" if a > 1 else f"GF({p})" for p, a in self.field_factors())


def to_partition_ring(fields: Sequence[tuple[int, int]]) -> PartitionRing:
    """Group (prime, exponent) field factors into one partition per prime."""
    if not fields:
        raise ValueError("need at least one field factor")
    grouped: dict[int, list[int]] = {}
    for p, k in fields:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponents must be positive")
        grouped.setdefault(p, []).append(k)
    return PartitionRing(
        tuple((p, Partition(tuple(ks))) for p, ks in sorted(grouped.items()))
    )


def _canonical_factors(spec: RingSpec) -> tuple[RingSpec, ...]:
    flat = canonicalize(spec)
    return flat.factors if isinstance(flat, Product) else (flat,)


def partition_ring_of(spec: RingSpec) -> PartitionRing:
    """View a product of finite fields as a PartitionRing."""
    pairs = []
    for f in _canonical_factors(spec):
        if isinstance(f, PrimeField):
            pairs.append((f.p, 1))
        elif isinstance(f, GaloisField):
            pairs.append((f.p, f.k))
        else:
            raise ValueError(f"{format_ring(f)} is not a finite field")
    return to_partition_ring(pairs)


# ---------------------------------------------------------------------------
# verdicts and certificates
# ---------------------------------------------------------------------------


class Relation(Enum):
    DOMINATES = "dominates"
    NOT_DOMINATES = "not_dominates"
    UNKNOWN = "unknown"


class FieldCriterion(Frozen):
    """Divisor witnesses: (prime, right exponent, chosen left exponent)."""

    __slots__ = ("assignments",)

    def __init__(self, assignments: tuple[tuple[int, int, int], ...]):
        _set(self, "assignments", assignments)

    def describe(self) -> str:
        body = ", ".join(f"GF({p}^{m}) into GF({p}^{k})" for p, k, m in self.assignments)
        return f"field factors embed pairwise: {body}"


class FieldViolation(Frozen):
    """A right-hand factor GF(prime^exponent) with no left divisor."""

    __slots__ = ("prime", "exponent", "available")

    def __init__(self, prime: int, exponent: int, available: tuple[int, ...]):
        _set(self, "prime", prime)
        _set(self, "exponent", exponent)
        _set(self, "available", available)

    def describe(self) -> str:
        opts = "{" + ",".join(str(m) for m in self.available) + "}"
        return f"prime {self.prime} exponent {self.exponent} has no divisor in {opts}"


class ModReductionStep(Frozen):
    __slots__ = ("source_modulus", "target_modulus")

    def __init__(self, source_modulus: int, target_modulus: int):
        _set(self, "source_modulus", source_modulus)
        _set(self, "target_modulus", target_modulus)

    def describe(self) -> str:
        return f"residue reduction Z({self.source_modulus}) onto Z({self.target_modulus})"


class SubfieldStep(Frozen):
    __slots__ = ("p", "source_degree", "target_degree")

    def __init__(self, p: int, source_degree: int, target_degree: int):
        _set(self, "p", p)
        _set(self, "source_degree", source_degree)
        _set(self, "target_degree", target_degree)

    def describe(self) -> str:
        return f"GF({self.p}^{self.source_degree}) is a subfield of GF({self.p}^{self.target_degree})"


class FactorSelection(Frozen):
    """Projection onto one factor of the left-hand product suffices."""

    __slots__ = ("index", "factor")

    def __init__(self, index: int, factor: str):
        _set(self, "index", index)
        _set(self, "factor", factor)

    def describe(self) -> str:
        return f"left factor #{self.index + 1} ({self.factor}) already maps in"


class EquivalenceStep(Frozen):
    __slots__ = ("rule", "detail")

    def __init__(self, rule: str, detail: str):
        _set(self, "rule", rule)
        _set(self, "detail", detail)

    def describe(self) -> str:
        return f"{self.rule}: {self.detail}"


class CharacteristicObstruction(Frozen):
    """A characteristic-c witness family separates the two sides.

    There is a network family, indexed by c, solvable over exactly the rings
    whose characteristic divides c.  With c = witness_modulus the left side
    solves it and the right side does not.
    """

    __slots__ = ("witness_modulus", "left_char", "right_char")

    def __init__(self, witness_modulus: int, left_char: int, right_char: int):
        _set(self, "witness_modulus", witness_modulus)
        _set(self, "left_char", left_char)
        _set(self, "right_char", right_char)

    def describe(self) -> str:
        return (
            f"characteristic witness c={self.witness_modulus}: "
            f"{self.left_char} | c but {self.right_char} does not divide c"
        )


class Obligation(Frozen):
    __slots__ = ("description",)

    def __init__(self, description: str):
        _set(self, "description", description)

    def describe(self) -> str:
        return self.description


class DominanceVerdict(Frozen):
    __slots__ = ("relation", "certificate")

    def __init__(self, relation: Relation, certificate: tuple = ()):
        _set(self, "relation", relation)
        _set(self, "certificate", certificate)

    def describe(self) -> str:
        if not self.certificate:
            return self.relation.value
        return "; ".join(step.describe() for step in self.certificate)


def _dominates(steps: Iterable) -> DominanceVerdict:
    return DominanceVerdict(Relation.DOMINATES, tuple(steps))


def _not_dominates(violation) -> DominanceVerdict:
    return DominanceVerdict(Relation.NOT_DOMINATES, (violation,))


def _unknown(text: str) -> DominanceVerdict:
    return DominanceVerdict(Relation.UNKNOWN, (Obligation(text),))


# ---------------------------------------------------------------------------
# exact fragments: field products and Z(n) pairs
# ---------------------------------------------------------------------------


def field_product_dominates(s: PartitionRing, r: PartitionRing) -> DominanceVerdict:
    """Exact dominance test between products of finite fields.

    S is dominated by R iff every field factor GF(p^k) of R has a factor
    GF(p^m) of S with the same prime p and m | k.  Sizes need not match.
    Never returns Unknown.
    """
    s_parts = {p: part.parts for p, part in s.assignment}
    assignments = []
    for p, k in r.field_factors():
        available = s_parts.get(p, ())
        chosen = next((m for m in available if k % m == 0), None)
        if chosen is None:
            return _not_dominates(FieldViolation(p, k, available))
        assignments.append((p, k, chosen))
    return _dominates([FieldCriterion(tuple(assignments))])


def zmod_dominates(n: int, m: int) -> DominanceVerdict:
    """Z(n) is dominated by Z(m) iff m divides n."""
    if n < 2 or m < 2:
        raise ValueError("moduli must be at least 2")
    if n % m == 0:
        return _dominates([ModReductionStep(n, m)])
    return _not_dominates(CharacteristicObstruction(n, n, m))


# ---------------------------------------------------------------------------
# catalog rule engine
# ---------------------------------------------------------------------------

_FIELD = "field"
_ZLOCAL = "zlocal"


class _Factor(Frozen):
    __slots__ = ("kind", "p", "k")

    def __init__(self, kind: str, p: int, k: int):  # kind: _FIELD or _ZLOCAL
        _set(self, "kind", kind)
        _set(self, "p", p)
        _set(self, "k", k)

    def describe(self) -> str:
        if self.kind == _FIELD:
            return format_ring(galois_field(self.p, self.k))
        return f"Z({self.p ** self.k})"


def _catalog_factors(spec: RingSpec) -> tuple[tuple[_Factor, ...], tuple[EquivalenceStep, ...]]:
    """Decompose a catalog ring into dominance-equivalent atomic factors.

    The one walk from a catalog ring to its atoms, over canonicalize's flat
    factor list.  Fields stay fields; D(p) collapses to GF(p); Z(n) splits
    via its prime powers, with Z(p) read as GF(p); Z(p^k) for k >= 2 stays a
    ``zlocal`` atom, for which only one-sided dominance facts are available.
    """
    factors: list[_Factor] = []
    steps: list[EquivalenceStep] = []
    for s in _canonical_factors(spec):
        if isinstance(s, PrimeField):
            factors.append(_Factor(_FIELD, s.p, 1))
        elif isinstance(s, GaloisField):
            factors.append(_Factor(_FIELD, s.p, s.k))
        elif isinstance(s, DualNumbers):
            steps.append(
                EquivalenceStep(
                    "dual-numbers",
                    f"D({s.p}) and GF({s.p})xGF({s.p}) and GF({s.p}) all solve the same networks",
                )
            )
            factors.append(_Factor(_FIELD, s.p, 1))
        else:
            fac = factorize(s.n)
            if len(fac) > 1:
                split = "x".join(f"Z({p ** k})" for p, k in fac)
                steps.append(
                    EquivalenceStep("crt-split", f"Z({s.n}) is isomorphic to {split}")
                )
            for p, k in fac:
                if k == 1:
                    if len(fac) == 1:
                        steps.append(
                            EquivalenceStep(
                                "prime-modulus-field", f"Z({p}) is the field GF({p})"
                            )
                        )
                    factors.append(_Factor(_FIELD, p, 1))
                else:
                    factors.append(_Factor(_ZLOCAL, p, k))
    return tuple(factors), tuple(steps)


def _single_factor_dominated(f: _Factor, target: _Factor) -> list | None:
    """Certificate chain for `f` dominated by `target`, or None."""
    if target.kind == _FIELD:
        if f.kind == _FIELD:
            if f.p == target.p and target.k % f.k == 0:
                return [SubfieldStep(f.p, f.k, target.k)]
            return None
        if f.p == target.p:
            chain: list = [
                ModReductionStep(f.p**f.k, f.p),
                EquivalenceStep("prime-modulus-field", f"Z({f.p}) is the field GF({f.p})"),
            ]
            if target.k > 1:
                chain.append(SubfieldStep(f.p, 1, target.k))
            return chain
        return None
    # target is Z(p^k), k >= 2: only Z(p^j) with j >= k maps onto it
    if f.kind == _ZLOCAL and f.p == target.p and f.k >= target.k:
        return [ModReductionStep(f.p**f.k, target.p**target.k)]
    return None


def catalog_dominates(s: RingSpec, r: RingSpec) -> DominanceVerdict:
    """Rule-engine dominance decision for arbitrary catalog rings.

    Both sides are read as atoms (``_catalog_factors``).  Pairs of field
    products are always decided by the divisor criterion, and any other pair
    in which char(R) does not divide char(S) is NotDominates by the
    characteristic rule of zmod_dominates.  Otherwise every atom of R needs
    an atom of S that maps onto it; the first atom of R without one makes
    the pair Unknown, with that atom named as the unresolved obligation.
    """
    s_factors, s_steps = _catalog_factors(s)
    r_factors, r_steps = _catalog_factors(r)
    collected: list = [*s_steps, *r_steps]

    if all(f.kind == _FIELD for f in s_factors) and all(
        f.kind == _FIELD for f in r_factors
    ):
        left = to_partition_ring([(f.p, f.k) for f in s_factors])
        right = to_partition_ring([(f.p, f.k) for f in r_factors])
        inner = field_product_dominates(left, right)
        return DominanceVerdict(inner.relation, (*collected, *inner.certificate))

    s_char, r_char = characteristic(s), characteristic(r)
    if s_char % r_char:  # the characteristic-char(S) family separates them
        obstruction = CharacteristicObstruction(s_char, s_char, r_char)
        return DominanceVerdict(Relation.NOT_DOMINATES, (*collected, obstruction))
    for target in r_factors:
        # one dominated left factor settles a target: every network the
        # product solves is solved by each factor alone
        for i, f in enumerate(s_factors):
            chain = _single_factor_dominated(f, target)
            if chain is not None:
                break
        else:
            return _unknown(
                f"no rule settles this left side against {target.describe()}"
            )
        if len(s_factors) > 1:
            collected.append(FactorSelection(i, f.describe()))
        collected.extend(chain)
    return _dominates(collected)


# ---------------------------------------------------------------------------
# maximal rings
# ---------------------------------------------------------------------------


def is_maximal_ring(spec: RingSpec) -> bool:
    """True iff the ring is a product of finite fields whose per-prime
    exponent partitions are all maximal (Z(n) for square-free n counts as the
    product of the prime fields GF(p) for p | n).  A Z(p^k) factor, k >= 2,
    or a D(p) factor, whose atom GF(p) is smaller than it, rules it out."""
    factors, _ = _catalog_factors(spec)
    if any(f.kind == _ZLOCAL for f in factors):
        return False
    if math.prod(f.p**f.k for f in factors) < ring_size(spec):
        return False
    pr = to_partition_ring([(f.p, f.k) for f in factors])
    return all(is_maximal(part) for _, part in pr.assignment)


def maximal_rings(m_factored: Sequence[tuple[int, int]]) -> list[PartitionRing]:
    """All maximal commutative rings of size prod p_i^k_i: iter_maximal_rings as a list."""
    return list(iter_maximal_rings(m_factored))


def iter_maximal_rings(m_factored: Sequence[tuple[int, int]]) -> Iterator[PartitionRing]:
    """All maximal commutative rings of size prod p_i^k_i, as partition rings,
    each built as it is yielded; the guards run before the first.

    One ring per choice of a maximal partition for each prime.  Output order
    fixes the first prime's partition as the fastest-varying coordinate.
    """
    if not m_factored:
        raise ValueError("need at least one (prime, exponent) pair")
    primes = [p for p, _ in m_factored]
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p, k in m_factored:
        # the bound first: trial division of a large base takes seconds
        if p > ENUMERATION_GUARD:
            raise GuardExceeded(f"prime {p} exceeds {ENUMERATION_GUARD}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= k <= MAXIMAL_MAX_K:
            raise GuardExceeded(f"exponent {k} outside 1..{MAXIMAL_MAX_K}")
    pairs = sorted(m_factored, reverse=True)
    for combo in itertools.product(*(maximal_partitions(k) for _, k in pairs)):
        yield PartitionRing(tuple(zip((p for p, _ in pairs), combo)))


def smallest_field_refuge(spec: RingSpec, p: int) -> RingSpec:
    """A field GF(p^m) of characteristic p that dominates the ring.

    Every ring whose size is divisible by p is dominated by such a field.
    Among the ring's p-factors the one with the largest exponent is chosen
    (deterministically, first in canonical order on ties); a field factor
    contributes itself, a Z(p^k) factor contributes its residue field GF(p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if ring_size(spec) % p != 0:
        raise ValueError(f"{p} does not divide the ring size {ring_size(spec)}")
    factors, _ = _catalog_factors(spec)
    candidates = [f for f in factors if f.p == p]
    best = max(candidates, key=lambda f: f.k)
    if best.kind == _FIELD:
        return galois_field(p, best.k)
    return PrimeField(p)


def square_free_fields(n: int) -> list[RingSpec]:
    """The prime fields GF(p) for p | n; n must be square-free."""
    if n < 2:
        raise ValueError("n must be at least 2")
    fac = factorize(n)
    if any(k > 1 for _, k in fac):
        raise ValueError(f"{n} is not square-free")
    return [PrimeField(p) for p, _ in fac]


# ---------------------------------------------------------------------------
# certificate re-verification
# ---------------------------------------------------------------------------


def check_certificate(s: RingSpec, r: RingSpec, verdict: DominanceVerdict) -> bool:
    """Re-verify a definite verdict's certificate from first principles.

    For a NotDominates verdict the steps before the last must be equivalences
    under a known rule, and the last, the violation, is rechecked (the cited
    right-hand factor really has no divisor on the left, or the cited
    characteristic really separates the sides).  A Dominates certificate is
    checked in one pass over its steps: each step must start at an atom S
    has (a field factor, a Z(p^k) factor, or GF(p) as the residue field of
    such a factor; a residue reduction starts at a Z(p^k) factor), its
    arithmetic must divide, and a FactorSelection must name the left factor
    at its index.  The verdict holds iff the steps reach every atom of R.
    Unknown verdicts carry no claim.
    """
    if verdict.relation is Relation.UNKNOWN:
        return bool(verdict.certificate) and isinstance(verdict.certificate[0], Obligation)
    s_factors, _ = _catalog_factors(s)
    r_factors, _ = _catalog_factors(r)
    rules = {"dual-numbers", "crt-split", "prime-modulus-field"}  # the EquivalenceSteps _catalog_factors makes

    if verdict.relation is Relation.NOT_DOMINATES:
        *steps, last = verdict.certificate or (None,)
        if not all(isinstance(step, EquivalenceStep) and step.rule in rules for step in steps):
            return False
        if isinstance(last, FieldViolation):
            if any(f.kind != _FIELD for f in s_factors):
                return False
            if any(f.p == last.prime and last.exponent % f.k == 0 for f in s_factors):
                return False
            return _Factor(_FIELD, last.prime, last.exponent) in r_factors
        if isinstance(last, CharacteristicObstruction):
            c = last.witness_modulus
            return c % characteristic(s) == 0 and c % characteristic(r) != 0
        return False

    fields = {(f.p, f.k if f.kind == _FIELD else 1) for f in s_factors}
    moduli = {f.p**f.k for f in s_factors if f.kind == _ZLOCAL}
    reached: set[_Factor] = set()
    for step in verdict.certificate:
        if isinstance(step, (FieldCriterion, SubfieldStep)):
            claims = (
                step.assignments
                if isinstance(step, FieldCriterion)
                else ((step.p, step.target_degree, step.source_degree),)
            )
            for p, k, m in claims:
                if (p, m) not in fields or k % m:
                    return False
                reached.add(_Factor(_FIELD, p, k))
        elif isinstance(step, ModReductionStep):
            n, m = step.source_modulus, step.target_modulus
            if n not in moduli or m < 2 or n % m:
                return False
            p, k = prime_power(m)
            reached.add(_Factor(_FIELD if k == 1 else _ZLOCAL, p, k))
        elif isinstance(step, FactorSelection):
            if not 0 <= step.index < len(s_factors):
                return False
            if s_factors[step.index].describe() != step.factor:
                return False
        elif isinstance(step, EquivalenceStep):
            if step.rule not in rules:
                return False
        else:
            return False
    return reached.issuperset(r_factors)
