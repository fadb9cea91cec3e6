"""The dominance quasi-order on commutative ring alphabets.

A ring S is dominated by R when every network with a scalar linear solution
over S also has one over R.  For direct products of finite fields the
relation is decided exactly by a divisor criterion: S is dominated by R iff
for every field factor GF(p^k) of R there is a factor GF(p^m) of S with the
same prime and m | k.  For Z(n) pairs it is decided by divisibility of the
moduli.  For other catalog pairs the engine applies a fixed set of reduction
rules (dual numbers are equivalent to a prime field; Z(n) splits into its
prime-power parts; a product is dominated iff each of its factors dominates
the left side individually ... ) and answers Unknown when the rules do not
settle the pair, rather than guessing.

Definite verdicts carry certificates: small step objects naming the rule and
the arithmetic facts it used, so independent code can re-check them; see
``check_certificate``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import GuardExceeded
from .partitions import MAXIMAL_MAX_K, Partition, is_maximal, maximal_partitions
from .rings import (
    DualNumbers,
    ENUMERATION_GUARD,
    GaloisField,
    IntegersMod,
    PrimeField,
    Product,
    RingSpec,
    canonicalize,
    characteristic,
    factorize,
    format_ring,
    galois_field,
    is_prime,
    ring_size,
)


# ---------------------------------------------------------------------------
# partition rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PartitionRing:
    """A direct product of finite fields, one integer partition per prime."""

    assignment: tuple[tuple[int, Partition], ...]

    def __post_init__(self):
        pairs = tuple(sorted(self.assignment, key=lambda pa: pa[0]))
        primes = [p for p, _ in pairs]
        if not pairs:
            raise ValueError("a partition ring needs at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError("primes must be distinct")
        if any(not is_prime(p) for p in primes):
            raise ValueError("keys must be prime")
        object.__setattr__(self, "assignment", pairs)

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

    def __str__(self) -> str:
        return format_ring(self.spec())


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


def partition_ring_of(spec: RingSpec) -> PartitionRing:
    """View a product of finite fields as a PartitionRing."""
    flat = canonicalize(spec)
    factors = flat.factors if isinstance(flat, Product) else (flat,)
    pairs = []
    for f in factors:
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


@dataclass(frozen=True)
class FieldCriterion:
    """Divisor witnesses: (prime, right exponent, chosen left exponent)."""

    assignments: tuple[tuple[int, int, int], ...]

    def describe(self) -> str:
        body = ", ".join(f"GF({p}^{m}) into GF({p}^{k})" for p, k, m in self.assignments)
        return f"field factors embed pairwise: {body}"


@dataclass(frozen=True)
class FieldViolation:
    """A right-hand factor GF(prime^exponent) with no left divisor."""

    prime: int
    exponent: int
    available: tuple[int, ...]

    def describe(self) -> str:
        opts = "{" + ",".join(str(m) for m in self.available) + "}"
        return f"prime {self.prime} exponent {self.exponent} has no divisor in {opts}"


@dataclass(frozen=True)
class ModReductionStep:
    source_modulus: int
    target_modulus: int

    def describe(self) -> str:
        return f"residue reduction Z({self.source_modulus}) onto Z({self.target_modulus})"


@dataclass(frozen=True)
class SubfieldStep:
    p: int
    source_degree: int
    target_degree: int

    def describe(self) -> str:
        return f"GF({self.p}^{self.source_degree}) is a subfield of GF({self.p}^{self.target_degree})"


@dataclass(frozen=True)
class FactorSelection:
    """Projection onto one factor of the left-hand product suffices."""

    index: int
    factor: str

    def describe(self) -> str:
        return f"left factor #{self.index + 1} ({self.factor}) already maps in"


@dataclass(frozen=True)
class EquivalenceStep:
    rule: str
    detail: str

    def describe(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass(frozen=True)
class CharacteristicObstruction:
    """A characteristic-c witness family separates the two sides.

    There is a network family, indexed by c, solvable over exactly the rings
    whose characteristic divides c.  With c = witness_modulus the left side
    solves it and the right side does not.
    """

    witness_modulus: int
    left_char: int
    right_char: int

    def describe(self) -> str:
        return (
            f"characteristic witness c={self.witness_modulus}: "
            f"{self.left_char} | c but {self.right_char} does not divide c"
        )


@dataclass(frozen=True)
class Obligation:
    description: str

    def describe(self) -> str:
        return self.description


@dataclass(frozen=True)
class DominanceVerdict:
    relation: Relation
    certificate: tuple = ()

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


@dataclass(frozen=True)
class _Factor:
    kind: str  # _FIELD or _ZLOCAL
    p: int
    k: int

    def describe(self) -> str:
        if self.kind == _FIELD:
            return format_ring(galois_field(self.p, self.k))
        return f"Z({self.p ** self.k})"


def _catalog_factors(spec: RingSpec) -> tuple[tuple[_Factor, ...], tuple[EquivalenceStep, ...]]:
    """Decompose a catalog ring into dominance-equivalent atomic factors.

    Fields stay fields; D(p) collapses to GF(p); Z(n) splits via its prime
    powers, with Z(p) read as GF(p); Z(p^k) for k >= 2 stays a ``zlocal``
    atom, for which only one-sided dominance facts are available.
    """
    spec = canonicalize(spec)
    factors: list[_Factor] = []
    steps: list[EquivalenceStep] = []

    def walk(s: RingSpec):
        if isinstance(s, Product):
            for f in s.factors:
                walk(f)
        elif isinstance(s, PrimeField):
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

    walk(spec)
    return tuple(factors), tuple(steps)


def _characteristic(factors: Sequence[_Factor]) -> int:
    """char of the ring the factors stand for: the lcm of p (fields) and p^k."""
    return math.lcm(*(f.p**f.k if f.kind == _ZLOCAL else f.p for f in factors))


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


def _dominates_single_target(
    s_factors: tuple[_Factor, ...], target: _Factor
) -> DominanceVerdict:
    # a single dominated left factor settles the pair: every network the
    # product solves is solved by each factor alone
    for i, f in enumerate(s_factors):
        chain = _single_factor_dominated(f, target)
        if chain is not None:
            steps: list = []
            if len(s_factors) > 1:
                steps.append(FactorSelection(i, f.describe()))
            steps.extend(chain)
            return _dominates(steps)

    return _unknown(
        f"no rule settles this left side against {target.describe()}"
    )


def catalog_dominates(s: RingSpec, r: RingSpec) -> DominanceVerdict:
    """Rule-engine dominance decision for arbitrary catalog rings.

    Answers Dominates or NotDominates only when the reduction rules certify
    it; all other pairs come back Unknown with the unresolved obligation
    named.  Pairs of field products are always decided, and any other pair
    in which char(R) does not divide char(S) is NotDominates by the
    characteristic rule of zmod_dominates.
    """
    s_factors, s_steps = _catalog_factors(s)
    r_factors, r_steps = _catalog_factors(r)

    if all(f.kind == _FIELD for f in s_factors) and all(
        f.kind == _FIELD for f in r_factors
    ):
        left = to_partition_ring([(f.p, f.k) for f in s_factors])
        right = to_partition_ring([(f.p, f.k) for f in r_factors])
        inner = field_product_dominates(left, right)
        return DominanceVerdict(
            inner.relation, tuple(s_steps) + tuple(r_steps) + inner.certificate
        )

    collected: list = list(s_steps) + list(r_steps)
    s_char, r_char = _characteristic(s_factors), _characteristic(r_factors)
    if s_char % r_char:  # the characteristic-char(S) family separates them
        obstruction = CharacteristicObstruction(s_char, s_char, r_char)
        return DominanceVerdict(Relation.NOT_DOMINATES, (*collected, obstruction))
    pending: list[str] = []
    for target in r_factors:
        verdict = _dominates_single_target(s_factors, target)
        if verdict.relation is Relation.UNKNOWN:
            pending.append(verdict.certificate[0].description)
        else:
            collected.extend(verdict.certificate)
    if pending:
        return _unknown(pending[0])
    return _dominates(collected)


# ---------------------------------------------------------------------------
# maximal rings
# ---------------------------------------------------------------------------


def is_maximal_ring(spec: RingSpec) -> bool:
    """True iff the ring is a product of finite fields whose per-prime
    exponent partitions are all maximal (Z(n) for square-free n counts as the
    product of the prime fields GF(p) for p | n)."""
    flat = canonicalize(spec)
    factors = flat.factors if isinstance(flat, Product) else (flat,)
    pairs = []
    for f in factors:
        if isinstance(f, PrimeField):
            pairs.append((f.p, 1))
        elif isinstance(f, GaloisField):
            pairs.append((f.p, f.k))
        elif isinstance(f, IntegersMod):
            fac = factorize(f.n)
            if any(e > 1 for _, e in fac):
                return False
            pairs.extend((p, 1) for p, _ in fac)
        else:
            return False
    pr = to_partition_ring(pairs)
    return all(is_maximal(part) for _, part in pr.assignment)


def maximal_rings(m_factored: Sequence[tuple[int, int]]) -> list[PartitionRing]:
    """All maximal commutative rings of size prod p_i^k_i, as partition rings.

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
    pairs = sorted(m_factored)
    choices = {p: maximal_partitions(k) for p, k in pairs}
    ordered_primes = [p for p, _ in pairs]
    out = []
    for combo in itertools.product(
        *(choices[p] for p in reversed(ordered_primes))
    ):
        assignment = tuple(zip(reversed(ordered_primes), combo))
        out.append(PartitionRing(assignment))
    return out


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

    For a NotDominates verdict the single violation is rechecked (the cited
    right-hand factor really has no divisor on the left, or the cited
    characteristic really separates the sides).  For a Dominates verdict
    every step's arithmetic claim is rechecked against independently
    recomputed factor data, and every right-hand factor must be accounted
    for by some terminal step.  Unknown verdicts carry no claim.
    """
    if verdict.relation is Relation.UNKNOWN:
        return bool(verdict.certificate) and isinstance(
            verdict.certificate[0], Obligation
        )
    s_factors, _ = _catalog_factors(s)
    r_factors, _ = _catalog_factors(r)
    s_fields = [(f.p, f.k) for f in s_factors if f.kind == _FIELD]

    if verdict.relation is Relation.NOT_DOMINATES:
        last = verdict.certificate[-1]
        if isinstance(last, FieldViolation):
            if any(f.kind != _FIELD for f in s_factors):
                return False
            if any(
                p == last.prime and last.exponent % m == 0 for p, m in s_fields
            ):
                return False
            return (last.prime, last.exponent) in [
                (f.p, f.k) for f in r_factors if f.kind == _FIELD
            ]
        if isinstance(last, CharacteristicObstruction):
            c = last.witness_modulus
            return c % characteristic(s) == 0 and c % characteristic(r) != 0
        return False

    steps = verdict.certificate
    for step in steps:
        if isinstance(step, FieldCriterion):
            for p, k, m in step.assignments:
                if (p, m) not in s_fields or k % m != 0:
                    return False
                if (p, k) not in [(f.p, f.k) for f in r_factors if f.kind == _FIELD]:
                    return False
        elif isinstance(step, SubfieldStep):
            if step.target_degree % step.source_degree != 0:
                return False
        elif isinstance(step, ModReductionStep):
            if step.source_modulus % step.target_modulus != 0:
                return False
        elif isinstance(step, FactorSelection):
            if not 0 <= step.index < len(s_factors):
                return False
        elif isinstance(step, EquivalenceStep):
            if step.rule not in {"dual-numbers", "crt-split", "prime-modulus-field"}:
                return False
        else:
            return False

    # every right-hand factor needs a terminal step justifying it
    for f in r_factors:
        if f.kind == _FIELD:
            ok = any(
                isinstance(st, FieldCriterion)
                and any(p == f.p and k == f.k for p, k, _ in st.assignments)
                for st in steps
            ) or any(
                isinstance(st, SubfieldStep)
                and st.p == f.p
                and st.target_degree == f.k
                for st in steps
            ) or (
                f.k == 1
                and any(
                    isinstance(st, ModReductionStep) and st.target_modulus == f.p
                    for st in steps
                )
            )
        else:
            ok = any(
                isinstance(st, ModReductionStep)
                and st.target_modulus == f.p**f.k
                for st in steps
            )
        if not ok:
            return False
    return True
