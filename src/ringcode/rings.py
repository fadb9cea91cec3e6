"""Exact arithmetic for a fixed catalog of finite commutative rings.

The catalog consists of prime fields GF(p), Galois fields GF(p^k) over the
lexicographically smallest irreducible modulus, integers modulo n, dual numbers
D(p) = GF(p)[x]/<x^2>, and finite direct products of these.  Every value is
immutable and every operation is a pure function, so everything here is safe
to share across threads.

Elements are canonically encoded (residues reduced, coefficient vectors in
little-endian order, i.e. constant term first) and enumerate in lexicographic
payload order; all iteration orders elsewhere in the package derive from that
order, which keeps outputs reproducible byte for byte.

GF(p^k) with at most FIELD_TABLE_LIMIT = 2**12 elements computes on logs to
its smallest generator g: log maps the payload of g^i to i, a product adds
logs mod q - 1, and the Zech logarithm zech[n] = log(1 + g^n) turns a sum into
g^i + g^j = g^(i + zech[j - i]).  The tables are built once per field, on
first use: the powers of g from g times each half-width digit block
(multiplying by g is GF(p)-linear), zech from them in O(q).  Larger fields
multiply by schoolbook polynomial products.

Every non-product ring of at most FIELD_TABLE_LIMIT elements (GF(p), Z(n),
D(p) and the table fields) has one tuple of its elements in lexicographic
order, built on first use and cached by ring value; a field's are over the
spec galois_field returns.  Arithmetic, zero, one, inverse, element,
parse_element and apply_hom return those shared elements and build none, and
the field tables' g^i are the same objects.  Products and larger rings build
their results, over the spec object they were given.

Each ring kind is defined once, in arithmetic(spec), a record built on first
use and kept on the spec outside its equality, hash and repr, the only one
a spec keeps.  It holds the ring's values (residues for GF(p) and Z(n), logs
with None for zero for the table fields, payloads for D(p) and larger
GF(p^k), tuples of the factors' values for products), encode and decode
between elements and values, zero, one, add, mul, neg and inv on values,
plus and scaled on vectors of values, and the Howell elimination's val,
split and cancel over fields and Z(p^k).  The public add, mul, neg and
inverse are decode(op(encode(a), ...)), add and mul after checking both
operands' ring; zero and one decode the record's.  network's verify and
decode_search, _kernel's search and the subfield inclusions compute on the
same record.  This module owns ring arithmetic, homomorphisms and the ring
and element text; the solver's modules only read the record.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import Callable, Iterator, NamedTuple

from ._record import Frozen, Keyed, _set
from .errors import GuardExceeded, ParseError

ENUMERATION_GUARD = 2**20
FIELD_TABLE_LIMIT = 2**12  # larger GF(p^k) multiply polynomials: the tables grow with q

# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """True iff n is a prime int; a bool or float never is."""
    if type(n) is not int or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as (prime, exponent) pairs, primes ascending."""
    if n < 2:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k if q is a prime power, else None."""
    fac = factorize(q) if q >= 2 else []
    return fac[0] if len(fac) == 1 else None


# ---------------------------------------------------------------------------
# polynomials over GF(p): tuples of ints, constant term first
# ---------------------------------------------------------------------------


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _poly_trim(tuple(a))


def poly_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) by trial division: no
    monic of degree 1 to deg // 2 divides it."""
    deg = len(f) - 1
    return deg >= 1 and all(_poly_mod(f, low + (1,), p) for d in range(1, deg // 2 + 1)
                            for low in itertools.product(range(p), repeat=d))


@functools.cache
def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Coefficients are ordered constant term first; the result is returned as a
    full coefficient tuple of length k + 1 (leading coefficient 1).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("degree must be positive")
    if p**k > ENUMERATION_GUARD:
        raise GuardExceeded(f"p^k = {p**k} exceeds {ENUMERATION_GUARD}")
    if k == 1:
        return (0, 1)
    # the constant term of an irreducible of degree >= 2 is nonzero, so the
    # lexicographic scan skips the whole c0 = 0 block
    for low in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        if poly_is_irreducible(coeffs := low + (1,), p):
            return coeffs
    raise RuntimeError("unreachable: irreducibles of every degree exist")


# ---------------------------------------------------------------------------
# ring specifications
# ---------------------------------------------------------------------------


class _Spec(Keyed):
    __slots__ = ("_arithmetic",)  # kept by arithmetic(spec); not a field


class PrimeField(_Spec):
    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"GF({p!r}): {p!r} is not prime")
        _set(self, "p", p)
        _set(self, "_key", (p,))


class GaloisField(_Spec):
    __slots__ = ("p", "k", "modulus")  # modulus: find_irreducible(p, k), as format_ring assumes

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"GF({p!r}^{k!r}): {p!r} is not prime")
        if type(k) is not int or k < 1:
            raise ValueError(f"GF({p}^{k!r}): degree must be positive and an int")
        if k == 1:
            raise ValueError(f"GF({p}^1): use galois_field(p, k) or PrimeField(p) for k = 1")
        self.__setstate__((p, k, find_irreducible(p, k)))


class IntegersMod(_Spec):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if type(n) is not int or n < 2:
            raise ValueError(f"modulus must be an integer of at least 2, got {n!r}")
        _set(self, "n", n)
        _set(self, "_key", (n,))


class DualNumbers(_Spec):
    """GF(p)[x]/<x^2>: pairs a + bx with x*x = 0."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"D({p!r}): {p!r} is not prime")
        _set(self, "p", p)
        _set(self, "_key", (p,))


class Product(_Spec):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple["RingSpec", ...]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        for f in factors:
            if not isinstance(f, _Spec):
                raise ValueError(f"product factor {f!r} is not a ring")
        _set(self, "factors", factors)
        _set(self, "_key", (factors,))


# PEP 604 unions: typing.Union's cache keeps the classes of every import alive
RingSpec = PrimeField | GaloisField | IntegersMod | DualNumbers | Product

Payload = int | tuple


@functools.cache
def galois_field(p: int, k: int) -> PrimeField | GaloisField:
    """GF(p^k) with the canonical (lex-smallest) modulus; GF(p) for k = 1.
    One spec object per (p, k), which parse_ring and the field tables share."""
    if k == 1:
        return PrimeField(p)
    return GaloisField(p, k)


def ring_size(spec: RingSpec) -> int:
    if isinstance(spec, PrimeField):
        return spec.p
    if isinstance(spec, GaloisField):
        return spec.p**spec.k
    if isinstance(spec, IntegersMod):
        return spec.n
    if isinstance(spec, DualNumbers):
        return spec.p**2
    return prod(ring_size(f) for f in spec.factors)


def characteristic(spec: RingSpec) -> int:
    """Smallest c >= 1 with c * 1 = 0."""
    if isinstance(spec, (PrimeField, GaloisField, DualNumbers)):
        return spec.p
    if isinstance(spec, IntegersMod):
        return spec.n
    return lcm(*(characteristic(f) for f in spec.factors))


def canonicalize(spec: RingSpec) -> RingSpec:
    """Flatten nested products and sort field factors by (prime, exponent desc).

    Non-field factors keep their input order after the field factors, and a
    product of one factor flattens to that factor.  Idempotent; non-product
    specs are returned unchanged.
    """
    if not isinstance(spec, Product):
        return spec
    flat: list[RingSpec] = []

    def walk(s: RingSpec):
        if isinstance(s, Product):
            for f in s.factors:
                walk(f)
        else:
            flat.append(s)

    walk(spec)
    fields = [f for f in flat if isinstance(f, (PrimeField, GaloisField))]
    rest = [f for f in flat if not isinstance(f, (PrimeField, GaloisField))]
    fields.sort(key=lambda f: (f.p, -(f.k if isinstance(f, GaloisField) else 1)))
    return flat[0] if len(flat) == 1 else Product(tuple(fields + rest))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class RingElement(Frozen):
    __slots__ = ("ring", "payload")

    def __init__(self, ring: RingSpec, payload: Payload):
        _set(self, "ring", ring)
        _set(self, "payload", payload)

    def __eq__(self, other):  # faster than Frozen's generic one: decode_search compares elements
        if type(other) is type(self):
            return (self.ring, self.payload) == (other.ring, other.payload)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(other))

    def __str__(self):
        return format_element(self)


def element(spec: RingSpec, payload: Payload) -> RingElement:
    """Validating constructor; arithmetic builds elements directly."""
    if isinstance(spec, (PrimeField, IntegersMod)):
        n = _modulus_of(spec)
        if type(payload) is not int or not 0 <= payload < n:  # a bool or float is no residue
            raise ValueError(f"residue {payload!r} out of range for modulus {n}")
    elif isinstance(spec, GaloisField):
        if not isinstance(payload, tuple) or len(payload) != spec.k:
            raise ValueError(f"payload must be a coefficient tuple of length {spec.k}")
        if any(type(c) is not int or not 0 <= c < spec.p for c in payload):
            raise ValueError("coefficient out of range")
    elif isinstance(spec, DualNumbers):
        if not isinstance(payload, tuple) or len(payload) != 2:
            raise ValueError("payload must be a pair (a, b) meaning a + bx")
        if any(type(c) is not int or not 0 <= c < spec.p for c in payload):
            raise ValueError("coefficient out of range")
    else:
        if not isinstance(payload, tuple) or len(payload) != len(spec.factors):
            raise ValueError("payload must be one element per factor")
        comps = []
        for f, c in zip(spec.factors, payload):
            if isinstance(c, RingElement):
                if c.ring != f:
                    raise ValueError("component owned by the wrong factor")
                element(f, c.payload)
                comps.append(c)
            else:
                comps.append(element(f, c))
        return RingElement(spec, tuple(comps))
    return arithmetic(spec).element(payload)


def zero(spec: RingSpec) -> RingElement:
    r = arithmetic(spec)
    return r.decode(r.zero)


def one(spec: RingSpec) -> RingElement:
    r = arithmetic(spec)
    return r.decode(r.one)


def elements(spec: RingSpec) -> list[RingElement]:
    """All elements exactly once, in lexicographic payload order."""
    size = ring_size(spec)
    if size > ENUMERATION_GUARD:
        raise GuardExceeded(f"ring size {size} exceeds {ENUMERATION_GUARD}")
    return list(_iter_elements(spec))


def _payloads(spec: RingSpec) -> Iterator[Payload]:
    """The payloads of a non-product spec in lexicographic order."""
    if isinstance(spec, (PrimeField, IntegersMod)):
        return iter(range(ring_size(spec)))
    return itertools.product(range(spec.p), repeat=spec.k if isinstance(spec, GaloisField) else 2)


def _iter_elements(spec: RingSpec) -> Iterator[RingElement]:
    if isinstance(spec, Product):
        combos = itertools.product(*map(_iter_elements, spec.factors))
    elif (els := _shared(spec)) is not None:
        return iter(els)
    else:
        combos = _payloads(spec)
    return map(functools.partial(RingElement, spec), combos)


@functools.cache  # by ring value: solves and homs build fresh equal specs
def _shared(spec: RingSpec) -> tuple[RingElement, ...] | None:
    """The elements of a non-product spec of at most FIELD_TABLE_LIMIT
    elements, in lexicographic payload order, built once and shared by every
    operation that returns one; None for products and larger rings.  A
    field's are over galois_field(p, k)."""
    if isinstance(spec, Product) or ring_size(spec) > FIELD_TABLE_LIMIT:
        return None
    if isinstance(spec, (PrimeField, GaloisField)):
        spec = galois_field(spec.p, getattr(spec, "k", 1))
    return tuple(map(functools.partial(RingElement, spec), _payloads(spec)))


def _check_owner(a: RingElement, spec: RingSpec):
    if a.ring is not spec and a.ring != spec:
        raise ValueError("elements belong to different rings")


def add(a: RingElement, b: RingElement) -> RingElement:
    _check_owner(b, a.ring)
    r = arithmetic(a.ring)
    return r.decode(r.add(r.encode(a), r.encode(b)))


def neg(a: RingElement) -> RingElement:
    r = arithmetic(a.ring)
    return r.decode(r.neg(r.encode(a)))


def mul(a: RingElement, b: RingElement) -> RingElement:
    _check_owner(b, a.ring)
    r = arithmetic(a.ring)
    return r.decode(r.mul(r.encode(a), r.encode(b)))


def inverse(a: RingElement) -> RingElement | None:
    """Multiplicative inverse if a is a unit, else None."""
    r = arithmetic(a.ring)
    x = r.inv(r.encode(a))
    return None if x is None else r.decode(x)


class Arithmetic(NamedTuple):
    """One ring's values and its operations on them, the only definition of
    each ring kind.  encode(a) is an element's value, decode(v) and
    element(payload) the element of a value or canonical payload: the shared
    one where the ring has them (see _shared), else a new one over the spec.
    add, mul, neg and inv (None for a non-unit) take and give values and
    check no ownership.  plus(u, v) and scaled(c, v) are the vectors u + v
    and c * v on tuples of values, which network's verify and decode_search
    and _kernel's search compute on: entry by entry, or a product's once per
    factor on the transposed vector, so each factor computes on its own
    values.  val, split and cancel are the Howell elimination's (see
    _kernel._first_decoders), with val(zero) the ring size, and field says
    every nonzero value is a unit; the three are None where there is no
    elimination: D(p), composite Z(n) and products."""

    encode: Callable[[RingElement], object]
    decode: Callable[[object], RingElement]
    element: Callable[[Payload], RingElement]
    zero: object
    one: object
    add: Callable
    mul: Callable
    neg: Callable
    inv: Callable
    plus: Callable
    scaled: Callable
    val: Callable | None = None
    split: Callable | None = None
    cancel: Callable | None = None
    field: bool = False


def arithmetic(spec: RingSpec) -> Arithmetic:
    """spec's Arithmetic, built on its first use and kept on spec, outside its
    equality, hash and repr."""
    try:
        return spec._arithmetic  # every public operation reads it
    except AttributeError:
        object.__setattr__(spec, "_arithmetic", r := _build_arithmetic(spec))
        return r


def _build_arithmetic(spec: RingSpec) -> Arithmetic:
    new, shared, payload = functools.partial(RingElement, spec), _shared(spec), operator.attrgetter("payload")
    if isinstance(spec, (PrimeField, IntegersMod)):  # residues
        n = _modulus_of(spec)
        at = new if shared is None else shared.__getitem__  # a residue is its own index
        add, mul = (lambda x, y: (x + y) % n), (lambda x, y: x * y % n)
        r = Arithmetic(payload, at, at, 0, 1, add, mul, lambda x: -x % n,
                       lambda x: pow(x, -1, n) if gcd(x, n) == 1 else None, *_entrywise(add, mul))
        if prime_power(n) is None:  # composite Z(n): no elimination
            return r
        # GF(p), Z(p) and Z(p^k) by gcd valuations: w = gcd(a, n) is p^v, a // w a unit
        return r._replace(val=lambda a: gcd(a, n), split=lambda a, w: (pow(a // w, -1, n), n // w % n),
                          cancel=lambda a, w: -(a // w) % n, field=is_prime(n))
    if isinstance(spec, DualNumbers):  # payload pairs (a0, a1) meaning a0 + a1 x
        p = spec.p
        at = new if shared is None else (lambda x: shared[x[0] * p + x[1]])
        add = lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p)
        mul = lambda x, y: (x[0] * y[0] % p, (x[0] * y[1] + x[1] * y[0]) % p)
        return Arithmetic(
            payload, at, at, (0, 0), (1, 0), add, mul, lambda x: (-x[0] % p, -x[1] % p),
            lambda x: None if x[0] == 0 else (i := pow(x[0], -1, p), -x[1] * i * i % p), *_entrywise(add, mul),
        )
    if isinstance(spec, Product):  # tuples of the factors' values, on their records
        parts = tuple(map(arithmetic, spec.factors))

        def inv(x):
            out = tuple(f.inv(y) for f, y in zip(parts, x))
            return None if None in out else out

        return Arithmetic(
            lambda a: tuple(f.encode(x) for f, x in zip(parts, a.payload)),
            lambda v: new(tuple(f.decode(x) for f, x in zip(parts, v))), new,
            tuple(f.zero for f in parts), tuple(f.one for f in parts),
            lambda x, y: tuple(f.add(a, b) for f, a, b in zip(parts, x, y)),
            lambda x, y: tuple(f.mul(a, b) for f, a, b in zip(parts, x, y)),
            lambda x: tuple(f.neg(a) for f, a in zip(parts, x)), inv,
            lambda u, v: tuple(zip(*[f.plus(a, b) for f, a, b in zip(parts, zip(*u), zip(*v))])),
            lambda c, v: tuple(zip(*[f.scaled(x, a) for f, x, a in zip(parts, c, zip(*v))])),
        )
    p, q, t = spec.p, ring_size(spec), _field_tables(spec.p, spec.k)
    if t is None:  # GF(p^k) above FIELD_TABLE_LIMIT: coefficient payloads
        encode, decode, at, z, u = payload, new, new, (0,) * spec.k, (1,) + (0,) * (spec.k - 1)
        add, mul = (lambda x, y: tuple((a + b) % p for a, b in zip(x, y))), (lambda x, y: _field_mul(x, y, spec))
        neg, inv = (lambda x: tuple(-a % p for a in x)), (lambda x: None if x == z else _pow(x, q - 2, mul, u))
    else:  # a table field: logs i < q - 1, None for zero
        log, els, zech, m, z, u = t.log.get, t.els, t.zech, q - 1, None, 0

        def add(i, j):
            if i is None or j is None:
                return j if i is None else i
            n = zech[j - i]  # g^i + g^j = g^i (1 + g^(j-i)); a negative index wraps mod q - 1
            return None if n is None else (i + n) % m

        decode = lambda i: shared[0] if i is None else els[i]
        encode, at = (lambda a: log(a.payload)), (lambda x: decode(log(x)))
        mul = lambda i, j: None if i is None or j is None else (i + j) % m
        neg = lambda i: None if i is None else (i + t.neg_one) % m
        inv = lambda i: None if i is None else -i % m
    # every nonzero value is a unit: val is 1, split gives inv and cancel neg
    return Arithmetic(encode, decode, at, z, u, add, mul, neg, inv, *_entrywise(add, mul),
                      lambda a: q if a == z else 1, lambda a, w: (inv(a), z), lambda a, w: neg(a), True)


def _entrywise(add: Callable, mul: Callable) -> tuple[Callable, Callable]:
    """plus(u, v) = u + v and scaled(c, v) = c * v on tuples of values, entry by entry."""
    return (lambda u, v: tuple(map(add, u, v))), (lambda c, v: tuple(map(mul, itertools.repeat(c), v)))


def _field_mul(a: tuple[int, ...], b: tuple[int, ...], spec: GaloisField) -> tuple[int, ...]:
    """Payload of a * b in GF(p^k) by polynomial multiply-and-reduce."""
    red = _poly_mod(_poly_mul(a, b, spec.p), spec.modulus, spec.p)
    return red + (0,) * (spec.k - len(red))


class _FieldTables(NamedTuple):
    """Tables of GF(p^k) over g = smallest_generator, shared by every caller
    and so read only; each power g^i, i < q - 1, is listed once, exact by
    construction (g^(i+1) is g * g^i, summed from two products by g, see
    _field_tables).  arithmetic(spec) computes on the logs i, None for zero."""

    log: dict  # nonzero payload -> i
    zech: tuple  # zech[n] = log(1 + g^n), None where g^n = -1
    neg_one: int  # log(-1): 0 for p = 2, else (q - 1) / 2
    els: tuple  # the shared elements g^i, see _shared


@functools.cache
def _field_tables(p: int, k: int) -> _FieldTables | None:
    """The tables of GF(p^k), or None above FIELD_TABLE_LIMIT.

    Multiplying by g is GF(p)-linear, so g * x is g * (x's first h = k // 2
    digits, the rest zero) plus g * (x with those digits zeroed).  Both
    halves are looked up among p^h + p^(k-h) products by _field_mul, and each
    next power is one digitwise sum mod p."""
    if p**k > FIELD_TABLE_LIMIT:
        return None
    spec, h = galois_field(p, k), k // 2
    g, exp = smallest_generator(spec), [(1,) + (0,) * (k - 1)]
    low = {d: _field_mul(d + (0,) * (k - h), g, spec) for d in itertools.product(range(p), repeat=h)}
    high = {d: _field_mul((0,) * h + d, g, spec) for d in itertools.product(range(p), repeat=k - h)}
    for _ in range(p**k - 2):
        x = exp[-1]
        exp.append(tuple((u + v) % p for u, v in zip(low[x[:h]], high[x[h:]])))
    log = {a: i for i, a in enumerate(exp)}
    zech = tuple(log.get(((x[0] + 1) % p, *x[1:])) for x in exp)  # None only at 1 + x = 0
    by_payload = {a.payload: a for a in _shared(spec)}
    return _FieldTables(log, zech, zech.index(None), tuple(map(by_payload.__getitem__, exp)))


def _pow(base, e: int, times, out):
    """base^e by squaring under the product times, whose identity is out."""
    while e:
        if e & 1:
            out = times(out, base)
        base = times(base, base)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

MOD_REDUCTION = "mod_reduction"
DUAL_AUGMENTATION = "dual_augmentation"
PROJECTION = "projection"
SUBRING_INCLUSION = "subring_inclusion"
CRT = "crt"

SURJECTIVE_KINDS = frozenset({MOD_REDUCTION, DUAL_AUGMENTATION, PROJECTION, CRT})


class RingHom(Frozen):
    """A structure map from one catalog ring to another.

    ``mod_reduction``, ``dual_augmentation``, ``projection`` and the bijective
    ``crt`` are surjective; ``subring_inclusion`` is injective and carries an
    explicit payload table, built at construction and checked there on the
    source's additive generators, which implies the laws on all pairs (see
    _verify_hom_table).
    """

    __slots__ = ("kind", "source", "target", "index", "table")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity

    def __init__(self, kind: str, source: RingSpec, target: RingSpec, index: int | None = None,
                 table: MappingProxyType | None = None):
        self.__setstate__((kind, source, target, index, table))

    def __call__(self, a: RingElement) -> RingElement:
        return apply_hom(self, a)


def _modulus_of(spec: RingSpec) -> int | None:
    if isinstance(spec, PrimeField):
        return spec.p
    if isinstance(spec, IntegersMod):
        return spec.n
    return None


def mod_reduction(source: RingSpec, target: RingSpec) -> RingHom:
    """Residue reduction Z_n -> Z_m for m | n (prime fields count as Z_p)."""
    n = _modulus_of(source)
    m = _modulus_of(target)
    if n is None or m is None:
        raise ValueError("mod_reduction needs integers-mod-n style rings")
    if n % m != 0:
        raise ValueError(f"{m} does not divide {n}")
    return RingHom(MOD_REDUCTION, source, target)


def dual_augmentation(p: int) -> RingHom:
    """D(p) -> GF(p), a + bx -> a."""
    return RingHom(DUAL_AUGMENTATION, DualNumbers(p), PrimeField(p))


def projection(product: Product, index: int) -> RingHom:
    """Component projection of a product ring; index is 0-based."""
    if not isinstance(product, Product):
        raise ValueError("projection source must be a product")
    if not 0 <= index < len(product.factors):
        raise ValueError("factor index out of range")
    return RingHom(PROJECTION, product, product.factors[index], index=index)


def _multiplicative_order_checks(q: int) -> list[int]:
    return [(q - 1) // ell for ell, _ in factorize(q - 1)] if q > 2 else []


@functools.cache  # by field value: the tables and every subring_inclusion share one scan
def smallest_generator(spec: PrimeField | GaloisField) -> Payload:
    """Payload of the lexicographically smallest generator of the
    multiplicative group, found without the field tables it seeds."""
    q = ring_size(spec)
    checks = _multiplicative_order_checks(q)
    if isinstance(spec, GaloisField):
        times, uno = functools.partial(_field_mul, spec=spec), (1,) + (0,) * (spec.k - 1)
    else:
        times, uno = (lambda a, b: a * b % q), 1
    for cand in itertools.islice(_payloads(spec), 1, None):  # zero is first
        if (cand != uno or q == 2) and all(_pow(cand, e, times, uno) != uno for e in checks):
            return cand
    raise RuntimeError("unreachable: finite field groups are cyclic")


def _verify_hom_table(source: PrimeField | GaloisField, target: RingSpec, table: dict):
    """Raise ValueError unless table (source payload -> target payload) is an
    injective map f that keeps 0 and 1 and obeys the ring laws.

    The laws are checked as f(a + e) = f(a) + f(e) and f(a e) = f(a) f(e)
    for every source element a and every additive generator e: x^j for
    j < m in GF(p^m), 1 in GF(p).  That implies them on all pairs.  Every b
    is a sum of copies of generators, so f(a + b) = f(a) + f(b) follows from
    f(0) = 0 by induction on the number of summands.  With additivity,
    b = sum c_j x^j gives f(a b) = sum c_j f(a x^j) = sum c_j f(a) f(x^j)
    = f(a) f(b).  So q_src * m pairs are checked, not q_src^2.
    """
    src, tgt = arithmetic(source), arithmetic(target)
    if table[zero(source).payload] != zero(target).payload:
        raise ValueError("inclusion does not preserve zero")
    if table[one(source).payload] != one(target).payload:
        raise ValueError("inclusion does not preserve one")
    els = elements(source)
    xs, ys = [src.encode(a) for a in els], [tgt.encode(tgt.element(table[a.payload])) for a in els]
    for i in (source.p**j for j in range(getattr(source, "k", 1))):  # x^(m-1-j) is at index p^j
        e, fe = xs[i], ys[i]
        for x, fx in zip(xs, ys):
            if table[src.decode(src.add(x, e)).payload] != tgt.decode(tgt.add(fx, fe)).payload:
                raise ValueError("inclusion is not additive")
            if table[src.decode(src.mul(x, e)).payload] != tgt.decode(tgt.mul(fx, fe)).payload:
                raise ValueError("inclusion is not multiplicative")
    if len(set(table.values())) != len(table):
        raise ValueError("inclusion is not injective")


def subring_inclusion(source: RingSpec, target: RingSpec) -> RingHom:
    """Embedding GF(p^m) -> GF(p^k) for m | k, or GF(p) -> D(p).

    The field embedding evaluates source coefficient vectors at the
    lexicographically smallest root of the source modulus inside the unique
    subfield of the target of the right size (the subgroup generated by
    t = g^((p^k-1)/(p^m-1)) for g the smallest generator of the target).  The
    map sends a generator of the source onto that subgroup generator.  All of
    it runs on the values of the target's arithmetic record.  The powers of t
    are walked only up to the first root r, each tested by Horner's rule over
    the source modulus: the m roots are its Frobenius conjugates r, r^p, ...,
    r^(p^(m-1)), and the one of smallest payload is taken.  Each image is a
    sum of m of the values c * r^j, c < p, j < m, made by repeated addition.
    Before use the table is checked to be injective, to keep 0 and 1, and to
    obey the ring laws on the source's additive generators, which implies them
    on all pairs (see _verify_hom_table).
    """
    if isinstance(source, PrimeField) and isinstance(target, DualNumbers):
        if source.p != target.p:
            raise ValueError("characteristic mismatch")
    elif not isinstance(source, (PrimeField, GaloisField)) or not isinstance(target, GaloisField):
        raise ValueError("unsupported inclusion pair")
    elif target.p != source.p or target.k % getattr(source, "k", 1) != 0:
        raise ValueError("source degree must divide target degree")
    if isinstance(source, PrimeField):  # the prime subfield: a -> a * 1, the constant a
        pad = (0,) * (len(one(target).payload) - 1)
        table = {v: (v, *pad) for v in range(source.p)}
    else:
        p, m, r = source.p, source.k, arithmetic(target)
        powers = lambda x, n: itertools.accumulate(range(n - 1), lambda y, _: r.mul(y, x), initial=r.one)  # x^i, i < n
        # c * x for c < p, summed from x: a table field's zero is None, which accumulate takes for no initial value
        multiples = lambda x: [r.zero, *itertools.accumulate(range(p - 2), lambda y, _: r.add(y, x), initial=x)]
        ones = multiples(r.one)
        horner = lambda x: functools.reduce(lambda y, c: r.add(r.mul(y, x), ones[c]), source.modulus[-2::-1], r.one)
        t = _pow(r.encode(r.element(smallest_generator(target))), (ring_size(target) - 1) // (p**m - 1), r.mul, r.one)
        root = next(x for x in powers(t, p**m - 1) if horner(x) == r.zero)
        roots = itertools.accumulate(range(m - 1), lambda x, _: _pow(x, p, r.mul, r.one), initial=root)
        root = min(roots, key=lambda x: r.decode(x).payload)  # the m roots are r^(p^i), i < m
        scaled = [multiples(x) for x in powers(root, m)]  # scaled[j][c] = c * root^j
        table = {a: r.decode(functools.reduce(r.add, map(list.__getitem__, scaled, a))).payload
                 for a in _payloads(source)}
    _verify_hom_table(source, target, table)
    return RingHom(SUBRING_INCLUSION, source, target, table=MappingProxyType(table))


def crt(product: Product, target: IntegersMod) -> RingHom:
    """The Chinese remainder isomorphism Z(m_1) x ... x Z(m_r) -> Z(n) for
    pairwise coprime m_i with product n (prime fields count as Z(p))."""
    if not isinstance(product, Product) or not isinstance(target, IntegersMod):
        raise ValueError("crt maps a product of Z(m) rings onto Z(n)")
    moduli = [_modulus_of(f) for f in product.factors]
    if None in moduli or prod(moduli) != target.n or lcm(*moduli) != target.n:
        raise ValueError(f"{format_ring(product)} does not split Z({target.n})")
    return RingHom(CRT, product, target)


def apply_hom(h: RingHom, a: RingElement) -> RingElement:
    if a.ring != h.source:
        raise ValueError("element is not owned by the hom's source ring")
    if h.kind == MOD_REDUCTION:
        return arithmetic(h.target).element(a.payload % _modulus_of(h.target))
    if h.kind == DUAL_AUGMENTATION:
        return arithmetic(h.target).element(a.payload[0])
    if h.kind == PROJECTION:
        return a.payload[h.index]
    if h.kind == CRT:  # sum of c_i * e_i, e_i = 1 mod m_i and 0 mod the others
        n, total = h.target.n, 0
        for c, m in zip(a.payload, map(_modulus_of, h.source.factors)):
            total += c.payload * (n // m) * pow(n // m, -1, m)
        return arithmetic(h.target).element(total % n)
    return arithmetic(h.target).element(h.table[a.payload])


# ---------------------------------------------------------------------------
# ring expression grammar: GF(q) | GF(p^k) | Z(n) | D(p) | (product), product via infix x
# ---------------------------------------------------------------------------


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise ParseError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def atom(self) -> RingSpec:
        self.skip_ws()
        start = self.pos
        head = self.peek().upper()
        if head == "G":
            if self.text[self.pos : self.pos + 2].upper() != "GF":
                self.error("expected GF")
            self.pos += 2
            self.expect("(")
            base = self.integer()
            self.skip_ws()
            if self.peek() == "^":
                self.pos += 1
                exp = self.integer()
                # bound both before base**exp or a primality test: 2**exp
                # already exceeds the guard once exp reaches its bit length
                if base > ENUMERATION_GUARD or exp >= ENUMERATION_GUARD.bit_length():
                    self.error(f"GF({base}^{exp}) exceeds the size guard", start)
                if exp < 1:
                    self.error(f"GF({base}^{exp}): degree must be positive", start)
                if not is_prime(base):
                    self.error(f"{base} is not prime", start)
                if base**exp > ENUMERATION_GUARD:
                    self.error(f"GF({base}^{exp}) exceeds the size guard", start)
                spec: RingSpec = galois_field(base, exp)
            else:
                if base > ENUMERATION_GUARD:
                    self.error(f"GF({base}) exceeds the size guard", start)
                pk = prime_power(base)
                if pk is None:
                    self.error(f"{base} is not a prime power", start)
                spec = galois_field(*pk)
            self.expect(")")
            return spec
        if head == "Z":
            self.pos += 1
            self.expect("(")
            n = self.integer()
            if n < 2:
                self.error("Z(n) needs n >= 2", start)
            if n > ENUMERATION_GUARD:
                self.error(f"Z({n}) exceeds the size guard", start)
            self.expect(")")
            return IntegersMod(n)
        if head == "D":
            self.pos += 1
            self.expect("(")
            p = self.integer()
            if p * p > ENUMERATION_GUARD:
                self.error(f"D({p}) exceeds the size guard", start)
            if not is_prime(p):
                self.error(f"{p} is not prime", start)
            self.expect(")")
            return DualNumbers(p)
        if head == "(":  # a group is the product of its factors, also of one (see format_ring)
            self.pos += 1
            spec = Product(self.factors())
            self.expect(")")
            return spec
        self.error("expected GF(, Z( or D(")

    def factors(self) -> tuple[RingSpec, ...]:
        factors = [self.atom()]
        while True:
            self.skip_ws()
            if self.peek().lower() != "x":
                return tuple(factors)
            self.pos += 1
            factors.append(self.atom())

    def parse(self) -> RingSpec:
        factors = self.factors()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return factors[0] if len(factors) == 1 else Product(factors)


def parse_ring(text: str) -> RingSpec:
    """Parse a ring expression; whitespace-insensitive, errors carry offsets.
    A parenthesised group is the product of its factors, also of one, so
    parse_ring(format_ring(spec)) == spec."""
    parser = _ExprParser(text)
    try:
        return parser.parse()
    except RecursionError:  # parentheses nested deeper than the interpreter's stack
        parser.error("parentheses nested too deeply")


def format_ring(spec: RingSpec) -> str:
    if isinstance(spec, PrimeField):
        return f"GF({spec.p})"
    if isinstance(spec, GaloisField):
        return f"GF({spec.p}^{spec.k})"
    if isinstance(spec, IntegersMod):
        return f"Z({spec.n})"
    if isinstance(spec, DualNumbers):
        return f"D({spec.p})"
    text = "x".join(f"({format_ring(f)})" if isinstance(f, Product) and len(f.factors) > 1 else format_ring(f)
                    for f in spec.factors)  # a one-factor product is in parentheses already
    return text if len(spec.factors) > 1 else f"({text})"


# ---------------------------------------------------------------------------
# element text syntax
# ---------------------------------------------------------------------------
#
# Residues print as plain integers.  Polynomial payloads (GF(p^k) and D(p))
# print little-endian, lowest degree first: "0", "2", "x", "2x", "1+x",
# "1+2x+x^2".  Product elements wrap their components in parentheses:
# "(1+x,2)".  The parser also accepts terms in any order and an optional '*'
# between coefficient and x.


def format_element(a: RingElement) -> str:
    spec = a.ring
    if isinstance(spec, (PrimeField, IntegersMod)):
        return str(a.payload)
    if isinstance(spec, (GaloisField, DualNumbers)):
        terms = []
        for deg, c in enumerate(a.payload):
            if c == 0:
                continue
            if deg == 0:
                terms.append(str(c))
            else:
                xpart = "x" if deg == 1 else f"x^{deg}"
                terms.append(xpart if c == 1 else f"{c}{xpart}")
        return "+".join(terms) if terms else "0"
    return "(" + ",".join(format_element(c) for c in a.payload) + ")"


def parse_element(text: str, spec: RingSpec) -> RingElement:
    text = text.strip()
    if isinstance(spec, (PrimeField, IntegersMod)):
        n = _modulus_of(spec)
        try:
            v = int(text)
        except ValueError:
            raise ValueError(f"expected an integer residue, got {text!r}") from None
        if not 0 <= v < n:
            raise ValueError(f"residue {v} out of range for modulus {n}")
        return arithmetic(spec).element(v)
    if isinstance(spec, (GaloisField, DualNumbers)):
        k = spec.k if isinstance(spec, GaloisField) else 2
        coeffs = [0] * k
        for term in text.replace(" ", "").split("+"):
            if not term:
                raise ValueError(f"empty term in {text!r}")
            c, deg = _parse_term(term)
            if deg >= k:
                raise ValueError(f"degree {deg} too large in {text!r}")
            coeffs[deg] = (coeffs[deg] + c) % spec.p
        return arithmetic(spec).element(tuple(coeffs))
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"expected a parenthesized tuple, got {text!r}")
    parts = _split_components(text[1:-1])
    if len(parts) != len(spec.factors):
        raise ValueError(
            f"expected {len(spec.factors)} components, got {len(parts)}"
        )
    return RingElement(
        spec, tuple(parse_element(t, f) for t, f in zip(parts, spec.factors))
    )


def _parse_term(term: str) -> tuple[int, int]:
    if "x" not in term:
        return int(term), 0
    head, _, tail = term.partition("x")
    head = head.rstrip("*")
    c = int(head) if head else 1
    if not tail:
        return c, 1
    if not tail.startswith("^"):
        raise ValueError(f"malformed term {term!r}")
    return c, int(tail[1:])


def _split_components(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts
