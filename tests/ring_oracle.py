"""Ring arithmetic on payloads, independent of ``rings``: the oracles the
ring records (``rings.arithmetic``), with their vector and elimination
operations, are tested against.

A payload is a residue, a coefficient tuple (constant term first) or, for a
product, a tuple of component ``RingElement``s; results are flat, with each
product component replaced by its own payload.
"""

import itertools
from math import gcd

from ringcode.rings import DualNumbers, GaloisField, IntegersMod, PrimeField, Product, ring_size


def oracle_mul(a, b, spec):
    """a * b in GF(p^k) the schoolbook way, independent of rings: add b_j
    times a * x^j, where multiplying by x shifts and folds x^k back through
    the modulus."""
    p, m = spec.p, spec.modulus
    out, shifted = [0] * spec.k, list(a)
    for bj in b:
        out = [(o + bj * s) % p for o, s in zip(out, shifted)]
        top = shifted[-1]
        shifted = [(s - top * mi) % p for s, mi in zip([0] + shifted[:-1], m)]
    return tuple(out)


def oracle_add(a, b, spec):
    """a + b in GF(p^k) or D(p): coefficientwise mod p, independent of rings."""
    return tuple((x + y) % spec.p for x, y in zip(a, b))


def oracle_neg(a, spec):
    return tuple(-x % spec.p for x in a)


def oracle_ops(spec):
    """(add, mul, neg) on payloads, independent of rings: residues mod n,
    D(p) in closed form, GF(p^k) by the coefficient and schoolbook oracles,
    and a product factor by factor on component payloads."""
    if isinstance(spec, (PrimeField, IntegersMod)):
        n = ring_size(spec)
        return (lambda a, b: (a + b) % n), (lambda a, b: a * b % n), (lambda a: -a % n)
    if isinstance(spec, DualNumbers):
        p = spec.p
        return (lambda a, b: oracle_add(a, b, spec),
                lambda a, b: (a[0] * b[0] % p, (a[0] * b[1] + a[1] * b[0]) % p),
                lambda a: oracle_neg(a, spec))
    if isinstance(spec, GaloisField):
        return (lambda a, b: oracle_add(a, b, spec), lambda a, b: oracle_mul(a, b, spec),
                lambda a: oracle_neg(a, spec))
    ops = [oracle_ops(f) for f in spec.factors]
    return (lambda a, b: tuple(o[0](x.payload, y.payload) for o, x, y in zip(ops, a, b)),
            lambda a, b: tuple(o[1](x.payload, y.payload) for o, x, y in zip(ops, a, b)),
            lambda a: tuple(o[2](x.payload) for o, x in zip(ops, a)))


def oracle_is_unit(spec, a):
    """Whether payload a is a unit, in closed form: a residue prime to n, a
    nonzero field element, a dual number a0 + a1 x with a0 != 0, a product
    element whose components all are."""
    if isinstance(spec, Product):
        return all(oracle_is_unit(f, x.payload) for f, x in zip(spec.factors, a))
    if isinstance(spec, (PrimeField, IntegersMod)):
        return gcd(a, ring_size(spec)) == 1
    return a[0] != 0 if isinstance(spec, DualNumbers) else any(a)


def oracle_reducible_monics(p, top):
    """Every monic over GF(p) of degree at most top that is a product of two
    monics of lower, positive degree: all such products, multiplied out
    coefficientwise, independent of rings.  Coefficients constant term first."""
    def monics(degree):
        return [low + (1,) for low in itertools.product(range(p), repeat=degree)]

    found = set()
    for da in range(1, top):
        for db in range(1, top - da + 1):
            for a in monics(da):
                for b in monics(db):
                    out = [0] * (da + db + 1)
                    for i, x in enumerate(a):
                        for j, y in enumerate(b):
                            out[i + j] = (out[i + j] + x * y) % p
                    found.add(tuple(out))
    return found
