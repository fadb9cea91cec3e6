"""Brute-force partition checks, kept as oracles for the library's rules.

``is_maximal_naive`` is the definition of maximality scanned over every
partition of the total; ``partitions.is_maximal`` decides it by the
shortest-sum rule.  ``partition_dominance_bridge`` is per-prime partition
division, which equals ``field_product_dominates`` on same-size partition
rings.
"""

import functools

from ringcode.partitions import Partition, divides, enumerate_partitions


@functools.cache
def _partitions(k: int) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(k))


def is_maximal_naive(a: Partition) -> bool:
    """True iff a divides no other partition of its total, by a full scan."""
    parts = set(a.parts)
    return not any(
        b != a and all(any(x % d == 0 for d in parts) for x in b.parts)
        for b in _partitions(a.total)
    )


def partition_dominance_bridge(s, r) -> bool:
    """Per-prime partition division of two same-size partition rings."""
    if s.primes() != r.primes():
        raise ValueError("prime-support mismatch")
    if s.size != r.size:
        raise ValueError("sizes differ")
    return all(divides(s.partition_for(p), r.partition_for(p)) for p in s.primes())
