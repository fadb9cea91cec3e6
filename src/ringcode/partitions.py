"""Integer partitions and the partition-division quasi-order.

A partition of k is stored with non-increasing parts.  Partition B divides
partition A when every part of A is a multiple of some part of B; this
relation is reflexive and transitive but not anti-symmetric (for k >= 3 the
partitions (k-1,1) and (k-2,1,1) divide each other).  A partition of k into
n parts is maximal when it divides no other partition of k, which holds iff
k is not a sum of fewer than n multiples of its parts (``is_maximal``).
"""

from __future__ import annotations

from typing import Iterator

from ._record import Frozen, _set
from .errors import GuardExceeded

ENUMERATE_MAX_K = 64
MAXIMAL_MAX_K = 40


class Partition(Frozen):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(sorted(parts, reverse=True))
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(type(p) is not int or p < 1 for p in parts):
            raise ValueError("parts must be positive integers")
        _set(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def parse_partition(text: str) -> Partition:
    """Parse "(7,6,4)"; parts in any order are canonicalized non-increasing."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"expected parenthesized parts, got {text!r}")
    items = body[1:-1].split(",")
    try:
        return Partition(tuple(int(s.strip()) for s in items))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None


def _iter_parts(k: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partition tuples of k in reverse-lexicographic order, parts <= max_part."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in _iter_parts(k - first, first):
            yield (first,) + rest


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of k, reverse-lexicographically ordered."""
    if not 1 <= k <= ENUMERATE_MAX_K:
        raise GuardExceeded(f"k must be in 1..{ENUMERATE_MAX_K}, got {k}")
    return [Partition(t) for t in _iter_parts(k, k)]


def divides(b: Partition, a: Partition) -> bool:
    """True iff every part of a has a divisor among the parts of b."""
    if b.total != a.total:
        raise ValueError(f"totals differ: {b.total} vs {a.total}")
    divisors = sorted(set(b.parts))
    return all(any(a_part % d == 0 for d in divisors) for a_part in set(a.parts))


def is_maximal(a: Partition) -> bool:
    """True iff a divides no other partition of its total k.

    If a divides a different partition at least as long as itself, it also
    divides a strictly shorter one, so a is maximal iff k is not a sum of
    fewer than len(a) multiples of its parts.  After round j, bit s of
    ``reach`` is set iff s is a sum of exactly j of them; round one, k itself
    a multiple, is tested first because it settles most partitions.
    """
    k, parts = a.total, set(a.parts)
    if len(a) > 1 and any(k % d == 0 for d in parts):
        return False
    multiples = {m for d in parts for m in range(d, k + 1, d)}
    reach, below = 1, (2 << k) - 1
    for _ in range(len(a) - 1):
        shifted = 0
        for m in multiples:
            shifted |= reach << m
        reach = shifted & below
        if reach >> k & 1:
            return False
    return True


def maximal_partitions(k: int) -> list[Partition]:
    """The maximal partitions of k, reverse-lexicographically ordered."""
    if not 1 <= k <= MAXIMAL_MAX_K:
        raise GuardExceeded(f"k must be in 1..{MAXIMAL_MAX_K}, got {k}")
    return [Partition(t) for t in _iter_parts(k, k) if is_maximal(Partition(t))]


def is_len2_maximal(k: int, m: int) -> bool:
    """Maximality of the length-2 partition (k-m, m): holds iff m does not divide k."""
    if m < 1 or 2 * m > k:
        raise ValueError(f"need 1 <= m <= k/2, got k={k}, m={m}")
    return k % m != 0


def has_unique_maximal(k: int) -> bool:
    """True iff (k) is the only maximal partition of k; holds exactly for 1,2,3,4,6."""
    return maximal_partitions(k) == [Partition((k,))]
