"""Integer partitions and the partition-division quasi-order.

A partition of k is stored with non-increasing parts.  Partition B divides
partition A when every part of A is a multiple of some part of B; this
relation is reflexive and transitive but not anti-symmetric (for k >= 3 the
partitions (k-1,1) and (k-2,1,1) divide each other).  A partition is maximal
when it divides no other partition of the same total.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .errors import GuardExceeded

ENUMERATE_MAX_K = 64
MAXIMAL_MAX_K = 40


@dataclass(frozen=True, slots=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(sorted(self.parts, reverse=True))
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(not isinstance(p, int) or p < 1 for p in parts):
            raise ValueError("parts must be positive integers")
        object.__setattr__(self, "parts", parts)

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


def _iter_parts(k: int, max_part: int, max_len: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partition tuples of k in reverse-lexicographic order, parts <= max_part."""
    if k == 0:
        yield ()
        return
    if max_len is not None and max_len == 0:
        return
    top = min(k, max_part)
    for first in range(top, 0, -1):
        rest_len = None if max_len is None else max_len - 1
        for rest in _iter_parts(k - first, first, rest_len):
            yield (first,) + rest


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of k, reverse-lexicographically ordered."""
    if not 1 <= k <= ENUMERATE_MAX_K:
        raise GuardExceeded(f"k must be in 1..{ENUMERATE_MAX_K}, got {k}")
    return [Partition(t) for t in _iter_parts(k, k)]


@functools.cache
def _partition_tuples(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_iter_parts(k, k))


def divides(b: Partition, a: Partition) -> bool:
    """True iff every part of a has a divisor among the parts of b."""
    if b.total != a.total:
        raise ValueError(f"totals differ: {b.total} vs {a.total}")
    divisors = sorted(set(b.parts))
    return all(any(a_part % d == 0 for d in divisors) for a_part in set(a.parts))


def _tuple_divides(b_parts: frozenset[int], a_parts: tuple[int, ...]) -> bool:
    return all(any(a % d == 0 for d in b_parts) for a in a_parts)


def is_maximal(a: Partition) -> bool:
    """True iff a divides no other partition of its total.

    Whenever a partition divides a different partition at least as long as
    itself, it also divides a strictly shorter one, so it suffices to scan
    the partitions with fewer parts.  ``is_maximal_naive`` keeps the full
    scan as an independent oracle.
    """
    length = len(a)
    if length == 1:
        return True
    bset = frozenset(a.parts)
    for cand in _iter_parts(a.total, a.total, length - 1):
        if _tuple_divides(bset, cand):
            return False
    return True


def is_maximal_naive(a: Partition) -> bool:
    """Full-scan maximality oracle: checks every other partition of the total."""
    bset = frozenset(a.parts)
    for cand in _partition_tuples(a.total):
        if cand != a.parts and _tuple_divides(bset, cand):
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
    if not 1 <= k <= MAXIMAL_MAX_K:
        raise GuardExceeded(f"k must be in 1..{MAXIMAL_MAX_K}, got {k}")
    return maximal_partitions(k) == [Partition((k,))]
