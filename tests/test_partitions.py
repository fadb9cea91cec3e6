"""Partition enumeration, division, and maximality."""

import pytest

from partition_oracle import is_maximal_naive, maximal_filter
from ringcode import partitions as partitions_mod
from ringcode.errors import GuardExceeded
from ringcode.partitions import (
    MAXIMAL_MAX_K,
    Partition,
    divides,
    enumerate_partitions,
    has_unique_maximal,
    is_len2_maximal,
    is_maximal,
    maximal_partitions,
    parse_partition,
)


def P(*parts):
    return Partition(tuple(parts))


class TestPartitionType:
    def test_canonical_orientation(self):
        assert Partition((1, 4, 2)).parts == (4, 2, 1)

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_total_and_len(self):
        p = P(7, 6, 4)
        assert p.total == 17 and len(p) == 3

    def test_text_round_trip(self):
        assert str(parse_partition("(4,6,7)")) == "(7,6,4)"
        assert parse_partition("( 3 , 2 )") == P(3, 2)
        with pytest.raises(ValueError):
            parse_partition("3,2")
        with pytest.raises(ValueError):
            parse_partition("(3,x)")


class TestEnumeration:
    def test_k4_reverse_lex(self):
        got = [p.parts for p in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_k1(self):
        assert [p.parts for p in enumerate_partitions(1)] == [(1,)]

    def test_k6_count(self):
        assert len(enumerate_partitions(6)) == 11

    # first values of the partition-counting function
    @pytest.mark.parametrize(
        "k,count",
        [(2, 2), (3, 3), (5, 7), (10, 42), (15, 176), (20, 627)],
    )
    def test_counts(self, k, count):
        assert len(enumerate_partitions(k)) == count

    def test_unique(self):
        ps = enumerate_partitions(12)
        assert len({p.parts for p in ps}) == len(ps)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_partitions(0)
        with pytest.raises(GuardExceeded):
            enumerate_partitions(65)


class TestDivides:
    def test_examples(self):
        assert divides(P(2, 2, 1), P(4, 1))
        assert divides(P(5, 3, 2), P(10))
        assert not divides(P(3, 2), P(5))

    def test_reflexive(self):
        for p in enumerate_partitions(9):
            assert divides(p, p)

    def test_total_mismatch(self):
        with pytest.raises(ValueError):
            divides(P(2, 1), P(4))

    def test_quasi_order_laws_exhaustive(self):
        # reflexivity and transitivity over all partitions of each k <= 12
        for k in range(1, 13):
            ps = enumerate_partitions(k)
            rel = {
                (i, j)
                for i, a in enumerate(ps)
                for j, b in enumerate(ps)
                if divides(a, b)
            }
            for i in range(len(ps)):
                assert (i, i) in rel
            for i, j in rel:
                for j2, l in rel:
                    if j2 == j:
                        assert (i, l) in rel

    def test_antisymmetry_failure_witness(self):
        # (k-1,1) and (k-2,1,1) divide one another for every k >= 3
        for k in range(3, 13):
            a, b = P(k - 1, 1), P(k - 2, 1, 1)
            assert divides(a, b) and divides(b, a)


class TestMaximality:
    def test_examples(self):
        assert is_maximal(P(7, 6, 4))
        assert not is_maximal(P(5, 3, 2))
        for k in (1, 2, 5, 12, 30):
            assert is_maximal(P(k))

    def test_shortcut_matches_full_scan_small(self):
        for k in range(1, 13):
            for p in enumerate_partitions(k):
                assert is_maximal(p) == is_maximal_naive(p)

    def test_maximal_lists(self):
        assert [p.parts for p in maximal_partitions(5)] == [(5,), (3, 2)]
        assert [p.parts for p in maximal_partitions(12)] == [(12,), (7, 5)]
        m17 = maximal_partitions(17)
        assert len(m17) == 9 and m17[-1] == P(7, 6, 4)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            maximal_partitions(41)

    def test_no_part_divides_another_part(self):
        # necessary condition for maximality, all k <= 30
        for k in range(1, 31):
            for p in maximal_partitions(k):
                for i, a in enumerate(p.parts):
                    for j, b in enumerate(p.parts):
                        if i != j:
                            assert b % a != 0

    def test_every_partition_divides_some_maximal(self):
        for k in range(1, 21):
            maxima = maximal_partitions(k)
            for p in enumerate_partitions(k):
                assert any(divides(p, m) for m in maxima)


class TestMaximalMemo:
    """maximal_partitions enumerates each k once per process, tests maximality
    on the enumerator's tuples, and hands every caller a new list."""

    def test_equals_the_filter_for_every_k(self):
        for k in range(1, MAXIMAL_MAX_K + 1):
            assert maximal_partitions(k) == maximal_filter(k)

    def test_tuple_core_matches_full_scan_small(self):
        for k in range(1, 13):
            for t in partitions_mod._iter_parts(k, k):
                assert partitions_mod._maximal(k, t) == is_maximal_naive(Partition(t))

    def test_each_call_returns_a_new_list_of_shared_partitions(self):
        a, b = maximal_partitions(17), maximal_partitions(17)
        assert type(a) is list and a is not b and a == b
        assert all(x is y for x, y in zip(a, b))

    def test_mutating_a_returned_list_leaves_the_next_answer(self):
        want = [p.parts for p in maximal_filter(17)]
        got = maximal_partitions(17)
        got.reverse()
        got.append(P(17))
        del got[0]
        assert [p.parts for p in maximal_partitions(17)] == want

    def test_same_answers_after_cache_clear(self):
        before = [[p.parts for p in maximal_partitions(k)] for k in range(1, 21)]
        partitions_mod._maxima.cache_clear()
        assert partitions_mod._maxima.cache_info().currsize == 0
        assert [[p.parts for p in maximal_partitions(k)] for k in range(1, 21)] == before

    def test_each_k_is_enumerated_once(self, monkeypatch):
        partitions_mod._maxima.cache_clear()
        calls = []
        real = partitions_mod._iter_parts

        def counted(k, max_part):
            calls.append((k, max_part))
            return real(k, max_part)

        monkeypatch.setattr(partitions_mod, "_iter_parts", counted)
        for _ in range(3):
            maximal_partitions(12)
            has_unique_maximal(12)
        assert [c for c in calls if c[0] == 12] == [(12, 12)]  # the rest recurse

    @pytest.mark.parametrize("k", [0, MAXIMAL_MAX_K + 1])
    def test_guard_leaves_the_memo_untouched(self, k):
        maximal_partitions(5)
        info = partitions_mod._maxima.cache_info()
        with pytest.raises(GuardExceeded):
            maximal_partitions(k)
        assert partitions_mod._maxima.cache_info() == info


class TestLength2:
    def test_examples(self):
        assert is_len2_maximal(7, 2)
        assert not is_len2_maximal(12, 4)
        assert is_len2_maximal(9, 4)

    def test_precondition(self):
        with pytest.raises(ValueError):
            is_len2_maximal(7, 4)
        with pytest.raises(ValueError):
            is_len2_maximal(7, 0)

    def test_agrees_with_is_maximal(self):
        for k in range(2, 31):
            for m in range(1, k // 2 + 1):
                assert is_len2_maximal(k, m) == is_maximal(P(k - m, m))


class TestUniqueMaximal:
    def test_exact_set(self):
        for k in range(1, MAXIMAL_MAX_K + 1):
            assert has_unique_maximal(k) == (k in {1, 2, 3, 4, 6})

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            has_unique_maximal(0)
