import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppchars import partitions
from ppchars.errors import SizeLimitError


def brute_force_partition_count(n):
    """Independent recursive enumeration, no DP."""
    def count(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - part, part)
            for part in range(min(max_part, remaining), 0, -1)
        )
    return count(n, n)


def test_small_values():
    assert [partitions.partition_count(n) for n in range(6)] == [1, 1, 2, 3, 5, 7]
    assert partitions.partition_count(10) == 42


def test_against_enumerator_up_to_30():
    for n in range(31):
        assert partitions.partition_count(n) == brute_force_partition_count(n)


def test_partition_table_invariants():
    table = partitions.partition_table(5)
    assert table.pi_values == (1, 1, 2, 3, 5, 7)
    assert table.pi_values[0] == 1


def test_large_value_is_exact():
    # pi(1000) has 32 digits; any overflow or float contamination breaks this
    assert partitions.partition_count(1000) == 24061467864032622473692149727991


def test_split_count_base_cases():
    assert partitions.split_count(5, 0) == 1
    assert partitions.split_count(5, 1) == 5
    assert partitions.split_count(1, 6) == 11
    for s in range(13):
        assert partitions.split_count(1, s) == partitions.partition_count(s)


def test_split_count_naive_examples():
    assert partitions.split_count_naive(2, 2) == 5
    assert partitions.split_count_naive(3, 0) == 1
    assert partitions.split_count_naive(5, 1) == 5


def test_split_count_matches_naive_on_grid():
    for m in range(1, 9):
        for s in range(13):
            assert partitions.split_count(m, s) == partitions.split_count_naive(m, s)


def test_split_count_lower_bound_and_monotonicity():
    grid = [(m, s) for m in range(1, 9) for s in range(13)]
    for m, s in grid:
        k = partitions.split_count(m, s)
        assert m * s <= k
    for s in range(1, 13):
        values = [partitions.split_count(m, s) for m in range(1, 9)]
        assert values == sorted(values)
    for m in range(1, 9):
        values = [partitions.split_count(m, s) for s in range(13)]
        assert values == sorted(values)


def test_naive_guard():
    with pytest.raises(SizeLimitError):
        partitions.split_count_naive(40, 40)
    # one m-split at m = 1, so only the pi table's own bound refuses this
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="partition bound"):
        partitions.split_count_naive(1, 10**8)
    assert time.perf_counter() - start < 1


def test_split_table_type():
    table = partitions.split_count_table(5, 3)
    assert table.k_values[0] == 1
    assert table.m == 5 and table.max_s == 3


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_split_count_recurrence(m, s):
    # k(m, s) = sum_j pi(j) * k(m-1, s-j), with k(0, s) = [s == 0]
    if m == 1:
        assert partitions.split_count(1, s) == partitions.partition_count(s)
        return
    expected = sum(
        partitions.partition_count(j) * partitions.split_count(m - 1, s - j)
        for j in range(s + 1)
    )
    assert partitions.split_count(m, s) == expected


def test_enumerate_partitions():
    fives = list(partitions.enumerate_partitions(5))
    assert len(fives) == 7
    assert all(sum(shape) == 5 for shape in fives)
    assert all(tuple(sorted(s, reverse=True)) == s for s in fives)
    assert list(partitions.enumerate_partitions(0)) == [()]


def _partitions_recursive(n, max_part=None):
    """The recursive generator: largest first part first, then the
    partitions of the rest with parts at most that part."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in _partitions_recursive(n - first, first):
            yield (first,) + rest


def test_enumerate_partitions_matches_recursive_order():
    for n in range(31):
        for max_part in (None, *range(-1, n + 2)):
            assert list(partitions.enumerate_partitions(n, max_part)) == \
                list(_partitions_recursive(n, max_part)), (n, max_part)
    assert sum(1 for _ in partitions.enumerate_partitions(30)) == \
        partitions.partition_count(30)
    with pytest.raises(ValueError):
        next(partitions.enumerate_partitions(-1))


def test_bad_arguments():
    with pytest.raises(ValueError):
        partitions.partition_count(-1)
    with pytest.raises(ValueError):
        partitions.split_count(0, 3)
    with pytest.raises(ValueError):
        partitions.split_count(2, -1)
