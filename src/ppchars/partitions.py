"""Partition counting and the split-count function k(m, s).

pi(n) is the ordinary partition function.  An m-split of s is an ordered
tuple of m non-negative integers summing to s, and

    k(m, s) = sum over m-splits (s_1, ..., s_m) of pi(s_1) * ... * pi(s_m),

equivalently the coefficient of x^s in the m-th power of the partition
generating series.  k(m, s) also counts m-tuples of partitions with total
size s, which is the number of irreducible characters of the wreath
product C_m wr S_s.  All values are exact arbitrary-precision integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import SizeLimitError

SPLIT_ENUMERATION_LIMIT = 10_000_000

# Size guards, measured on a 2-vCPU Xeon: pi(5000) takes about 1.2 s, and
# the cost of k(m, s) grows with s and with the digits of m: k(10^6, 300)
# takes about 1 s, k(10^6, 400) 3 s, k(10^3, 1000) 5 s and k(10^20, 300) 60 s.
PARTITION_LIMIT = 5000
SPLIT_S_LIMIT = 300
SPLIT_M_LIMIT = 1_000_000


@dataclass(frozen=True)
class PartitionTable:
    """pi(0..max_size) as a frozen lookup table."""

    max_size: int
    pi_values: tuple[int, ...]


@dataclass(frozen=True)
class SplitCountTable:
    """k(m, 0..max_s) for a fixed m."""

    m: int
    max_s: int
    k_values: tuple[int, ...]


def partition_table(max_size: int) -> PartitionTable:
    """Dynamic program over part sizes (the classic coin-counting DP), up
    to PARTITION_LIMIT."""
    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    if max_size > PARTITION_LIMIT:
        raise SizeLimitError(f"pi(0..{max_size}) exceeds the partition bound "
                             f"{PARTITION_LIMIT}")
    pi = [0] * (max_size + 1)
    pi[0] = 1
    for part in range(1, max_size + 1):
        for s in range(part, max_size + 1):
            pi[s] += pi[s - part]
    return PartitionTable(max_size, tuple(pi))


_PI_CACHE: list[int] = [1]


def partition_count(m: int) -> int:
    """pi(m), amortized: the cached table at least doubles when it grows,
    up to PARTITION_LIMIT."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > PARTITION_LIMIT:
        raise SizeLimitError(f"pi({m}) exceeds the partition bound "
                             f"{PARTITION_LIMIT}")
    global _PI_CACHE
    if m >= len(_PI_CACHE):
        new_size = min(max(m, 2 * len(_PI_CACHE)), PARTITION_LIMIT)
        _PI_CACHE = list(partition_table(new_size).pi_values)
    return _PI_CACHE[m]


def _convolve(a: list[int], b: list[int], trunc: int) -> list[int]:
    out = [0] * (trunc + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(min(len(b), trunc + 1 - i)):
                out[i + j] += ai * b[j]
    return out


def split_count_table(m: int, max_s: int) -> SplitCountTable:
    """k(m, s) for all s <= max_s, via binary powering of the pi series."""
    if m < 1:
        raise ValueError("m must be positive")
    if max_s < 0:
        raise ValueError("max_s must be non-negative")
    if max_s > SPLIT_S_LIMIT or m > SPLIT_M_LIMIT:
        raise SizeLimitError(
            f"k({m}, {max_s}) exceeds the split bound "
            f"m <= {SPLIT_M_LIMIT}, s <= {SPLIT_S_LIMIT}"
        )
    base = list(partition_table(max_s).pi_values)
    result = [1] + [0] * max_s
    e = m
    while e:
        if e & 1:
            result = _convolve(result, base, max_s)
        e >>= 1
        if e:
            base = _convolve(base, base, max_s)
    return SplitCountTable(m, max_s, tuple(result))


def split_count(m: int, s: int) -> int:
    """k(m, s) as the s-th coefficient of the m-fold convolution power."""
    if s < 0:
        raise ValueError("s must be non-negative")
    return split_count_table(m, s).k_values[s]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of `parts` non-negative integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for cut in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def split_count_naive(m: int, s: int) -> int:
    """Literal sum over all m-splits; independent oracle for split_count.

    Refuses when the number of splits C(s+m-1, m-1) exceeds the guard.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if s < 0:
        raise ValueError("s must be non-negative")
    n_splits = math.comb(s + m - 1, m - 1)
    if n_splits > SPLIT_ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"{n_splits} m-splits exceeds the enumeration guard "
            f"({SPLIT_ENUMERATION_LIMIT})"
        )
    pi = partition_table(s).pi_values
    return sum(math.prod(pi[si] for si in split) for split in _compositions(s, m))


def enumerate_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield all partitions of n with parts at most max_part (default n)
    as weakly decreasing tuples, in decreasing lexicographic order.

    Each partition after the first comes from the one before: its trailing
    1s and its last part x > 1 make room for x - 1 and the greedy run of
    parts x - 1 that sums to the rest."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    if max_part < 1:
        return
    parts = [max_part] * (n // max_part)
    if n % max_part:
        parts.append(n % max_part)
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        x = parts.pop() - 1
        rest = ones + x + 1
        parts.extend([x] * (rest // x))
        if rest % x:
            parts.append(rest % x)
