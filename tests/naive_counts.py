"""Literal enumerations kept as oracles for the closed counts in `ppchars`.
They list what the counts only count, so they share no formula with them."""

import itertools

from ppchars.partitions import _compositions, enumerate_partitions


def wreath_irr_count_naive(d: int, a: int) -> int:
    """|Irr(C_d wr S_a)| by listing every d-tuple of partitions of total
    size a; oracle for `lie_bounds.wreath_irr_count`."""
    count = 0
    for comp in _compositions(a, d):
        for _ in itertools.product(
            *(tuple(enumerate_partitions(s)) for s in comp)
        ):
            count += 1
    return count
