import math

import pytest

from ppchars import engine, symmetric
from ppchars.errors import SizeLimitError
from ppchars.partitions import enumerate_partitions


def test_p_adic_expansion():
    assert symmetric.p_adic_expansion(7, 5).digits == (2, 1)
    assert symmetric.p_adic_expansion(5, 5).digits == (0, 1)
    assert symmetric.p_adic_expansion(17, 17).digits == (0, 1)
    with pytest.raises(ValueError):
        symmetric.p_adic_expansion(10, 4)
    with pytest.raises(ValueError):
        symmetric.p_adic_expansion(0, 5)


def test_digit_invariants():
    for n in (1, 9, 26, 125, 1000):
        for p in (2, 3, 5, 13):
            exp = symmetric.p_adic_expansion(n, p)
            assert all(0 <= a < p for a in exp.digits)
            assert exp.digits[-1] != 0
            assert sum(a * p**i for i, a in enumerate(exp.digits)) == n


def test_macdonald_small_closed_cases():
    # n = p: count p;  n = p + 1: count p;  n = p + 2: count 2p
    for p in (5, 7, 11, 13, 17):
        assert symmetric.macdonald_count(p, p) == p
    for p in (7, 11, 13):
        assert symmetric.macdonald_count(p + 1, p) == p
    for p in (5, 7, 11, 13):
        assert symmetric.macdonald_count(p + 2, p) == 2 * p
    assert symmetric.macdonald_count(7, 5) == 10


def test_hook_degrees_s5():
    assert symmetric.hook_degree((5,)) == 1
    assert symmetric.hook_degree((4, 1)) == 4
    assert symmetric.hook_degree((3, 2)) == 5
    assert symmetric.hook_degree((3, 1, 1)) == 6
    assert symmetric.hook_degree((2, 2, 1)) == 5
    assert symmetric.hook_degree(()) == 1


def test_hook_shape_validation():
    with pytest.raises(ValueError):
        symmetric.hook_degree((1, 2))
    with pytest.raises(ValueError):
        symmetric.hook_degree((3, 0))


def test_sum_of_squared_degrees_is_factorial():
    for n in range(1, 26):
        total = sum(d * d for _, d in symmetric.symmetric_degrees(n))
        assert total == math.factorial(n)


def test_conjugate_shape():
    assert symmetric.conjugate_shape((3, 2)) == (2, 2, 1)
    assert symmetric.conjugate_shape((4, 1, 1, 1)) == (4, 1, 1, 1)
    assert symmetric.conjugate_shape(()) == ()


def test_sym_oracle_examples():
    assert symmetric.irr_pprime_count_sym_oracle(5, 5) == 5
    assert symmetric.irr_pprime_count_sym_oracle(7, 5) == 10
    # p does not divide |S_4|, so every character counts
    assert symmetric.irr_pprime_count_sym_oracle(4, 5) == 5
    with pytest.raises(SizeLimitError):
        symmetric.irr_pprime_count_sym_oracle(31, 5)


def test_alternating_degrees_known_groups():
    assert symmetric.alternating_degrees(5) == (1, 3, 3, 4, 5)
    assert symmetric.alternating_degrees(6) == (1, 5, 5, 8, 8, 9, 10)
    assert symmetric.alternating_degrees(7) == (1, 6, 10, 10, 14, 14, 15, 21, 35)


def test_alternating_count_structure():
    # #Irr(A_n) = pairs + 2 * self-conjugate, and sum d^2 = n!/2
    for n in range(5, 21):
        shapes = list(enumerate_partitions(n))
        self_conj = sum(1 for s in shapes if symmetric.conjugate_shape(s) == s)
        pairs = (len(shapes) - self_conj) // 2
        degrees = symmetric.alternating_degrees(n)
        assert len(degrees) == pairs + 2 * self_conj
        assert sum(d * d for d in degrees) == math.factorial(n) // 2


def test_alt_oracle_examples():
    # A_6 degrees 1, 5, 5, 8, 8, 9, 10: the 5'-entries are 1, 8, 8, 9
    assert symmetric.irr_pprime_count_alt_oracle(6, 5) == 4
    assert symmetric.irr_pprime_count_alt_oracle(5, 5) == 4
    with pytest.raises(ValueError):
        symmetric.irr_pprime_count_alt_oracle(4, 5)


def test_alternating_count_beats_half_rank():
    # the chain: |Irr_p'(A_n)| >= (n-1)/2 >= (p-1)/2 for p <= n
    from ppchars.landau import primes_up_to

    for n in range(5, 21):
        for p in primes_up_to(n):
            count = symmetric.irr_pprime_count_alt_oracle(n, p)
            assert 2 * count >= n - 1 >= p - 1


def test_alt_oracle_agrees_with_engine_on_a7():
    degrees = engine.irreducible_degrees(engine.alternating_group(7))
    assert degrees.pprime_count(7) == symmetric.irr_pprime_count_alt_oracle(7, 7) == 5
    assert degrees.degrees == symmetric.alternating_degrees(7)


def test_verify_bounds_sweep():
    report = symmetric.verify_symmetric_bounds(15)
    assert report.status == "pass"
    assert report.counters["violations"] == 0
    flagged = [row for row in report.rows if row["flagged_n6"]]
    assert flagged and all(row["n"] == 6 for row in flagged)


def test_verify_bounds_macdonald_values():
    report = symmetric.verify_symmetric_bounds(14, primes=[13])
    values = {(row["n"], row["p"]): row["formula"] for row in report.rows}
    assert values[(13, 13)] == 13
    assert values[(14, 13)] == 13


def _cellwise_conjugate(shape):
    return tuple(sum(1 for row in shape if row > i)
                 for i in range(shape[0] if shape else 0))


def _cellwise_degree(shape):
    n = sum(shape)
    conj = _cellwise_conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    degree, rem = divmod(math.factorial(n), hooks)
    assert rem == 0
    return degree


def _cellwise_alternating_degrees(n):
    degrees, seen = [], set()
    for shape in enumerate_partitions(n):
        if shape in seen:
            continue
        conj = _cellwise_conjugate(shape)
        d = _cellwise_degree(shape)
        if conj == shape:
            degrees += [d // 2, d // 2]
        else:
            seen.add(conj)
            degrees.append(d)
        seen.add(shape)
    return tuple(sorted(degrees))


def test_symmetric_degrees_match_cellwise_reference():
    """The one-walk conjugate and row-sliced hook product against the
    per-cell hook formula, up to the oracle bound."""
    for n in [*range(0, 23), symmetric.ORACLE_BOUND]:
        expected = tuple((shape, _cellwise_degree(shape))
                         for shape in enumerate_partitions(n))
        assert symmetric.symmetric_degrees(n) == expected, n
    for n in range(0, 16):
        for shape in enumerate_partitions(n):
            conj = symmetric.conjugate_shape(shape)
            assert conj == _cellwise_conjugate(shape)
            assert symmetric.conjugate_shape(conj) == shape
            assert symmetric.hook_degree(shape) == _cellwise_degree(shape)
    for n in range(5, 13):
        assert symmetric.alternating_degrees(n) == _cellwise_alternating_degrees(n)
