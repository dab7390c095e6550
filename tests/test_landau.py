import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppchars import landau
from ppchars.errors import SizeLimitError


def trial_division_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_examples():
    assert landau.is_prime(257)
    assert not landau.is_prime(1)
    assert landau.is_prime(65537)
    assert not landau.is_prime(0) and not landau.is_prime(-7)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_trial_division(n):
    assert landau.is_prime(n) == trial_division_is_prime(n)


def test_is_prime_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert landau.is_prime(p) and landau.is_prime(q)
    assert not landau.is_prime(p * q)


def test_is_prime_beyond_the_proven_bases():
    """psi_12 is a strong pseudoprime to the 12 bases 2 ... 37 but not to 41;
    psi_13 passes all 13 bases 2 ... 41, where they prove nothing, so it is
    refused rather than called prime."""
    psi_12 = 318_665_857_834_031_151_167_461
    assert not landau.is_prime(psi_12)
    assert landau.factorize(psi_12) == {399_165_290_221: 1, 798_330_580_441: 1}
    psi_13 = 3_317_044_064_679_887_385_961_981
    with pytest.raises(SizeLimitError):
        landau.is_prime(psi_13)
    assert landau.is_prime(2**61 - 1)
    with pytest.raises(SizeLimitError):  # a prime, but past the proof
        landau.is_prime(2**89 - 1)


def test_factorize():
    assert landau.factorize(1) == {}
    assert landau.factorize(2**10) == {2: 10}
    assert landau.factorize(511) == {7: 1, 73: 1}
    assert landau.factorize(696729600) == {2: 14, 3: 5, 5: 2, 7: 1}
    n = 10_000_019 * 10_000_079
    assert landau.factorize(n) == {10_000_019: 1, 10_000_079: 1}


def test_landau_primes_300():
    lp = landau.landau_primes(300)
    assert [x.p for x in lp] == [2, 5, 17, 37, 101, 197, 257]
    assert lp[0].degenerate and not any(x.degenerate for x in lp[1:])
    assert all(x.m * x.m + 1 == x.p for x in lp)
    # m is even for every non-degenerate entry
    assert all(x.m % 2 == 0 for x in lp if not x.degenerate)


def test_landau_primes_1000():
    got = [x.p for x in landau.landau_primes(1000) if not x.degenerate]
    assert got == [5, 17, 37, 101, 197, 257, 401, 577, 677]


def test_landau_primes_cross_check():
    for limit in (50, 300, 2000):
        expected = [
            m * m + 1
            for m in range(1, math.isqrt(limit - 1) + 1)
            if trial_division_is_prime(m * m + 1)
        ]
        assert [x.p for x in landau.landau_primes(limit)] == expected


def test_multiplicative_order_examples():
    assert landau.multiplicative_order(19, 5) == 2
    assert landau.multiplicative_order(1, 7) == 1
    assert landau.multiplicative_order(3, 7) == 6
    with pytest.raises(ValueError):
        landau.multiplicative_order(10, 5)


@given(st.integers(min_value=2, max_value=2000), st.integers(min_value=1, max_value=2000))
@settings(max_examples=200, deadline=None)
def test_multiplicative_order_brute(n, a):
    if math.gcd(a, n) != 1:
        return
    t = landau.multiplicative_order(a, n)
    assert pow(a, t, n) == 1
    # brute minimality
    x = a % n
    steps = 1
    while x != 1:
        x = x * a % n
        steps += 1
    assert steps == t
    assert landau.euler_phi(n) % t == 0


def test_prime_powers():
    assert landau.prime_powers(9) == [
        (2, 1, 2), (3, 1, 3), (2, 2, 4), (5, 1, 5),
        (7, 1, 7), (2, 3, 8), (3, 2, 9),
    ]
    sixteens = [t for t in landau.prime_powers(16) if t[2] == 16]
    assert sixteens == [(2, 4, 16)]
    pps = landau.prime_powers(256)
    assert (2, 8, 256) in pps
    assert all(landau.is_prime(r) for r, _, _ in pps)


def test_is_perfect_square():
    assert landau.is_perfect_square(0) and landau.is_perfect_square(256)
    assert not landau.is_perfect_square(2) and not landau.is_perfect_square(-4)
