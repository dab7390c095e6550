"""Number theory utilities: primality, factorization, orders, Landau primes.

A "Landau prime" here is a prime p with p - 1 a perfect square, so that
2*sqrt(p-1) is an even integer.  Whether infinitely many exist is an open
problem going back to Landau; this module only enumerates them below a
bound.  p = 2 fits the defining equation with m = 1 but is degenerate for
every construction downstream, so it is returned flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SizeLimitError

# Deterministic Miller-Rabin: the first 13 primes as bases are proven for
# every n below psi_13 = 3,317,044,064,679,887,385,961,981 (Sorenson and
# Webster 2015), the least strong pseudoprime to all of them.  The first 12
# are proven only below psi_12 = 318,665,857,834,031,151,167,461, which is
# 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981

# The sieve to 10^7 takes about 0.5 s and 35 MB on a 2-vCPU Xeon; to 10^8,
# 9 s and 350 MB.  The largest documented --qmax is 4096.
SIEVE_LIMIT = 10_000_000

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Exact primality below psi_13 (about 3.3 * 10^24).  A number at or
    above it that passes every base is refused with SizeLimitError, since
    the bases prove nothing there."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BELOW:
        raise SizeLimitError(
            f"{n} passes Miller-Rabin to bases 2..41, which proves "
            f"primality only below {_MR_PROVEN_BELOW}"
        )
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise RuntimeError(f"rho failed on {n}")  # no known input reaches this


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; exact, and refused with
    SizeLimitError when a cofactor of at least psi_13 (about 3.3 * 10^24)
    passes every Miller-Rabin base of `is_prime`.

    Pollard rho takes about sqrt(s) steps for the smallest prime factor s,
    so q^d +- 1 of about 108 bits, which the classical grid's range
    reaches, can take seconds once its small factors are gone:
    484^11 + 1 = 5 * 97 * 9617835527609 * 73194743542229 takes 11 to 14 s
    on a 2-vCPU Xeon."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def prime_divisors(n: int) -> list[int]:
    return list(factorize(n)) if n > 1 else []


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, refused past SIEVE_LIMIT before the sieve is
    allocated."""
    if n > SIEVE_LIMIT:
        raise SizeLimitError(f"sieve up to {n} exceeds the sieve bound "
                             f"{SIEVE_LIMIT}")
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray((n - i * i) // i + 1)
    return [i for i, b in enumerate(sieve) if b]


def euler_phi(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def multiplicative_order(a: int, n: int) -> int:
    """Least t >= 1 with a^t = 1 (mod n); requires gcd(a, n) = 1."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1; order undefined")
    t = euler_phi(n)
    for p in factorize(t):
        while t % p == 0 and pow(a, t // p, n) == 1:
            t //= p
    return t


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class LandauPrime:
    """A prime p = m^2 + 1.  p = 2 (m = 1) is flagged degenerate: the
    extremal constructions need p >= 5."""

    p: int
    m: int
    degenerate: bool = False


def landau_primes(limit: int) -> list[LandauPrime]:
    """All primes p = m^2 + 1 <= limit, ascending, p = 2 flagged."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    out = []
    m = 1
    while m * m + 1 <= limit:
        p = m * m + 1
        if is_prime(p):
            out.append(LandauPrime(p, m, degenerate=(p == 2)))
        m += 1
    return out


def prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """All (r, f, q = r^f) with q <= limit, ascending in q."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    out = []
    for r in primes_up_to(limit):
        q, f = r, 1
        while q <= limit:
            out.append((r, f, q))
            q *= r
            f += 1
    out.sort(key=lambda t: t[2])
    return out
