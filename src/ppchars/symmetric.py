"""p'-degree character counts for symmetric and alternating groups.

Two independent routes are implemented and cross-checked:

* the digit-product formula |Irr_p'(S_n)| = prod_i k(p^i, a_i), where
  n = a_0 + a_1 p + ... + a_r p^r is the p-adic expansion (Macdonald);
* a brute-force oracle that computes every character degree of S_n by the
  hook length formula and counts the ones coprime to p.

Alternating-group degrees come from S_n data by the restriction rule: a
pair {shape, conjugate} with shape != conjugate contributes one character
of the same degree, a self-conjugate shape contributes two characters of
half the degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import partitions
from .errors import ConsistencyError, SizeLimitError
from .landau import is_prime, primes_up_to
from .report import Report

ORACLE_BOUND = 30

Shape = tuple[int, ...]


@dataclass(frozen=True)
class PAdicExpansion:
    """Digits a_0..a_r of n in base p, least significant first, a_r != 0."""

    n: int
    p: int
    digits: tuple[int, ...]


def p_adic_expansion(n: int, p: int) -> PAdicExpansion:
    if n < 1:
        raise ValueError("n must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    digits = []
    m = n
    while m:
        m, d = divmod(m, p)
        digits.append(d)
    exp = PAdicExpansion(n, p, tuple(digits))
    assert sum(d * p**i for i, d in enumerate(digits)) == n
    return exp


def macdonald_count(n: int, p: int) -> int:
    """|Irr_p'(S_n)| as the product of k(p^i, a_i) over the base-p digits."""
    exp = p_adic_expansion(n, p)
    return math.prod(
        partitions.split_count(p**i, a) for i, a in enumerate(exp.digits)
    )


def _validate_shape(parts) -> Shape:
    shape = tuple(int(x) for x in parts)
    if any(x < 1 for x in shape):
        raise ValueError("shape parts must be positive")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("shape parts must be weakly decreasing")
    return shape


def _conjugate(shape: Shape) -> Shape:
    """Column lengths of a valid shape, in one walk up its rows: the
    columns past row i + 1's length and within row i's have length i + 1."""
    cols: list[int] = []
    below = 0
    for i in range(len(shape) - 1, -1, -1):
        cols += [i + 1] * (shape[i] - below)
        below = shape[i]
    return tuple(cols)


def _hook_product(shape: Shape) -> int:
    """Product of the hook lengths of a valid shape.  The hook of cell
    (i, j) is (row_i - i - 1) + (col_j - j); the second term is shared by
    every row, so each row's hooks are one shifted slice of it."""
    shifted = [c - j for j, c in enumerate(_conjugate(shape))]
    hooks = 1
    for i, row in enumerate(shape):
        hooks *= math.prod(map((row - i - 1).__add__, shifted[:row]))
    return hooks


def _degree(shape: Shape, n_factorial: int) -> int:
    """n! over the hook product; the division must be exact, and anything
    else is a bug."""
    degree, rem = divmod(n_factorial, _hook_product(shape))
    if rem:
        raise ConsistencyError(
            f"hook product does not divide {sum(shape)}! for {shape}"
        )
    return degree


def conjugate_shape(parts) -> Shape:
    return _conjugate(_validate_shape(parts))


def hook_degree(parts) -> int:
    """Character degree of S_n for the given shape: n! over the product of
    hook lengths."""
    shape = _validate_shape(parts)
    return _degree(shape, math.factorial(sum(shape)))


@lru_cache(maxsize=64)
def symmetric_degrees(n: int) -> tuple[tuple[Shape, int], ...]:
    """(shape, degree) for every irreducible character of S_n."""
    n_factorial = math.factorial(n)
    return tuple(
        (shape, _degree(shape, n_factorial))
        for shape in partitions.enumerate_partitions(n)
    )


def irr_pprime_count_sym_oracle(n: int, p: int) -> int:
    """Count partitions of n whose hook-length degree is coprime to p."""
    if n > ORACLE_BOUND:
        raise SizeLimitError(f"oracle bound is n <= {ORACLE_BOUND}, got {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(1 for _, d in symmetric_degrees(n) if d % p != 0)


@lru_cache(maxsize=64)
def alternating_degrees(n: int) -> tuple[int, ...]:
    """Sorted degrees of the irreducible characters of A_n (n >= 2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    degrees = []
    seen = set()
    for shape, d in symmetric_degrees(n):
        if shape in seen:
            continue
        conj = _conjugate(shape)
        if conj == shape:
            half, rem = divmod(d, 2)
            if rem:
                raise ConsistencyError(
                    f"self-conjugate shape {shape} has odd degree {d}"
                )
            degrees += [half, half]
        else:
            seen.add(conj)
            degrees.append(d)
        seen.add(shape)
    return tuple(sorted(degrees))


def irr_pprime_count_alt_oracle(n: int, p: int) -> int:
    """Count A_n character degrees coprime to p (restriction-rule oracle)."""
    if n < 5:
        raise ValueError("alternating oracle needs n >= 5")
    if n > ORACLE_BOUND:
        raise SizeLimitError(f"oracle bound is n <= {ORACLE_BOUND}, got {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(1 for d in alternating_degrees(n) if d % p != 0)


def verify_symmetric_bounds(n_max: int, primes=None) -> Report:
    """Sweep all n <= n_max and primes p <= n: the digit-product count must
    equal the hook oracle and satisfy count >= n-1 >= p-1.

    n = 6 rows are flagged (Aut(A_6) is bigger than S_6, so downstream
    alternating-group arguments treat it separately), but still checked.
    A sweep that would check nothing, with n_max < 2 or no requested
    prime at most n_max, is refused with ValueError: it proves nothing.
    """
    if n_max > ORACLE_BOUND:
        raise SizeLimitError(f"oracle bound is n <= {ORACLE_BOUND}, got {n_max}")
    wanted = set(primes) if primes is not None else None
    for p in sorted(wanted or ()):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if wanted is not None and not any(p <= n_max for p in wanted):
        raise ValueError(f"no requested prime is at most n_max = {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        for p in primes_up_to(n):
            if wanted is not None and p not in wanted:
                continue
            formula = macdonald_count(n, p)
            oracle = irr_pprime_count_sym_oracle(n, p)
            ok = formula == oracle and formula >= n - 1 >= p - 1
            rows.append(
                {
                    "n": n,
                    "p": p,
                    "formula": formula,
                    "oracle": oracle,
                    "lower_bound": n - 1,
                    "ok": ok,
                    "flagged_n6": n == 6,
                }
            )
    return Report(
        command="verify-symmetric",
        parameters={"n_max": n_max, "primes": sorted(wanted) if wanted else "all"},
        rows=rows,
        counters={"checked": len(rows), "violations": sum(not r["ok"] for r in rows)},
    )
