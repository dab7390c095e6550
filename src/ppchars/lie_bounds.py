"""Inequality tables and grid checks for groups of Lie type.

Everything is verified in exact integer arithmetic; square roots never
appear because each inequality of the shape X > 2c*sqrt(p-1) is compared
as X^2 > 4c^2(p-1) with both sides integers (or scaled by an exact common
denominator first).

The invariant-character table is ingested data: the character counts per
(group, d-list) row come from published tables of unipotent characters
and are not recomputed here.  What IS recomputed is the prime bound each
count yields: floor(k^2/4) + 1 rows with non-cyclic Sylow subgroups,
floor(k^4/16) + 1 for cyclic ones.  Floor semantics reproduce every
printed bound exactly and are pinned by the regression test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConsistencyError
from .landau import factorize, is_prime, prime_powers
from .partitions import split_count
from .report import Report

E8_WEYL_ORDER = 696729600

DEFAULT_Q_MAX = 512
DEFAULT_RANK_MAX = 12
DEFAULT_F_MAX = 9


@lru_cache(maxsize=None)
def cyclotomic_value(d: int, q: int) -> int:
    """Phi_d(q) by exact divisor-product division of q^d - 1."""
    if d < 1 or q < 2:
        raise ValueError("need d >= 1 and q >= 2")
    value = q**d - 1
    for e in range(1, d):
        if d % e == 0:
            value, rem = divmod(value, cyclotomic_value(e, q))
            if rem:
                raise ConsistencyError(f"inexact cyclotomic division at ({d},{q})")
    return value


def lemma_easy_bound(count: int, cyclic_sylow: bool) -> int:
    """Largest prime bound certified by `count` invariant p'-characters:
    floor(count^2/4) + 1, or floor(count^4/16) + 1 with cyclic Sylow."""
    if count < 1:
        raise ValueError("count must be positive")
    if cyclic_sylow:
        return count**4 // 16 + 1
    return count**2 // 4 + 1


@dataclass(frozen=True)
class InvariantCharRow:
    group_tag: str
    d_list: str
    count: int
    cyclic_sylow: bool
    stated_p_bound: int


# Rows of the exceptional-group invariant unipotent character table; the
# left-half rows have non-cyclic Sylow subgroups (torus multiplicity > 1),
# the right-half rows cyclic ones.
TABLE2: tuple[InvariantCharRow, ...] = (
    InvariantCharRow("G2", "1,2", 6, False, 10),
    InvariantCharRow("G2", "3,6", 6, True, 82),
    InvariantCharRow("3D4", "1,2", 6, False, 10),
    InvariantCharRow("3D4", "3,6", 7, False, 13),
    InvariantCharRow("3D4", "12", 4, True, 17),
    InvariantCharRow("2F4", "1,4,8',8''", 7, False, 13),
    InvariantCharRow("2F4", "12,24',24''", 12, True, 1297),
    InvariantCharRow("F4", "1,2", 11, False, 31),
    InvariantCharRow("F4", "3,6", 9, False, 21),
    InvariantCharRow("F4", "8,12", 8, True, 257),
    InvariantCharRow("(2)E6", "1,2,3,4,6", 16, False, 65),
    InvariantCharRow("(2)E6", "5,8,9,12,(10,18)", 5, True, 40),
    InvariantCharRow("E7", "1,2,3,4,6", 48, False, 577),
    InvariantCharRow("E7", "5,7,8,9,10,12,14,18", 14, True, 2402),
    InvariantCharRow("E8", "1,2,3,4,6", 59, False, 871),
    InvariantCharRow("E8", "5,8,10,12", 32, False, 257),
    InvariantCharRow("E8", "7,9,14,18", 28, True, 38417),
    InvariantCharRow("E8", "15,20,24,30", 20, True, 10001),
)

# Invariant unipotent character counts for the small primes with
# non-abelian Sylow subgroups (p in {5, 7}).
TABLE1: tuple[tuple[str, int, int], ...] = (
    ("(2)E6", 5, 10),
    ("E7", 5, 30),
    ("E8", 5, 20),
    ("E7", 7, 14),
    ("E8", 7, 28),
)


def verify_table2() -> Report:
    rows = []
    for entry in TABLE2:
        recomputed = lemma_easy_bound(entry.count, entry.cyclic_sylow)
        rows.append(
            {
                "group": entry.group_tag,
                "d": entry.d_list,
                "count": entry.count,
                "cyclic_sylow": entry.cyclic_sylow,
                "stated": entry.stated_p_bound,
                "recomputed": recomputed,
                "ok": recomputed == entry.stated_p_bound,
            }
        )
    return Report(
        command="bounds --table2",
        parameters={},
        rows=rows,
        counters={"rows": len(rows), "mismatches": sum(not r["ok"] for r in rows)},
    )


def table1_report() -> Report:
    """Each (group, p, count) must satisfy count^2/4 + 1 > p."""
    rows = []
    for group_tag, p, count in TABLE1:
        ok = count * count > 4 * (p - 1)
        rows.append(
            {
                "group": group_tag,
                "p": p,
                "count": count,
                "bound": count * count // 4 + 1,
                "ok": ok,
            }
        )
    return Report(
        command="bounds --table1",
        parameters={},
        rows=rows,
        counters={"rows": len(rows)},
    )


# ---------------------------------------------------------------------------
# defining characteristic

def defining_char_check() -> Report:
    """q^l > 2*sqrt(p-1) * |Out|-bound over the grid 2 <= l <= 8,
    5 <= p <= 97 and 1 <= f <= 6, with q = p^f.

    The generic outer bound is (6l+3)f; the two known tight points
    (f, l, p) = (1, 2, 5) and (1, 2, 7) use 6 and 8 respectively.
    """
    l_max, r_max, f_max = 8, 97, 6
    rows = []
    for p in (x for x in range(5, r_max + 1) if is_prime(x)):
        for l in range(2, l_max + 1):
            for f in range(1, f_max + 1):
                if (f, l, p) == (1, 2, 5):
                    bound = 6
                elif (f, l, p) == (1, 2, 7):
                    bound = 8
                else:
                    bound = (6 * l + 3) * f
                q = p**f
                ok = q ** (2 * l) > 4 * (p - 1) * bound * bound
                rows.append(
                    {"l": l, "p": p, "f": f, "out_bound": bound, "ok": ok}
                )
    return Report(
        command="bounds --defining",
        parameters={"l_max": l_max, "r_max": r_max, "f_max": f_max},
        rows=rows,
        counters={"checked": len(rows), "violations": sum(not r["ok"] for r in rows)},
    )


# ---------------------------------------------------------------------------
# wreath product character counts

@lru_cache(maxsize=None)
def wreath_irr_count(d: int, a: int) -> int:
    """|Irr(C_d wr S_a)| = number of d-tuples of partitions of total size a."""
    return split_count(d, a)


# ---------------------------------------------------------------------------
# classical families in non-defining characteristic

FAMILIES = ("bc", "d", "2d", "a", "2a")


_FAMILY_CFG = {
    # (n_min, torus convention); _check_point derives the wreath cyclic
    # factor and the rhs gcd from the convention
    "bc": (2, "pm"),
    "d": (4, "pm"),
    "2d": (4, "pm"),
    "a": (3, "linear"),
    "2a": (3, "unitary"),
}


def _order_dividing(q: int, p: int, m: int) -> int:
    """ord_p(q) when it divides m: the least divisor t of m with
    q^t = 1 (mod p).  Every candidate p divides q^d -+ 1, so m = 2d
    suffices and p - 1 is never factorized."""
    return next(t for t in range(1, m + 1) if m % t == 0 and pow(q, t, p) == 1)


@lru_cache(maxsize=None)
def _eligible_primes(convention: str, q: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """(p, sign, torus order) for every prime p >= 5 for which d is minimal
    under the family's torus convention.  Such p divides q^d -+ 1 and so
    is coprime to q.  Cached across families: bc, d and 2d share the "pm"
    convention."""
    minus, plus = q**d - 1, q**d + 1
    eligible = []
    if convention == "pm":
        # least d with p | q^d -+ 1 is e/2 (sign +1) for even e = ord_p(q),
        # and e (sign -1) for odd e
        for p in sorted(set(_prime_divisors_ge5(minus) + _prime_divisors_ge5(plus))):
            e = _order_dividing(q, p, 2 * d)
            if e == 2 * d:
                eligible.append((p, +1, plus))
            elif e == d and d % 2:
                eligible.append((p, -1, minus))
    elif convention == "linear":
        for p in _prime_divisors_ge5(minus):
            if _order_dividing(q, p, d) == d:
                eligible.append((p, -1, minus))
    else:
        # unitary: the torus is q^d - (-1)^d, and d is minimal when
        # q^dd != (-1)^dd (mod p) for all dd < d
        sign, torus = (1, plus) if d % 2 else (-1, minus)
        for p in _prime_divisors_ge5(torus):
            if all(pow(q, dd, p) != (1 if dd % 2 == 0 else p - 1)
                   for dd in range(1, d)):
                eligible.append((p, sign, torus))
    return tuple(eligible)


@lru_cache(maxsize=None)
def _prime_divisors_ge5(value: int) -> tuple[int, ...]:
    if value <= 1:
        return ()
    return tuple(p for p in factorize(value) if p >= 5)


def classical_inequality_check(
    family: str,
    q_max: int = DEFAULT_Q_MAX,
    rank_max: int = DEFAULT_RANK_MAX,
    f_max: int = DEFAULT_F_MAX,
) -> Report:
    """Sweep |Irr(W_d)| + |T_d| / |W_d| > 2 f g sqrt(p-1) over a grid.

    Points are (q = r^f, n, d, a = n // d, p) with a >= 2 and p >= 5 a
    prime with d minimal for p (sign-matched torus order q^d +- 1), p
    coprime to q, and p > a so that Sylow p-subgroups are abelian (p <= a
    belongs to the non-abelian branch, which is handled by a different and
    much cruder character count).

    For the two orthogonal families the relative Weyl group can be an
    index-two subgroup of the full wreath product, so their binding check
    conservatively uses floor(count/2); the full-count verdict is reported
    alongside in each row.  A grid with no point (q, n, d, a) to check is
    refused with ValueError, not reported as a pass.
    """
    if family not in _FAMILY_CFG:
        raise ValueError(f"unknown family {family!r}; pick from {FAMILIES}")
    n_min, convention = _FAMILY_CFG[family]
    halved = family in ("d", "2d")
    rows = []
    skipped_no_p = 0
    skipped_nonabelian = 0
    for r, f, q in prime_powers(q_max):
        if f > f_max:
            continue
        for n in range(n_min, rank_max + 1):
            for d in range(1, n + 1):
                a = n // d
                if a < 2:
                    continue
                checked = _check_point(
                    family, convention, halved, r, f, q, n, d, a,
                    _eligible_primes(convention, q, d), rows,
                )
                if checked == "no_p":
                    skipped_no_p += 1
                elif checked == "nonabelian":
                    skipped_nonabelian += 1
    if not (rows or skipped_no_p or skipped_nonabelian):
        raise ValueError(f"no grid point for family {family} with q_max = "
                         f"{q_max}, rank_max = {rank_max}, f_max = {f_max}")
    return Report(
        command=f"bounds --classical --family {family}",
        parameters={
            "family": family,
            "q_max": q_max,
            "rank_max": rank_max,
            "f_max": f_max,
        },
        rows=rows,
        counters={
            "checked": len(rows),
            "violations": sum(not r["ok"] for r in rows),
            "points_without_eligible_p": skipped_no_p,
            "points_nonabelian_sylow_only": skipped_nonabelian,
        },
    )


def _check_point(family, convention, halved, r, f, q, n, d, a, eligible, rows) -> str:
    """Append one row per eligible p > a at the grid point (q = r^f, n, d,
    a); everything but p and the torus sign is shared by its rows."""
    if a < 1 or n != a * d + n % d:
        raise ValueError(f"inconsistent rank data: {family} q={q} n={n} d={d} a={a}")
    if not eligible:
        return "no_p"
    # p <= a is the non-abelian Sylow branch, where a different argument applies
    abelian = [e for e in eligible if e[0] > a]
    if not abelian:
        return "nonabelian"
    wreath_factor = 2 * d if convention == "pm" else d
    full_count = wreath_irr_count(wreath_factor, a)
    count = full_count // 2 if halved else full_count
    denom = wreath_factor**a * math.factorial(a)
    gcd_factor = (
        math.gcd(2, q - 1)
        if convention == "pm"
        else math.gcd(n, q - 1)
        if convention == "linear"
        else math.gcd(n, q + 1)
    )
    rhs_factor_sq = (2 * f * gcd_factor * denom) ** 2
    wreath_num = count * denom
    torus_powers: dict[int, int] = {}
    for p, sign, torus in abelian:
        torus_power = torus_powers.get(torus)
        if torus_power is None:
            torus_power = torus_powers[torus] = torus**a
        lhs_num = wreath_num + torus_power
        rhs_sq = rhs_factor_sq * (p - 1)
        row = {
            "family": family, "q": q, "r": r, "f": f, "d": d, "a": a, "n": n,
            "p": p, "sign": sign,
            "wreath_count": count,
            "lhs_numerator": lhs_num,
            "lhs_denominator": denom,
            "rhs_squared_num": rhs_sq,
            "ok": lhs_num * lhs_num > rhs_sq,
        }
        if halved:
            full_lhs = full_count * denom + torus_power
            row["wreath_count_full"] = full_count
            row["ok_full_weyl"] = full_lhs * full_lhs > rhs_sq
            row["weyl_halving_note"] = "index-2 subgroup possible"
        rows.append(row)
    return "checked"


# ---------------------------------------------------------------------------
# the E8, d = 1 tail check

def e8_d1_check(q_max: int = 4096) -> Report:
    """(q-1)^8 / |W(E8)| > 2 f sqrt(p-1) for prime powers 1001 <= q <= q_max
    and primes 5 <= p | q - 1.

    Compared exactly as (q-1)^16 > |W(E8)|^2 * 4 f^2 (p-1).  The f factor
    bounds log_p(q) only when r <= p; each row therefore also carries the
    strictly dominating variant with f replaced by ceil(log_p q), computed
    by integer powering.  A grid with no prime power to check is refused
    with ValueError, not reported as a pass.
    """
    q_min = 1001
    grid = [(r, f, q) for r, f, q in prime_powers(q_max) if q >= q_min]
    if not grid:
        raise ValueError(f"no prime power q with {q_min} <= q <= {q_max}")
    rows = []
    w2 = E8_WEYL_ORDER * E8_WEYL_ORDER
    for r, f, q in grid:
        for p in _prime_divisors_ge5(q - 1):
            lhs = (q - 1) ** 16
            ok = lhs > w2 * 4 * f * f * (p - 1)
            log_ceil = 1
            acc = p
            while acc < q:
                acc *= p
                log_ceil += 1
            ok_strict = lhs > w2 * 4 * log_ceil * log_ceil * (p - 1)
            rows.append(
                {
                    "q": q,
                    "r": r,
                    "f": f,
                    "p": p,
                    "log_p_q_ceil": log_ceil,
                    "ok": ok,
                    "ok_strict": ok_strict,
                }
            )
    return Report(
        command="bounds --e8-d1",
        parameters={"q_min": q_min, "q_max": q_max},
        rows=rows,
        counters={
            "checked": len(rows),
            "violations": sum(not r["ok"] for r in rows),
            "strict_violations": sum(not r["ok_strict"] for r in rows),
        },
    )
