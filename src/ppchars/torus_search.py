"""Diophantine search for cyclic self-centralizing maximal tori of prime
order p = m^2 + 1, where m is the automizer order.

Each of the fourteen series is described by one TorusFamily record:
candidate torus orders and base automizer orders as closed formulas in
(r, f, q, n), plus the order of the field-automorphism group.  A field
(or graph-field) automorphism of degree u multiplies the automizer, so a
candidate needs u | f in general, u | 2f for 2D, 2A, E6 and 2E6 and for
the graph-field maps of G2 (r = 3) and F4 (r = 2), and u | 3f for the
triality series 3D4.  A hit is recorded
whenever torus order T is prime and (base * u)^2 + 1 = T.  The
exceptional series have no rank and are swept at n = 0.

Completeness is only claimed within the search bounds; the report always
states them.  Exceptional-series tori whose order is a product of two
integers > 1 for every q (the E7 cyclic tori) can never have prime order
and are omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, SizeLimitError
from .landau import (
    is_perfect_square,
    is_prime,
    landau_primes,
    prime_powers,
)
from .lie_bounds import cyclotomic_value
from .report import Report


@dataclass(frozen=True, order=True)
class TorusHit:
    p: int
    label: str
    family: str
    q: int
    r: int
    f: int
    n: int
    u: int
    m: int

    def __post_init__(self):
        if not is_prime(self.p) or self.m * self.m + 1 != self.p:
            raise ConsistencyError(f"bad hit invariants: {self}")


def _torus_hit(family, label, q, r, f, n, torus, base, field_order):
    """The hit (base*u)^2 + 1 = torus prime with u | field_order, if any;
    its label is `label`, suffixed `.u` when u > 1."""
    # the square and automizer tests first: they are exact at any size,
    # while is_prime refuses a number past its proven range that passes
    # every base
    if torus < 5 or not is_perfect_square(torus - 1):
        return None
    m = math.isqrt(torus - 1)
    u, rem = divmod(m, base)
    if rem or field_order % u or not is_prime(torus):
        return None
    return TorusHit(
        p=torus, label=label if u == 1 else f"{label}.{u}", family=family,
        q=q, r=r, f=f, n=n, u=u, m=m,
    )


def _exact_div(numerator: int, denominator: int) -> int:
    value, rem = divmod(numerator, denominator)
    if rem:
        raise ConsistencyError(
            f"inexact torus order {numerator}/{denominator}"
        )
    return value


@dataclass(frozen=True)
class TorusFamily:
    """One series: candidate cyclic self-centralizing torus orders with
    their base automizer orders, the order of the field (or graph-field)
    automorphism group multiplying the automizer, and the label
    convention.  The exceptional series have no rank: n_min = 0."""

    tag: str
    n_min: int
    tori: object  # (r, f, q, n) -> [(torus order, base automizer)]
    field_order: object  # (r, f) -> order of the field part
    label: object  # (q, n) -> base label


def _bc_tori(r, f, q, n):
    g = math.gcd(2, q - 1)
    return [((q**n - 1) // g, 2 * n), ((q**n + 1) // g, 2 * n)]


def _d_tori(r, f, q, n):
    out = [((q**n - 1) // math.gcd(4, q**n - 1), n)]
    if q == 2:
        out.append((q ** (n - 1) - 1, 2 * (n - 1)))
    return out


def _2d_tori(r, f, q, n):
    out = [((q**n + 1) // math.gcd(2, q**n + 1), n)]
    if q == 2:
        out.append((q ** (n - 1) + 1, 2 * (n - 1)))
    return out


def _a_tori(r, f, q, n):
    # the n = 2 split torus keeps automizer 2 (its type is (1, 1))
    d = math.gcd(n, q - 1)
    return [
        (_exact_div(q**n - 1, (q - 1) * d), n),
        (_exact_div(q ** (n - 1) - 1, d), 2 if n == 2 else n - 1),
    ]


def _2a_tori(r, f, q, n):
    d = math.gcd(n, q + 1)
    return [
        (_exact_div(q**n - (-1) ** n, (q + 1) * d), n),
        (_exact_div(q ** (n - 1) - (-1) ** (n - 1), d), n - 1),
    ]


CLASSICAL_FAMILIES: tuple[TorusFamily, ...] = (
    TorusFamily("bc", 2, _bc_tori, lambda r, f: f,
                lambda q, n: f"S{2 * n}({q})"),
    TorusFamily("d", 4, _d_tori, lambda r, f: f,
                lambda q, n: f"O{2 * n}^+({q})"),
    TorusFamily("2d", 4, _2d_tori, lambda r, f: 2 * f,
                lambda q, n: f"O{2 * n}^-({q})"),
    TorusFamily("a", 2, _a_tori, lambda r, f: f,
                lambda q, n: f"L{n}({q})"),
    TorusFamily("2a", 3, _2a_tori, lambda r, f: 2 * f,
                lambda q, n: f"U{n}({q})"),
)


def _odd_power(r, f, char):
    """q = char^(2k+1) with k >= 1: the fields of 2B2, 2F4 and 2G2."""
    return r == char and f % 2 == 1 and f >= 3


def _2b2_tori(r, f, q, n):
    if not _odd_power(r, f, 2):
        return []
    s = 2 ** ((f + 1) // 2)  # sqrt(2q)
    return [(q - 1, 2), (q + s + 1, 4), (q - s + 1, 4)]


def _2f4_tori(r, f, q, n):
    if not _odd_power(r, f, 2):
        return []
    s = 2 ** ((f + 1) // 2)  # sqrt(2q)
    s3 = 2 ** ((3 * f + 1) // 2)  # sqrt(2q^3)
    return [(q * q + s3 + q + s + 1, 12), (q * q - s3 + q - s + 1, 12),
            (q**4 - q**2 + 1, 12)]


def _2g2_tori(r, f, q, n):
    if not _odd_power(r, f, 3):
        return []
    s = 3 ** ((f + 1) // 2)  # sqrt(3q)
    return [(q - 1, 2), (q + 1, 6), (q + s + 1, 6), (q - s + 1, 6)]


# Tori Phi_d(q): d = 3, 6 for G2, 12 for 3D4, 8 and 12 for F4, 9 for E6,
# 18 for 2E6, 15, 20, 24 and 30 for E8.  G2 at r = 3 and F4 at r = 2 have
# a graph-field map of order 2f.
EXCEPTIONAL_FAMILIES: tuple[TorusFamily, ...] = (
    TorusFamily("g2", 0,
                lambda r, f, q, n: [(q * q + q + 1, 6), (q * q - q + 1, 6)]
                if q >= 3 else [],
                lambda r, f: 2 * f if r == 3 else f, lambda q, n: f"G2({q})"),
    TorusFamily("3d4", 0, lambda r, f, q, n: [(q**4 - q**2 + 1, 4)],
                lambda r, f: 3 * f, lambda q, n: f"3D4({q})"),
    TorusFamily("f4", 0,
                lambda r, f, q, n: [(q**4 + 1, 8), (q**4 - q**2 + 1, 12)],
                lambda r, f: 2 * f if r == 2 else f, lambda q, n: f"F4({q})"),
    TorusFamily("e6", 0, lambda r, f, q, n: [(q**6 + q**3 + 1, 9)],
                lambda r, f: 2 * f, lambda q, n: f"E6({q})"),
    TorusFamily("2e6", 0, lambda r, f, q, n: [(q**6 - q**3 + 1, 9)],
                lambda r, f: 2 * f, lambda q, n: f"2E6({q})"),
    TorusFamily("e8", 0,
                lambda r, f, q, n: [(cyclotomic_value(d, q), d)
                                    for d in (15, 20, 24, 30)],
                lambda r, f: f, lambda q, n: f"E8({q})"),
    TorusFamily("2b2", 0, _2b2_tori, lambda r, f: f, lambda q, n: f"2B2({q})"),
    TorusFamily("2f4", 0, _2f4_tori, lambda r, f: f, lambda q, n: f"2F4({q})"),
    TorusFamily("2g2", 0, _2g2_tori, lambda r, f: f, lambda q, n: f"2G2({q})"),
)


def _sweep(families, q_max: int, n_max: int) -> list[TorusHit]:
    """Every family at every q <= q_max and n_min <= n <= n_max; the first
    hit for each (p, label) is kept."""
    hits: dict[tuple[int, str], TorusHit] = {}
    for r, f, q in prime_powers(q_max):
        for family in families:
            field_order = family.field_order(r, f)
            for n in range(family.n_min, n_max + 1):
                label = family.label(q, n)
                for torus, base in family.tori(r, f, q, n):
                    hit = _torus_hit(family.tag, label, q, r, f, n, torus,
                                     base, field_order)
                    if hit is not None:
                        hits.setdefault((hit.p, hit.label), hit)
    return sorted(hits.values())


# Each rank adds tori of about n log2 q bits for every q and family, so the
# sweep's time grows faster than n_max^2.  Measured on a shared 2-vCPU Xeon:
# at q_max = 256, n_max = 100 takes 0.25 s, 200 0.7 s, 400 2.1 s and 800
# 8.8 s; at q_max = 4096, n_max = 200 takes 5.6 s.
N_MAX_LIMIT = 400


def search(q_max: int = 256, n_max: int = 12) -> list[TorusHit]:
    """Classical-series sweep; hits deduplicated by (p, label).  A rank
    past N_MAX_LIMIT is refused before the sweep starts."""
    if n_max > N_MAX_LIMIT:
        raise SizeLimitError(f"rank {n_max} exceeds the torus rank bound "
                             f"{N_MAX_LIMIT}")
    return _sweep(CLASSICAL_FAMILIES, q_max, n_max)


def exceptional_series_hits(q_max: int = 256) -> list[TorusHit]:
    """Exceptional-series sweep (EXCEPTIONAL_FAMILIES, at n = 0); hits
    deduplicated by (p, label)."""
    return _sweep(EXCEPTIONAL_FAMILIES, q_max, 0)


# Landau primes are swept up to this bound, past every prime in THEOREM_LISTS
LANDAU_LIMIT = 300


def defining_characteristic_hits() -> list[TorusHit]:
    """Defining-characteristic branch: Sylow subgroups of order p occur
    only for L_2(p), with automizer (p-1)/gcd(p-1, 2); a hit needs that
    to equal sqrt(p-1), which happens exactly at p = 5."""
    hits = []
    for lp in landau_primes(LANDAU_LIMIT):
        if lp.degenerate:
            continue
        automizer = (lp.p - 1) // math.gcd(lp.p - 1, 2)
        if automizer == lp.m:
            hits.append(
                TorusHit(p=lp.p, label=f"L2({lp.p})", family="defining",
                         q=lp.p, r=lp.p, f=1, n=2, u=1, m=lp.m)
            )
    return hits


def alternating_check() -> Report:
    """Elements of order p in an alternating group are conjugate to at
    least (p-1)/2 of their powers, so a hit needs (p-1)/2 <= sqrt(p-1);
    among Landau primes that holds only at p = 5 (degenerate p = 2 aside),
    leaving the candidates A5 and A6 (where 5-cycles are non-rational)."""
    rows = []
    for lp in landau_primes(LANDAU_LIMIT):
        # (p-1)/2 <= sqrt(p-1)  <=>  (p-1)^2 <= 4(p-1)  <=>  p <= 5
        holds = (lp.p - 1) ** 2 <= 4 * (lp.p - 1)
        rows.append(
            {
                "p": lp.p,
                "half_p_minus_1": (lp.p - 1) // 2,
                "m": lp.m,
                "rationality_bound_holds": holds,
                "degenerate": lp.degenerate,
                "ok": holds == (lp.p <= 5),
            }
        )
    return Report(
        command="torus-search --alternating",
        parameters={"limit": LANDAU_LIMIT},
        rows=rows,
        counters={"candidates": len(_alternating_candidates(rows))},
    )


def _alternating_candidates(rows) -> list[tuple[str, int]]:
    return [(name, row["p"]) for row in rows
            if row["rationality_bound_holds"] and not row["degenerate"]
            for name in ("A5", "A6")]


def alternating_candidates() -> list[tuple[str, int]]:
    return _alternating_candidates(alternating_check().rows)


# The classification lists being verified: almost simple groups whose
# Sylow normalizer is the extremal Frobenius group, keyed by p.
THEOREM_LISTS: dict[int, frozenset[str]] = {
    5: frozenset({"A5", "A6", "L2(11)", "L3(4)"}),
    17: frozenset({"S4(4)", "O8^-(2)", "L2(16).2"}),
    37: frozenset({"2G2(27)", "U3(11).2"}),
    257: frozenset({"S16(2)", "O18^-(2)", "L2(256).8", "S4(16).4",
                    "S8(4).2", "O8^-(4).4", "O16^-(2).2", "F4(4).2"}),
}

# Sporadic low-rank isomorphisms folding linear-group hits onto the
# alternating labels.
ISOMORPHIC_LABEL: dict[str, str] = {
    "L2(4)": "A5",
    "L2(5)": "A5",
    "L2(9)": "A6",
}


def reconcile_with_theorem(q_max: int = 256, n_max: int = 12) -> Report:
    """Full hit set (classical + exceptional + defining characteristic +
    alternating candidates) against the classification lists: exact set
    equality per p, no extras at other primes."""
    all_hits = (
        search(q_max, n_max)
        + exceptional_series_hits(q_max)
        + defining_characteristic_hits()
    )
    by_p: dict[int, set[str]] = {}
    for h in all_hits:
        by_p.setdefault(h.p, set()).add(ISOMORPHIC_LABEL.get(h.label, h.label))
    for label, p in alternating_candidates():
        by_p.setdefault(p, set()).add(label)
    rows = []
    for p in sorted(set(THEOREM_LISTS) | set(by_p)):
        computed = by_p.get(p, set())
        expected = THEOREM_LISTS.get(p, frozenset())
        rows.append(
            {
                "p": p,
                "computed": sorted(computed),
                "expected": sorted(expected),
                "missing": sorted(expected - computed),
                "extra": sorted(computed - expected),
                "ok": computed == expected,
            }
        )
    return Report(
        command="torus-search --reconcile",
        parameters={"q_max": q_max, "n_max": n_max},
        rows=rows,
        counters={
            "hit_labels": sum(len(r["computed"]) for r in rows),
            "mismatched_primes": sum(not r["ok"] for r in rows),
        },
    )


def search_report(q_max: int = 256, n_max: int = 12) -> Report:
    hits = search(q_max, n_max) + exceptional_series_hits(q_max)
    hits.sort()
    rows = [
        {
            "p": h.p,
            "label": h.label,
            "family": h.family,
            "q": h.q,
            "r": h.r,
            "f": h.f,
            "n": h.n,
            "u": h.u,
            "m": h.m,
            "iso_note": ISOMORPHIC_LABEL.get(h.label, ""),
        }
        for h in hits
    ]
    return Report(
        command="torus-search",
        parameters={"q_max": q_max, "n_max": n_max},
        rows=rows,
        counters={"hits": len(rows)},
    )
