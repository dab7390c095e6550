"""Diophantine search for cyclic self-centralizing maximal tori of prime
order p = m^2 + 1, where m is the automizer order.

Each classical series is described by a TorusFamily record: candidate
torus orders and base automizer orders as closed formulas in (q, n), plus
the order of the field-automorphism group.  A field (or graph-field)
automorphism of degree u multiplies the automizer, so candidates are
enumerated over the divisors u of that order: u | f for untwisted series,
u | 2f for the twisted series 2D and 2A (their field parts are generated
by a graph-field map of order 2f), u | 3f for the triality series.  A hit
is recorded whenever torus order T is prime and (base * u)^2 + 1 = T.

Completeness is only claimed within the search bounds; the report always
states them.  Exceptional-series tori whose order is a product of two
integers > 1 for every q (the E7 cyclic tori) can never have prime order
and are omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError
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


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _mk_hits(family, q, r, f, n, torus, base, field_order, label_fn) -> list[TorusHit]:
    """All (u | field_order) candidates with (base*u)^2 + 1 = torus prime."""
    # the square test first: it is exact at any size, while is_prime
    # refuses a number past its proven range that passes every base
    if torus < 5 or not is_perfect_square(torus - 1) or not is_prime(torus):
        return []
    m_required = math.isqrt(torus - 1)
    hits = []
    for u in _divisors(field_order):
        if base * u == m_required:
            hits.append(
                TorusHit(
                    p=torus, label=label_fn(u), family=family,
                    q=q, r=r, f=f, n=n, u=u, m=m_required,
                )
            )
    return hits


def _suffix(name: str, u: int) -> str:
    return name if u == 1 else f"{name}.{u}"


def _exact_div(numerator: int, denominator: int) -> int:
    value, rem = divmod(numerator, denominator)
    if rem:
        raise ConsistencyError(
            f"inexact torus order {numerator}/{denominator}"
        )
    return value


@dataclass(frozen=True)
class TorusFamily:
    """One classical series: candidate cyclic self-centralizing torus
    orders with their base automizer orders, the order of the field (or
    graph-field) automorphism group multiplying the automizer, and the
    label convention."""

    tag: str
    n_min: int
    # (q, n) -> [(torus order, base automizer)]
    tori: object
    # f -> order of the automizer-extending field part (2f for the
    # twisted series whose field part is a graph-field map)
    field_order: object
    # (q, n) -> base label
    label: object


def _bc_tori(q, n):
    g = math.gcd(2, q - 1)
    return [((q**n - 1) // g, 2 * n), ((q**n + 1) // g, 2 * n)]


def _d_tori(q, n):
    out = [((q**n - 1) // math.gcd(4, q**n - 1), n)]
    if q == 2:
        out.append((q ** (n - 1) - 1, 2 * (n - 1)))
    return out


def _2d_tori(q, n):
    out = [((q**n + 1) // math.gcd(2, q**n + 1), n)]
    if q == 2:
        out.append((q ** (n - 1) + 1, 2 * (n - 1)))
    return out


def _a_tori(q, n):
    # the n = 2 split torus keeps automizer 2 (its type is (1, 1))
    d = math.gcd(n, q - 1)
    return [
        (_exact_div(q**n - 1, (q - 1) * d), n),
        (_exact_div(q ** (n - 1) - 1, d), 2 if n == 2 else n - 1),
    ]


def _2a_tori(q, n):
    d = math.gcd(n, q + 1)
    return [
        (_exact_div(q**n - (-1) ** n, (q + 1) * d), n),
        (_exact_div(q ** (n - 1) - (-1) ** (n - 1), d), n - 1),
    ]


CLASSICAL_FAMILIES: tuple[TorusFamily, ...] = (
    TorusFamily("bc", 2, _bc_tori, lambda f: f,
                lambda q, n: f"S{2 * n}({q})"),
    TorusFamily("d", 4, _d_tori, lambda f: f,
                lambda q, n: f"O{2 * n}^+({q})"),
    TorusFamily("2d", 4, _2d_tori, lambda f: 2 * f,
                lambda q, n: f"O{2 * n}^-({q})"),
    TorusFamily("a", 2, _a_tori, lambda f: f,
                lambda q, n: f"L{n}({q})"),
    TorusFamily("2a", 3, _2a_tori, lambda f: 2 * f,
                lambda q, n: f"U{n}({q})"),
)


def search(q_max: int = 256, n_max: int = 12) -> list[TorusHit]:
    """Classical-series sweep; hits deduplicated by (p, label)."""
    hits: dict[tuple[int, str], TorusHit] = {}
    for r, f, q in prime_powers(q_max):
        for family in CLASSICAL_FAMILIES:
            for n in range(family.n_min, n_max + 1):
                base_label = family.label(q, n)
                for torus, base in family.tori(q, n):
                    for hit in _mk_hits(
                        family.tag, q, r, f, n, torus, base,
                        family.field_order(f),
                        lambda u, lbl=base_label: _suffix(lbl, u),
                    ):
                        hits.setdefault((hit.p, hit.label), hit)
    return sorted(hits.values())


def exceptional_series_hits(q_max: int = 256) -> list[TorusHit]:
    """Sweep the cyclic maximal torus orders of the exceptional series.

    Scanned: G2 (Phi_3, Phi_6; automizer 6), 3D4 (Phi_12; automizer 4,
    field part 3f), F4 (Phi_8 automizer 8, Phi_12 automizer 12; graph-field
    doubling for even q), E6/2E6 (Phi_9 / Phi_18; automizer 9), E8 (Phi_15,
    Phi_20, Phi_24, Phi_30; automizers 15, 20, 24, 30), Suzuki and Ree
    series (q -+ 1 and q +- sqrt(c*q) + 1 tori).  E7 is omitted: its cyclic
    maximal tori have orders (q +- 1) * Phi_d(q), composite for all q >= 2.
    """
    hits: dict[tuple[int, str], TorusHit] = {}

    def add(items):
        for h in items:
            hits.setdefault((h.p, h.label), h)

    for r, f, q in prime_powers(q_max):
        if q >= 3:
            field = 2 * f if r == 3 else f  # graph-field map exists for r = 3
            for torus in (q * q + q + 1, q * q - q + 1):
                add(_mk_hits("g2", q, r, f, 0, torus, 6, field,
                             lambda u, q=q: _suffix(f"G2({q})", u)))
        add(_mk_hits("3d4", q, r, f, 0, q**4 - q**2 + 1, 4, 3 * f,
                     lambda u, q=q: _suffix(f"3D4({q})", u)))
        field = 2 * f if r == 2 else f  # graph-field map exists for r = 2
        add(_mk_hits("f4", q, r, f, 0, q**4 + 1, 8, field,
                     lambda u, q=q: _suffix(f"F4({q})", u)))
        add(_mk_hits("f4", q, r, f, 0, q**4 - q**2 + 1, 12, field,
                     lambda u, q=q: _suffix(f"F4({q})", u)))
        add(_mk_hits("e6", q, r, f, 0, q**6 + q**3 + 1, 9, 2 * f,
                     lambda u, q=q: _suffix(f"E6({q})", u)))
        add(_mk_hits("2e6", q, r, f, 0, q**6 - q**3 + 1, 9, 2 * f,
                     lambda u, q=q: _suffix(f"2E6({q})", u)))
        for d in (15, 20, 24, 30):
            add(_mk_hits("e8", q, r, f, 0, cyclotomic_value(d, q), d, f,
                         lambda u, q=q: _suffix(f"E8({q})", u)))
        # Suzuki 2B2(2^(2k+1)), Ree 2G2(3^(2k+1)), 2F4(2^(2k+1))
        if r == 2 and f % 2 == 1 and f >= 3:
            s = 2 ** ((f + 1) // 2)  # sqrt(2q)
            for torus, base in ((q - 1, 2), (q + s + 1, 4), (q - s + 1, 4)):
                add(_mk_hits("2b2", q, r, f, 0, torus, base, f,
                             lambda u, q=q: _suffix(f"2B2({q})", u)))
            s3 = 2 ** ((3 * f + 1) // 2)  # sqrt(2q^3)
            for torus in (q * q + s3 + q + s + 1, q * q - s3 + q - s + 1,
                          q**4 - q**2 + 1):
                add(_mk_hits("2f4", q, r, f, 0, torus, 12, f,
                             lambda u, q=q: _suffix(f"2F4({q})", u)))
        if r == 3 and f % 2 == 1 and f >= 3:
            s = 3 ** ((f + 1) // 2)  # sqrt(3q)
            for torus, base in ((q - 1, 2), (q + 1, 6),
                                (q + s + 1, 6), (q - s + 1, 6)):
                add(_mk_hits("2g2", q, r, f, 0, torus, base, f,
                             lambda u, q=q: _suffix(f"2G2({q})", u)))
    return sorted(hits.values())


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
    candidates = []
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
        if holds and not lp.degenerate:
            candidates += [("A5", lp.p), ("A6", lp.p)]
    return Report(
        command="torus-search --alternating",
        parameters={"limit": LANDAU_LIMIT},
        rows=rows,
        counters={"candidates": len(candidates)},
    )


def alternating_candidates() -> list[tuple[str, int]]:
    report = alternating_check()
    out = []
    for row in report.rows:
        if row["rationality_bound_holds"] and not row["degenerate"]:
            out += [("A5", row["p"]), ("A6", row["p"])]
    return out


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
