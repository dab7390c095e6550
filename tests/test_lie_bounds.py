import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppchars import landau, lie_bounds
from ppchars.landau import multiplicative_order, prime_powers
from ppchars.partitions import split_count

from naive_counts import wreath_irr_count_naive


def test_cyclotomic_values():
    assert lie_bounds.cyclotomic_value(1, 5) == 4
    assert lie_bounds.cyclotomic_value(8, 4) == 257
    assert lie_bounds.cyclotomic_value(12, 2) == 13
    # the E8 torus orders, in closed form
    e8 = {
        15: lambda q: q**8 - q**7 + q**5 - q**4 + q**3 - q + 1,
        20: lambda q: q**8 - q**6 + q**4 - q**2 + 1,
        24: lambda q: q**8 - q**4 + 1,
        30: lambda q: q**8 + q**7 - q**5 - q**4 - q**3 + q + 1,
    }
    for d, closed in e8.items():
        for q in range(2, 257):
            assert lie_bounds.cyclotomic_value(d, q) == closed(q), (d, q)


def test_cyclotomic_product_identity():
    for q in range(2, 33):
        for n in range(1, 31):
            prod = 1
            for d in range(1, n + 1):
                if n % d == 0:
                    prod *= lie_bounds.cyclotomic_value(d, q)
            assert prod == q**n - 1


def test_lemma_easy_bound_examples():
    assert lie_bounds.lemma_easy_bound(6, True) == 82
    assert lie_bounds.lemma_easy_bound(11, False) == 31
    assert lie_bounds.lemma_easy_bound(12, True) == 1297
    assert lie_bounds.lemma_easy_bound(48, False) == 577
    assert lie_bounds.lemma_easy_bound(28, True) == 38417
    assert lie_bounds.lemma_easy_bound(20, True) == 10001


def test_table2_regression():
    report = lie_bounds.verify_table2()
    assert report.status == "pass"
    assert len(report.rows) == 18
    assert report.counters["mismatches"] == 0
    printed = sorted(row["stated"] for row in report.rows)
    assert printed == sorted([10, 82, 10, 13, 17, 13, 1297, 31, 257, 21,
                              65, 40, 577, 2402, 871, 38417, 257, 10001])


def test_table1():
    data = lie_bounds.TABLE1
    assert ("E7", 5, 30) in data and ("E8", 7, 28) in data and ("(2)E6", 5, 10) in data
    report = lie_bounds.table1_report()
    assert report.status == "pass"
    bounds = {(r["group"], r["p"]): r["bound"] for r in report.rows}
    assert bounds[("E7", 5)] == 226
    assert bounds[("E8", 7)] == 197
    assert bounds[("(2)E6", 5)] == 26


def test_defining_characteristic_grid():
    report = lie_bounds.defining_char_check()
    assert report.status == "pass"
    assert report.counters["violations"] == 0
    special = {(r["f"], r["l"], r["p"]): r["out_bound"] for r in report.rows}
    assert special[(1, 2, 5)] == 6
    assert special[(1, 2, 7)] == 8
    assert special[(2, 2, 5)] == 15 * 2


def test_wreath_identity_example():
    assert lie_bounds.wreath_irr_count(4, 2) == 14


def test_wreath_identity_sweep():
    for d in range(1, 17):
        for a in range(1, 17):
            if d * a <= 16:
                assert lie_bounds.wreath_irr_count(d, a) == \
                    wreath_irr_count_naive(d, a)


def test_classical_known_example_point():
    report = lie_bounds.classical_inequality_check("bc", q_max=16, rank_max=4)
    point = [r for r in report.rows
             if r["q"] == 11 and r["d"] == 1 and r["a"] == 2 and r["p"] == 5]
    assert len(point) == 1 and point[0]["ok"]
    # left side is 5 + 100/8, stored as an exact fraction
    assert point[0]["lhs_numerator"] == 5 * 8 + 100
    assert point[0]["lhs_denominator"] == 8


def test_classical_small_primes_are_skipped():
    # q = 3, d = 1, a = 2: only p = 2 divides q - 1, so nothing to check
    report = lie_bounds.classical_inequality_check("bc", q_max=3, rank_max=2)
    assert all(not (r["q"] == 3 and r["d"] == 1) for r in report.rows)
    assert report.counters["points_without_eligible_p"] > 0


def test_classical_rejects_unknown_family():
    with pytest.raises(ValueError):
        lie_bounds.classical_inequality_check("e8")


def test_classical_sign_matching():
    # p = 5 with q = 9: 5 | q + 1, so the torus order must use the plus sign
    report = lie_bounds.classical_inequality_check("bc", q_max=9, rank_max=2)
    point = [r for r in report.rows if r["q"] == 9 and r["p"] == 5]
    assert point and point[0]["sign"] == 1 and point[0]["ok"]


def test_classical_families_clean_except_known_point():
    # full-grid behavior is pinned by the acceptance suite; spot-check the
    # smaller grids here to keep unit runtime low
    for family in ("d", "2d", "a", "2a"):
        report = lie_bounds.classical_inequality_check(family, q_max=64, rank_max=8)
        assert report.counters["violations"] == 0, report.failures
    report = lie_bounds.classical_inequality_check("bc", q_max=64, rank_max=8)
    assert [(r["q"], r["p"]) for r in report.failures] == [(8, 7)]


def test_d_family_reports_halving_flag():
    report = lie_bounds.classical_inequality_check("d", q_max=16, rank_max=6)
    assert report.rows
    assert all("wreath_count_full" in r and "ok_full_weyl" in r for r in report.rows)
    assert all(r["wreath_count"] == r["wreath_count_full"] // 2 for r in report.rows)


def test_e8_check():
    report = lie_bounds.e8_d1_check(4096)
    assert report.status == "pass"
    assert report.counters["violations"] == 0
    assert report.counters["strict_violations"] == 0
    qs = {r["q"] for r in report.rows}
    assert 1009 in qs and 1024 in qs
    assert 1001 not in qs  # 1001 = 7 * 11 * 13 is not a prime power
    row = next(r for r in report.rows if r["q"] == 1024 and r["p"] == 11)
    assert row["f"] == 10 and row["ok"] and row["ok_strict"]


def _reference_classical_rows(family, q_max, rank_max, f_max=lie_bounds.DEFAULT_F_MAX):
    """Reference for the classical sweep: every grid point factorizes its
    own torus orders, takes each order through multiplicative_order, counts
    the wreath characters afresh and builds each row on its own."""
    n_min, convention = lie_bounds._FAMILY_CFG[family]
    halved = family in ("d", "2d")
    rows, no_p, nonabelian = [], 0, 0
    for r, f, q in prime_powers(q_max):
        if f > f_max:
            continue
        for n in range(n_min, rank_max + 1):
            for d in range(1, n + 1):
                a = n // d
                if a < 2:
                    continue
                if convention == "pm":
                    values = (q**d - 1, q**d + 1)
                elif convention == "linear":
                    values = (q**d - 1,)
                else:
                    values = (q**d - (-1) ** d,)
                candidates = {p for v in values
                              for p in landau.prime_divisors(v) if p >= 5}
                found = any_minimal = False
                for p in sorted(candidates):
                    e = multiplicative_order(q % p, p)
                    if convention == "pm":
                        dmin, sign = (e // 2, 1) if e % 2 == 0 else (e, -1)
                        if dmin != d:
                            continue
                    elif convention == "linear":
                        if e != d:
                            continue
                        sign = -1
                    else:
                        if any((q**dd - (-1) ** dd) % p == 0 for dd in range(1, d)):
                            continue
                        sign = -((-1) ** d)
                    torus = q**d + sign
                    any_minimal = True
                    if p <= a:
                        continue
                    found = True
                    factor = 2 * d if convention == "pm" else d
                    full_count = split_count(factor, a)
                    count = full_count // 2 if halved else full_count
                    denom = factor**a * math.factorial(a)
                    g = math.gcd(2 if convention == "pm" else n,
                                 q + 1 if convention == "unitary" else q - 1)
                    lhs = count * denom + torus**a
                    rhs2 = (2 * f * g * denom) ** 2 * (p - 1)
                    row = {"family": family, "q": q, "r": r, "f": f, "d": d,
                           "a": a, "n": n, "p": p, "sign": sign,
                           "wreath_count": count, "lhs_numerator": lhs,
                           "lhs_denominator": denom, "rhs_squared_num": rhs2,
                           "ok": lhs * lhs > rhs2}
                    if halved:
                        full_lhs = full_count * denom + torus**a
                        row["wreath_count_full"] = full_count
                        row["ok_full_weyl"] = full_lhs * full_lhs > rhs2
                        row["weyl_halving_note"] = "index-2 subgroup possible"
                    rows.append(row)
                if not found:
                    if any_minimal:
                        nonabelian += 1
                    else:
                        no_p += 1
    return rows, no_p, nonabelian


@pytest.mark.parametrize("family", lie_bounds.FAMILIES)
def test_classical_sweep_matches_per_point_reference(family):
    report = lie_bounds.classical_inequality_check(family, q_max=128, rank_max=10)
    rows, no_p, nonabelian = _reference_classical_rows(family, 128, 10)
    assert report.rows == rows
    assert [list(row) for row in report.rows] == [list(row) for row in rows]
    assert report.counters == {
        "checked": len(rows),
        "violations": sum(not row["ok"] for row in rows),
        "points_without_eligible_p": no_p,
        "points_nonabelian_sylow_only": nonabelian,
    }


_SMALL_PRIMES = landau.primes_up_to(20000)


@st.composite
def _order_case(draw):
    """(q, d, p) with p prime and p | q^(2d) - 1, drawn without factoring:
    x -> x^((p-1)/g), g = gcd(p-1, 2d), maps onto the residues of order
    dividing g, which are exactly the q with q^(2d) = 1 (mod p)."""
    p = draw(st.sampled_from(_SMALL_PRIMES))
    d = draw(st.integers(1, 12))
    x = draw(st.integers(1, p - 1))
    residue = pow(x, (p - 1) // math.gcd(p - 1, 2 * d), p)
    q = residue + p * draw(st.integers(0 if residue > 1 else 1, 10**6))
    return q, d, p


@settings(max_examples=300, deadline=None)
@given(_order_case())
def test_order_from_divisors_matches_multiplicative_order(case):
    q, d, p = case
    assert (q ** (2 * d) - 1) % p == 0
    assert lie_bounds._order_dividing(q, p, 2 * d) == multiplicative_order(q, p)


def test_classical_sweep_independent_of_family_order():
    # bc, d and 2d share the cached "pm" eligible primes; a family's rows
    # and counters must not depend on which families filled the cache
    def sweep(order):
        reports = {f: lie_bounds.classical_inequality_check(f, q_max=64)
                   for f in order}
        return {f: (r.rows, r.counters) for f, r in reports.items()}

    order = ("a", "2a", "bc", "d", "2d")
    lie_bounds._eligible_primes.cache_clear()
    forward = sweep(order)
    lie_bounds._eligible_primes.cache_clear()
    backward = sweep(order[::-1])
    assert forward == backward
    assert all(rows for rows, _ in forward.values())
