import pytest

from ppchars import lie_bounds


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
    data = lie_bounds.table1_data()
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
                    lie_bounds.wreath_irr_count_naive(d, a)


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
    report = lie_bounds.e8_d1_check(1001, 4096)
    assert report.status == "pass"
    assert report.counters["violations"] == 0
    assert report.counters["strict_violations"] == 0
    qs = {r["q"] for r in report.rows}
    assert 1009 in qs and 1024 in qs
    assert 1001 not in qs  # 1001 = 7 * 11 * 13 is not a prime power
    row = next(r for r in report.rows if r["q"] == 1024 and r["p"] == 11)
    assert row["f"] == 10 and row["ok"] and row["ok_strict"]
