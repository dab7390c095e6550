"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance here is exact (integer equality); runtime budgets are the
only non-exact assertions.  Criteria 1-4, 6 and 7 assert on the reports of
the `verify-all --full` checks named in `ppchars.cli.checks`, so the suite
and the command run the same checks with the same parameters.  Run with
`pytest -v tests/test_acceptance.py` or see the per-criterion lines with
`-s`.

Known defect of the printed bound, pinned exactly: the classical-family grid
check finds one genuine counterexample to the published sufficient inequality
for the symplectic / odd-orthogonal family at (q, n, p) = (8, 2, 7), where
|Irr(C_2 wr S_2)| + (q-1)^2/8 = 89/8 falls short of 2f*sqrt(p-1) = 6*sqrt(6).
The B/C test below asserts that this point is the whole violation set and
recomputes its numbers independently, so the suite is green.  The program
still reports the inequality as printed: `ppchars verify-all --full` and
`ppchars bounds --classical --family bc` exit 1 on purpose.
"""

import functools
import math
import time

import pytest

from ppchars import constructions, engine, landau, lie_bounds, partitions
from ppchars.cli import checks

from naive_counts import wreath_irr_count_naive


def _criterion(number, name, ok, detail=""):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@functools.lru_cache(maxsize=None)
def _report(name):
    """The report of the `verify-all --full` check of this name, computed
    once per session through the same call as `ppchars verify-all`, and
    the seconds that call took: the runtime budgets are read off it."""
    run = dict(checks(full=True))[name]
    start = time.perf_counter()
    report = run()
    return report, time.perf_counter() - start


def test_criterion_1_macdonald_equals_oracle():
    report, elapsed = _report("verify-symmetric")
    formula = {(r["n"], r["p"]): r["formula"] for r in report.rows}
    mismatches = [
        (r["n"], r["p"], r["formula"], r["oracle"]) for r in report.rows
        if r["formula"] != r["oracle"] or r["formula"] < r["n"] - 1
    ]
    # every n <= 25 against every prime p <= n
    assert sorted(formula) == [
        (n, p) for n in range(1, 26) for p in landau.primes_up_to(n)]
    assert report.status == "pass"
    # the small-n closed cases: count p at n in {p, p+1}, 2p at n = p+2
    for p in (5, 7, 11, 13, 17):
        assert formula[p, p] == p
    for p in (7, 11, 13):
        assert formula[p + 1, p] == p
    for p in (5, 7, 11, 13):
        assert formula[p + 2, p] == 2 * p
    _criterion(
        1, "digit-product formula = hook oracle (n <= 25)",
        not mismatches and elapsed <= 60,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_extremal_frobenius():
    failures = []
    elapsed = 0.0
    for p in (5, 17, 37, 101, 197, 257):
        m = math.isqrt(p - 1)
        report, seconds = _report(f"frobenius p={p}")
        elapsed += seconds
        row = report.rows[0]
        expected = sorted([1] * m + [m] * ((p - 1) // m))
        if row["degrees"] != expected or row["pprime_count"] != 2 * m:
            failures.append((p, "closed form"))
        if row["engine_agrees"] is not True:
            failures.append((p, "engine"))
    _criterion(
        2, "extremal Frobenius groups attain 2*sqrt(p-1)",
        not failures and elapsed <= 120,
        f"failures={failures} elapsed={elapsed:.1f}s",
    )


def test_criterion_3_solvable_witness():
    report, elapsed = _report("solvable p=5")
    clifford, cross = report.rows
    ok = (
        report.parameters == {"p": 5, "r": 19, "cross_check": True}
        and clifford["pprime_count"] == 4
        and clifford["sum_of_squares"] == 3610
        and cross["check"] == "degree multisets equal"
        and cross["sum_of_squares"] == 3610
        and report.status == "pass"
        and elapsed <= 120
    )
    _criterion(
        3, "order-3610 solvable witness, Clifford = engine",
        ok,
        f"count={clifford['pprime_count']} sum_sq={clifford['sum_of_squares']} "
        f"status={report.status} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_table2_regression():
    report, _ = _report("table2")
    printed = [row["stated"] for row in report.rows]
    expected = [10, 82, 10, 13, 17, 13, 1297, 31, 21, 257,
                65, 40, 577, 2402, 871, 257, 38417, 10001]
    ok = (
        report.counters["mismatches"] == 0
        and len(report.rows) == 18
        and sorted(printed) == sorted(expected)
    )
    _criterion(4, "invariant-character table bounds", ok,
               f"mismatches={report.counters['mismatches']}")


def test_criterion_5_landau_list():
    lps = landau.landau_primes(300)
    ok = (
        [x.p for x in lps if not x.degenerate] == [5, 17, 37, 101, 197, 257]
        and lps[0].p == 2
        and lps[0].degenerate
    )
    _criterion(5, "Landau primes below 300", ok, str([x.p for x in lps]))


def test_criterion_6_torus_search_set_equality():
    report, elapsed = _report("torus-reconcile")
    diffs = [
        (row["p"], row["missing"], row["extra"])
        for row in report.rows
        if not row["ok"]
    ]
    ok = (
        report.parameters == {"q_max": 256, "n_max": 12}
        and report.status == "pass"
        and set(row["p"] for row in report.rows) == {5, 17, 37, 257}
        and elapsed <= 300
    )
    _criterion(6, "torus classification set equality", ok,
               f"diffs={diffs} elapsed={elapsed:.1f}s")


def test_criterion_7_defining_characteristic_grid():
    report, _ = _report("defining")
    assert report.parameters == {"l_max": 8, "r_max": 97, "f_max": 6}
    _criterion(7, "defining-characteristic grid",
               report.counters["violations"] == 0,
               f"violations={report.counters['violations']}")


def test_criterion_7_e8_d1_grid():
    report, _ = _report("e8-d1")
    assert report.parameters == {"q_min": 1001, "q_max": 4096}
    _criterion(7, "E8 d=1 tail grid",
               report.counters["violations"] == 0,
               f"violations={report.counters['violations']}")


@pytest.mark.parametrize("family", ["d", "2d", "a", "2a"])
def test_criterion_7_classical_grids(family):
    report, _ = _report(f"classical {family}")
    _criterion(7, f"classical family {family} grid",
               report.counters["violations"] == 0,
               f"violations={report.counters['violations']}")


def test_criterion_7_classical_bc_grid():
    """The published sufficient inequality has exactly one counterexample on
    the default B/C grid, and this test pins it.

    At family B/C, q = 8 (f = 3), d = 1, a = 2 (rank n = 2), p = 7, i.e.
    Sp_4(8) at p = 7, the printed bound |Irr(C_{2d} wr S_a)| +
    (q^d - 1)^a / ((2d)^a a!) = 5 + 49/8 = 89/8 is NOT greater than
    2 f gcd(2, q-1) sqrt(p-1) = 6 sqrt(6): squared and scaled by 8^2,
    89^2 = 7921 < 48^2 * 6 = 13824.  The estimate fails, so a faithful grid
    verification reports this point, and `bounds --classical --family bc`
    exits 1.  The theorem itself is safe there: with the Sylow 7-subgroup
    C_7^2 abelian and normalizer C_7^2 x| D_8 = D_14 wr S_2, the McKay
    correspondence (a result outside the paper) gives |Irr_7'(Sp_4(8))| =
    k(D_14 wr S_2) = split_count(5, 2) = 20, and 20^2 = 400 > 216.  The
    torus data alone does not clear it: its 10 semisimple classes and 5
    unipotent characters share the trivial character, so they give 14
    distinct characters, and 14^2 = 196 < 216.

    The test asserts the whole violation set, so a new violation fails it,
    and so does the loss of this one; the failing row's numbers are
    recomputed here without the code under test.
    """
    q, f, d, a, n, p = 8, 3, 1, 2, 2, 7
    count = wreath_irr_count_naive(2 * d, a)  # 5, by enumeration
    torus = (q**d - 1) ** a  # 49: p = 7 divides q - 1
    denom = (2 * d) ** a * math.factorial(a)  # 8
    lhs_num = count * denom + torus  # 89
    rhs_squared_num = (2 * f * math.gcd(2, q - 1) * denom) ** 2 * (p - 1)
    assert lhs_num**2 <= rhs_squared_num  # 7921 <= 13824: a real violation

    report, _ = _report("classical bc")
    violations = [
        (r["q"], r["f"], r["d"], r["a"], r["p"]) for r in report.failures
    ]
    bad = report.failures[0] if report.failures else {}
    expected_row = {
        "n": n, "sign": -1, "wreath_count": count, "lhs_numerator": lhs_num,
        "lhs_denominator": denom, "rhs_squared_num": rhs_squared_num,
    }
    ok = (
        violations == [(q, f, d, a, p)]
        and report.counters["violations"] == len(report.failures) == 1
        and report.status == "fail"
        and all(r["ok"] is True for r in report.rows if r is not bad)
        and {k: bad.get(k) for k in expected_row} == expected_row
    )
    _criterion(7, "classical family bc grid: only the known defect",
               ok,
               f"violations={violations} (single known defect of the "
               "printed bound at Sp_4(8), p = 7)")


def test_wreath_d14_s2_has_twenty_classes():
    """k(D_14 wr S_2) = 20, the count the B/C test above uses for
    |Irr_7'(Sp_4(8))|: the engine on the wreath product, on 14 points,
    against split_count(5, 2), since D_14 has 5 classes."""
    rotation = [1, 2, 3, 4, 5, 6, 0] + list(range(7, 14))
    reflection = [0, 6, 5, 4, 3, 2, 1] + list(range(7, 14))
    swap = list(range(7, 14)) + list(range(7))
    group = engine.group_from_permutations([rotation, reflection, swap])
    degrees = engine.irreducible_degrees(group)
    assert group.order == 392
    assert degrees.counts == ((1, 4), (2, 1), (4, 12), (8, 3))
    assert degrees.pprime_count(7) == 20 == partitions.split_count(5, 2)


def test_criterion_8_engine_property_suite():
    start = time.monotonic()
    gamma = constructions.build_gamma_l(5, 19)
    corpus = [
        engine.cyclic_group(12),
        engine.dihedral_group(10),
        engine.symmetric_group(4),
        engine.symmetric_group(5),
        engine.alternating_group(5),
        engine.alternating_group(6),
        constructions.build_frobenius(5, 2)[0],
        constructions.build_frobenius(17, 4)[0],
        constructions.build_frobenius(257, 16)[0],
        constructions.semidirect_product_permutations(gamma.action),
    ]
    assert len(corpus) >= 10
    failures = []
    for group in corpus:
        group.validate()
        classes = engine.conjugacy_classes(group)
        first = engine.irreducible_degrees(group, seed=0)
        second = engine.irreducible_degrees(group, seed=1)
        checks = {
            "sum_sq": first.sum_of_squares() == group.order,
            "count": len(first.degrees) == len(classes.reps),
            "linear": first.linear_count() == engine.derived_subgroup_index(group),
            "seeds": first.degrees == second.degrees,
        }
        if not all(checks.values()):
            failures.append((group.name or group.order, checks))
    elapsed = time.monotonic() - start
    _criterion(8, "engine property suite over 10-group corpus",
               not failures,
               f"failures={failures} elapsed={elapsed:.1f}s")


def test_criterion_9_wreath_identity():
    bad = [
        (d, a)
        for d in range(1, 17)
        for a in range(1, 17)
        if d * a <= 16
        and lie_bounds.wreath_irr_count(d, a) != wreath_irr_count_naive(d, a)
    ]
    _criterion(9, "wreath-product character count identity", not bad, str(bad))
