import pytest

from ppchars import torus_search
from ppchars.errors import SizeLimitError
from ppchars.landau import is_perfect_square, is_prime


def hit_set(hits):
    return {(h.p, h.label) for h in hits}


def test_search_contains_expected_hits():
    hits = hit_set(torus_search.search(256, 12))
    assert (17, "S4(4)") in hits
    assert (257, "O18^-(2)") in hits
    assert (257, "L2(256).8") in hits


def test_hit_invariants_reverified():
    for h in torus_search.search(256, 12) + torus_search.exceptional_series_hits(256):
        assert is_prime(h.p)
        assert is_perfect_square(h.p - 1)
        assert h.m * h.m + 1 == h.p


def test_exceptional_hits_exactly_two():
    hits = hit_set(torus_search.exceptional_series_hits(256))
    assert hits == {(37, "2G2(27)"), (257, "F4(4).2")}


# One point of each series: (tag, r, f, n, [(torus order, base automizer)],
# field order, hits at that point as (p, label, m)), with the closed forms
# written out at q = r^f.
SERIES_POINTS = [
    # gcd(2, q - 1) = 1
    ("bc", 2, 2, 2, [(4**2 - 1, 4), (4**2 + 1, 4)], 2, [(17, "S4(4)", 4)]),
    ("d", 2, 1, 4, [(2**4 - 1, 4), (2**3 - 1, 6)], 1, []),
    ("2d", 2, 2, 4, [(4**4 + 1, 4)], 4, [(257, "O8^-(4).4", 16)]),
    ("a", 2, 2, 3, [((4**3 - 1) // (3 * 3), 3), ((4**2 - 1) // 3, 2)], 2,
     [(5, "L3(4)", 2)]),
    ("2a", 11, 1, 3, [((11**3 + 1) // (12 * 3), 3), ((11**2 - 1) // 3, 2)], 2,
     [(37, "U3(11).2", 6)]),
    # G2 at r = 3 has a graph-field map of order 2f
    ("g2", 3, 1, 0, [(9 + 3 + 1, 6), (9 - 3 + 1, 6)], 2, []),
    ("3d4", 2, 1, 0, [(2**4 - 2**2 + 1, 4)], 3, []),
    # so has F4 at r = 2
    ("f4", 2, 2, 0, [(4**4 + 1, 8), (4**4 - 4**2 + 1, 12)], 4,
     [(257, "F4(4).2", 16)]),
    ("e6", 2, 1, 0, [(2**6 + 2**3 + 1, 9)], 2, []),
    ("2e6", 2, 1, 0, [(2**6 - 2**3 + 1, 9)], 2, []),
    # Phi_15(2), Phi_20(2), Phi_24(2), Phi_30(2)
    ("e8", 2, 1, 0, [((2**15 - 1) * (2 - 1) // ((2**5 - 1) * (2**3 - 1)), 15),
                     (2**8 - 2**6 + 2**4 - 2**2 + 1, 20),
                     (2**8 - 2**4 + 1, 24),
                     (2**8 + 2**7 - 2**5 - 2**4 - 2**3 + 2 + 1, 30)], 1, []),
    # sqrt(2q) = 4
    ("2b2", 2, 3, 0, [(8 - 1, 2), (8 + 4 + 1, 4), (8 - 4 + 1, 4)], 3, []),
    # sqrt(2q) = 32: the tori 511 = 7 * 73, 545 = 5 * 109 and 481 = 13 * 37
    # are composite, past the default q_max = 256
    ("2b2", 2, 9, 0, [(512 - 1, 2), (512 + 32 + 1, 4), (512 - 32 + 1, 4)], 9,
     []),
    # sqrt(2q) = 4, sqrt(2q^3) = 32
    ("2f4", 2, 3, 0, [(64 + 32 + 8 + 4 + 1, 12), (64 - 32 + 8 - 4 + 1, 12),
                      (8**4 - 8**2 + 1, 12)], 3, []),
    # sqrt(3q) = 9: the fired torus is q + sqrt(3q) + 1 = 37, automizer 6
    ("2g2", 3, 3, 0, [(27 - 1, 2), (27 + 1, 6), (27 + 9 + 1, 6),
                      (27 - 9 + 1, 6)], 3, [(37, "2G2(27)", 6)]),
]


@pytest.mark.parametrize(
    "tag, r, f, n, tori, field_order, hits", SERIES_POINTS,
    ids=[f"{case[0]}-q{case[1] ** case[2]}" for case in SERIES_POINTS],
)
def test_series_data_matches_closed_forms(tag, r, f, n, tori, field_order, hits):
    families = {family.tag: family for family in
                torus_search.CLASSICAL_FAMILIES
                + torus_search.EXCEPTIONAL_FAMILIES}
    assert len(families) == 14
    assert {case[0] for case in SERIES_POINTS} == set(families)
    family = families[tag]
    q = r**f
    assert family.tori(r, f, q, n) == tori
    assert family.field_order(r, f) == field_order
    found = [h for h in torus_search._sweep([family], q, n)
             if h.q == q and h.n == n]
    assert [(h.p, h.label, h.m) for h in found] == hits


def test_defining_characteristic_branch():
    hits = torus_search.defining_characteristic_hits()
    assert [(h.label, h.p) for h in hits] == [("L2(5)", 5)]


def test_alternating_check():
    report = torus_search.alternating_check()
    assert report.status == "pass"
    rows = {r["p"]: r for r in report.rows}
    assert rows[5]["rationality_bound_holds"]
    assert not rows[17]["rationality_bound_holds"]
    assert not rows[257]["rationality_bound_holds"]
    assert torus_search.alternating_candidates() == [("A5", 5), ("A6", 5)]


def test_reconcile_set_equality():
    report = torus_search.reconcile_with_theorem(256, 12)
    assert report.status == "pass"
    by_p = {r["p"]: r for r in report.rows}
    assert set(by_p) == {5, 17, 37, 257}
    for row in report.rows:
        assert row["missing"] == [] and row["extra"] == []
    assert by_p[5]["computed"] == ["A5", "A6", "L2(11)", "L3(4)"]
    assert by_p[17]["computed"] == ["L2(16).2", "O8^-(2)", "S4(4)"]
    assert by_p[37]["computed"] == ["2G2(27)", "U3(11).2"]
    assert by_p[257]["computed"] == sorted(
        ["S16(2)", "O18^-(2)", "L2(256).8", "S4(16).4",
         "S8(4).2", "O8^-(4).4", "O16^-(2).2", "F4(4).2"]
    )


def test_monotonicity_guard():
    base = hit_set(torus_search.search(256, 12)
                   + torus_search.exceptional_series_hits(256))
    enlarged = hit_set(torus_search.search(512, 16)
                       + torus_search.exceptional_series_hits(512))
    assert {x for x in enlarged if x[0] <= 257} == base


def test_field_extension_hits_carry_u():
    hits = {h.label: h for h in torus_search.search(256, 12)}
    assert hits["L2(16).2"].u == 2
    assert hits["S4(16).4"].u == 4
    assert hits["O8^-(4).4"].u == 4  # needs the graph-field part (u | 2f)
    assert hits["S8(4).2"].u == 2
    assert hits["L2(256).8"].u == 8


def test_search_report():
    report = torus_search.search_report(64, 12)
    assert report.status == "pass"
    labels = {r["label"] for r in report.rows}
    assert "S4(4)" in labels and "O8^-(2)" in labels
    iso = {r["label"]: r["iso_note"] for r in report.rows}
    assert iso.get("L2(4)") == "A5" and iso.get("L2(9)") == "A6"


def test_rank_bound_is_inclusive_and_refused_past():
    assert torus_search.search(4, torus_search.N_MAX_LIMIT)
    with pytest.raises(SizeLimitError, match="torus rank bound"):
        torus_search.search(4, torus_search.N_MAX_LIMIT + 1)
