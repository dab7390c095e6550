import builtins
import contextlib
import io
import json
import math
import random
from collections import Counter

import pytest

from ppchars import constructions, engine
from ppchars import modlinalg as ml
from ppchars.cli import main
from ppchars.errors import ConsistencyError, SearchExhaustedError
from ppchars.landau import multiplicative_order, prime_divisors, primes_up_to

import list_kernels as lk


def _frobenius_action(p, m):
    """The complement C_m of H(p, m) acting on V = Z/p by multiplication,
    closed as 1 x 1 matrices, and proven a homomorphism as it is made."""
    a = constructions._order_m_element(p, m)
    group = engine.group_from_elements(
        [((a % p,),)], lambda x, y: ml.mat_mul(x, y, p), ml.mat_identity(1),
        name=f"C{m} on Z/{p}",
    )
    assert group.order == m
    action = constructions.LinearGroupAction(p, 1, group, tuple(group.elements))
    action.validate()
    return action


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def test_build_frobenius_small():
    group, params = constructions.build_frobenius(5, 2)
    assert group.order == 10
    assert params.a == 4  # the unique element of order 2 mod 5
    group.validate()
    # the order-10 Frobenius group is dihedral
    assert engine.irreducible_degrees(group).degrees == (1, 1, 2, 2)


def test_build_frobenius_17_4():
    group, params = constructions.build_frobenius(17, 4)
    assert group.order == 68
    cc = engine.conjugacy_classes(group)
    assert len(cc.reps) == 8  # m + (p-1)/m = 4 + 4
    assert constructions.frobenius_degree_multiset(params).degrees == \
        (1, 1, 1, 1, 4, 4, 4, 4)
    assert engine.irreducible_degrees(group).degrees == (1, 1, 1, 1, 4, 4, 4, 4)
    assert engine.derived_subgroup_index(group) == 4


def test_build_frobenius_257_16():
    group, params = constructions.build_frobenius(257, 16)
    assert group.order == 4112
    assert len(engine.conjugacy_classes(group).reps) == 32
    multiset = constructions.frobenius_degree_multiset(params)
    assert multiset.degrees == tuple([1] * 16 + [16] * 16)


def _affine_closure(p, m):
    """F(p, m) closed as the affine maps x -> s x + b, written (s, b), from
    x -> a x and x -> x + 1: a reference that shares no code with the pair
    law."""
    a = constructions._order_m_element(p, m)

    def compose(x, y):
        return (x[0] * y[0]) % p, (x[0] * y[1] + x[1]) % p

    return a, compose, engine.group_from_elements(
        [(a % p, 0), (1, 1)], compose, (1, 0))


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (5, 4), (13, 3), (17, 4),
                                  (37, 6)])
def test_frobenius_pairs_match_affine_closure(p, m):
    """The pair (b, j) of build_frobenius is the affine map x -> a^j x + b:
    the pairs and the affine closure have the same order, the map is one
    to one onto it, and it carries every product to the product."""
    group, params = constructions.build_frobenius(p, m)
    a, compose, reference = _affine_closure(p, m)
    assert params.a == a
    assert group.order == reference.order == p * m
    affine = [(pow(a, j, p), b) for b, j in group.elements]
    index = {x: i for i, x in enumerate(reference.elements)}
    at = [index[x] for x in affine]
    assert sorted(at) == list(range(group.order))
    for x in range(group.order):
        for y in range(group.order):
            product = group.mul(x, y)
            assert affine[product] == compose(affine[x], affine[y])
            assert at[product] == reference.mul(at[x], at[y])


def test_frobenius_degenerate_m1():
    group, params = constructions.build_frobenius(5, 1)
    assert group.order == 5
    assert constructions.frobenius_degree_multiset(params).degrees == (1,) * 5


def test_frobenius_rejects_bad_m():
    with pytest.raises(ValueError):
        constructions.build_frobenius(5, 3)
    with pytest.raises(ValueError):
        constructions.build_frobenius(9, 2)


def test_find_construction_prime():
    assert constructions.find_construction_prime(5) == 19
    r17 = constructions.find_construction_prime(17)
    assert multiplicative_order(r17, 17) == 4
    with pytest.raises(SearchExhaustedError):
        constructions.find_construction_prime(5, search_limit=10)
    # the least such prime, as a search over a sieve finds it
    primes = primes_up_to(10_000)
    for p in (5, 17, 37, 101, 197, 257):
        m = math.isqrt(p - 1)
        expected = next(r for r in primes
                        if r != p and m % r and multiplicative_order(r, p) == m)
        assert constructions.find_construction_prime(p) == expected


def _is_irreducible(poly, r, m):
    """Rabin's test: a monic poly of degree m over F_r is irreducible iff
    it divides x^(r^m) - x and is prime to x^(r^(m/l)) - x for every prime
    l dividing m."""
    x = [0, 1]
    if ml.poly_sub(ml.poly_powmod(x, r**m, poly, r), x, r) != [0]:
        return False
    return all(
        ml.poly_deg(ml.poly_gcd(
            ml.poly_sub(ml.poly_powmod(x, r ** (m // ell), poly, r), x, r),
            poly, r)) == 0
        for ell in prime_divisors(m)
    )


@pytest.mark.parametrize("p, admissible", [(5, 104), (17, 51), (37, 21)])
def test_field_modulus_is_an_irreducible_factor_of_phi_p(p, admissible):
    """For every prime r < 3000 with ord_p(r) = m coprime to pm, the field
    modulus is the first factor of Phi_p that the splitter yields: monic,
    of degree m, a divisor of Phi_p with x^p = 1 modulo it, and
    irreducible by Rabin's test.  All the factors have degree m, and
    (p - 1) / m of them multiply to Phi_p.  Two builds give the same
    modulus."""
    m = math.isqrt(p - 1)
    phi = [1] * p
    rs = [r for r in primes_up_to(3000)
          if r != p and m % r and multiplicative_order(r, p) == m]
    assert len(rs) == admissible
    for r in rs:
        modulus = list(constructions.build_gamma_l(p, r).modulus)
        assert list(constructions.build_gamma_l(p, r).modulus) == modulus
        factors = list(ml.equal_degree_factors(phi, m, r, random.Random(0)))
        assert factors[0] == modulus
        assert modulus[-1] == 1 and ml.poly_deg(modulus) == m
        assert ml.poly_mod(phi, modulus, r) == [0]
        assert ml.poly_powmod([0, 1], p, modulus, r) == [1]
        assert _is_irreducible(modulus, r, m), (p, r)
        assert len(factors) == (p - 1) // m
        assert all(ml.poly_deg(f) == m and f[-1] == 1 for f in factors)
        product = [1]
        for f in factors:
            product = ml.poly_mul(product, f, r)
        assert product == phi


@pytest.mark.parametrize("p, r", [(5, 19), (5, 509), (17, 13), (37, 11)])
def test_zeta_is_x_modulo_the_field_modulus(p, r):
    """zeta is x: the multiplication matrix is the companion matrix of the
    modulus f, so its column j, the image of x^j, is x^(j+1) mod f, and its
    first column is x itself.  x has order exactly p modulo f."""
    built = constructions.build_gamma_l(p, r)
    m, modulus = built.m, list(built.modulus)
    columns = [tuple(row[j] for row in built.mult_matrix) for j in range(m)]
    assert columns == [
        constructions._padded(ml.poly_mod([0] * (j + 1) + [1], modulus, r), m)
        for j in range(m)
    ]
    assert columns[0] == (0, 1) + (0,) * (m - 2)
    x = [0, 1]
    assert [i for i in range(1, p + 1)
            if ml.poly_powmod(x, i, modulus, r) == [1]] == [p]


def test_build_gamma_l_rejects_wrong_order():
    for r, message in ((11, "ord_5"),  # 11 = 1 mod 5, order 1
                       (5, "coprime")):  # r = p: no order is defined
        with pytest.raises(ValueError, match=message):
            constructions.build_gamma_l(5, r)


def test_build_gamma_l_5_19():
    built = constructions.build_gamma_l(5, 19)
    assert built.m == 2 and built.action.group.order == 10
    # multiplication matrix has multiplicative order exactly 5
    mat = built.mult_matrix
    power = mat
    for _ in range(4):
        power = ml.mat_mul(power, mat, 19)
    assert power == ml.mat_identity(2)
    # Frobenius matrix squares to the identity
    frob2 = ml.mat_mul(built.frobenius_matrix, built.frobenius_matrix, 19)
    assert frob2 == ml.mat_identity(2)


@pytest.mark.parametrize("p, r", [(5, 19), (17, 13), (37, 11)])
def test_normal_form_closure_matches_matrix_closure(p, r):
    """Closing the pairs (i, j) = zeta^i phi^j gives the group that closing
    the matrices Z, F by products gives: the matrices Z^i F^j of the pairs
    are its elements in the same order, with the same right tables, words
    and inverses."""
    built = constructions.build_gamma_l(p, r)
    by_matrices = engine.group_from_elements(
        [built.mult_matrix, built.frobenius_matrix],
        lambda x, y: ml.mat_mul(x, y, r), ml.mat_identity(built.m),
    )
    group = built.action.group
    assert list(built.action.matrices) == list(by_matrices.elements)
    assert group.generators == by_matrices.generators == [1, 2]
    assert group._right == by_matrices._right
    assert group._words == by_matrices._words
    assert group.inverse == by_matrices.inverse


def test_normal_form_refuses_repeated_matrices():
    """If F is not the Frobenius map but the identity, the pairs still form
    a group of order pm, but only p of the matrices Z^i F^j are distinct.
    F = I commutes with Z, and the invariant check refuses it there."""
    built = constructions.build_gamma_l(5, 19)
    zeta_powers = constructions._matrix_powers(built.mult_matrix, 5, 19)
    identity = ml.mat_identity(2)
    with pytest.raises(ConsistencyError, match="centralizes zeta"):
        constructions._verify_gamma_l_invariants(
            5, 19, zeta_powers, [identity, identity])
    with pytest.raises(ConsistencyError, match="order dividing"):
        constructions._matrix_powers(built.mult_matrix, 4, 19)


def _gamma_l_powers(p, r):
    built = constructions.build_gamma_l(p, r)
    return (built.m, constructions._matrix_powers(built.mult_matrix, p, r),
            constructions._matrix_powers(built.frobenius_matrix, built.m, r))


@pytest.mark.parametrize("p, r", [(5, 19), (17, 13), (37, 11)])
def test_presentation_refuses_a_trivial_generator(p, r):
    """Z = I and F = I each satisfy Z^p = I and F^m = I and the relation
    F Z = Z^r F, so `_matrix_powers` passes them; the invariant check
    refuses Z = I as a fixed point of zeta, which is what makes the action
    faithful, and F = I as a Frobenius map that centralizes zeta."""
    m, zeta_powers, frob_powers = _gamma_l_powers(p, r)
    identity = ml.mat_identity(m)
    assert constructions._matrix_powers(identity, p, r) == [identity] * p
    with pytest.raises(ConsistencyError, match="nonzero fixed space"):
        constructions._verify_gamma_l_invariants(
            p, r, [identity] * p, frob_powers)
    with pytest.raises(ConsistencyError, match="centralizes zeta"):
        constructions._verify_gamma_l_invariants(
            p, r, zeta_powers, [identity] * m)


@pytest.mark.parametrize("p, r, k", [(17, 13, 2), (17, 13, 3), (37, 11, 5)])
def test_presentation_refuses_the_frobenius_map_of_a_wrong_r(p, r, k):
    """F^k is the Frobenius map x -> x^(r^k): it has order dividing m and
    centralizes no power of zeta, but it conjugates zeta to zeta^(r^k),
    not zeta^r, and the relation F Z = Z^r F refuses it."""
    m, zeta_powers, frob_powers = _gamma_l_powers(p, r)
    assert pow(r, k, p) != r % p
    wrong = frob_powers[k]
    wrong_powers = constructions._matrix_powers(wrong, m, r)
    with pytest.raises(ConsistencyError, match="does not conjugate"):
        constructions._verify_gamma_l_invariants(p, r, zeta_powers, wrong_powers)


@pytest.mark.parametrize("p, r", [(5, 19), (17, 13)])
def test_pair_law_with_a_shifted_twist_is_refused(p, r, monkeypatch):
    """A pair law that twists by r^(j+1) in place of r^j is no group law:
    (0, 0) is not even its left identity.  The closure still reaches pm
    pairs, and the left-nucleus check of `metacyclic_group` refuses it: a
    generator's products, read along the words, disagree with its table."""
    monkeypatch.setattr(constructions, "pow",
                        lambda b, e, mod: builtins.pow(b, e + 1, mod),
                        raising=False)
    with pytest.raises(ConsistencyError, match="disagree with its table"):
        constructions.build_gamma_l(p, r)
    with pytest.raises(ConsistencyError, match="disagree with its table"):
        constructions.build_frobenius(p, math.isqrt(p - 1))


@pytest.mark.parametrize("p, r", [(5, 19), (5, 199), (17, 13)])
def test_presentation_proof_holds_on_the_listed_matrices(p, r):
    """What the presentation proves, checked the long way on a listed copy
    of A's matrices: they are distinct, and `validate` finds that they
    multiply as their pairs do."""
    action = constructions.build_gamma_l(p, r).action
    listed = constructions.LinearGroupAction(
        action.ell, action.dim, action.group, tuple(action.matrices))
    listed.validate()
    assert len(set(listed.matrices)) == action.group.order


@pytest.mark.parametrize("p, r", [(5, 19), (17, 13)])
def test_gamma_l_centralizer_counts_frobenius_powers(p, r):
    """C_A(P) is read off the powers F^j.  Listed twice over, as for a
    complement C_2m whose factor phi^m acts trivially, the centralizer has
    2p elements and is refused."""
    built = constructions.build_gamma_l(p, r)
    zeta_powers = constructions._matrix_powers(built.mult_matrix, p, r)
    frob_powers = constructions._matrix_powers(built.frobenius_matrix, built.m, r)
    constructions._verify_gamma_l_invariants(p, r, zeta_powers, frob_powers)
    with pytest.raises(ConsistencyError, match=f"= {2 * p}, expected {p}"):
        constructions._verify_gamma_l_invariants(
            p, r, zeta_powers, frob_powers * 2)


def _table_subgroup(group, indices):
    """The subgroup on closed indices as a relabeled |I| x |I| table,
    proven a group by the table path of validate(), one row composition
    per element: a reference that shares no closure code."""
    pos = {g: t for t, g in enumerate(indices)}
    table = [[pos[group.mul(g, h)] for h in indices] for g in indices]
    return engine.group_from_table(table)


@pytest.mark.parametrize("p, r", [(5, 19), (5, 199), (17, 13), (37, None)])
def test_inertia_subgroups_match_table_route(p, r, monkeypatch):
    """Every inertia subgroup the Clifford count meets, closed over the
    parent from greedy generators, against the table route: same order,
    same degrees, and products that are the parent's after relabeling."""
    if r is None:
        r = constructions.find_construction_prime(p)
    action = constructions.build_gamma_l(p, r).action
    group = action.group
    closed = constructions._subgroup_from_indices
    met = []

    def recording(parent, indices):
        met.append(list(indices))
        return closed(parent, indices)

    monkeypatch.setattr(constructions, "_subgroup_from_indices", recording)
    constructions.clifford_pprime_count(action, p)
    # the zero functional's inertia subgroup is all of A
    assert len(met) >= 3 and any(len(i) == group.order for i in met)
    for indices in met:
        subgroup = closed(group, indices)
        reference = _table_subgroup(group, indices)
        assert subgroup.order == reference.order == len(indices)
        assert sorted(subgroup.elements) == indices
        assert engine.irreducible_degrees(subgroup) == \
            engine.irreducible_degrees(reference)
        elements = subgroup.elements
        for a in range(subgroup.order):
            for b in range(subgroup.order):
                assert elements[subgroup.mul(a, b)] == \
                    group.mul(elements[a], elements[b])


def test_inertia_index_set_must_be_closed():
    group = constructions.build_gamma_l(5, 19).action.group
    zeta, phi = group.generators
    subgroup_p = sorted(engine.subgroup_closure(group, [zeta]))
    for indices in ([group.identity, zeta], [zeta], subgroup_p + [phi],
                    [x for x in range(group.order) if x != zeta]):
        with pytest.raises(ConsistencyError, match="not closed"):
            constructions._subgroup_from_indices(group, indices)
    assert constructions._subgroup_from_indices(group, subgroup_p).order == 5


def test_clifford_gamma_l_5_19():
    built = constructions.build_gamma_l(5, 19)
    result = constructions.clifford_pprime_count(built.action, 5)
    assert result.pprime_count == 4
    assert result.degrees.sum_of_squares() == 3610
    # nonzero dual orbits only contribute degrees divisible by p
    for row in result.orbit_rows:
        if row["orbit_size"] > 1:
            assert all(d % 5 == 0 for d, _ in row["degrees"].counts)
    zero_orbit = [r for r in result.orbit_rows if r["orbit_size"] == 1]
    assert zero_orbit == [{"orbit_size": 1, "inertia_order": 10, "orbits": 1,
                           "degrees": engine.DegreeMultiset(((1, 2), (2, 2)))}]


def test_clifford_trivial_action():
    c2 = engine.cyclic_group(2)
    action = constructions.LinearGroupAction(3, 1, c2, (((1,),), ((1,),)))
    action.validate()
    result = constructions.clifford_pprime_count(action, 5)
    assert result.degrees.degrees == (1, 1, 1, 1, 1, 1)
    assert result.pprime_count == 6


def test_clifford_frobenius_paths():
    action = _frobenius_action(5, 2)
    assert constructions.clifford_pprime_count(action, 5).degrees.degrees == \
        (1, 1, 2, 2)
    action = _frobenius_action(17, 4)
    assert constructions.clifford_pprime_count(action, 17).degrees.degrees == \
        (1, 1, 1, 1, 4, 4, 4, 4)


def _sweep_orbit_rows(action):
    """Reference for the Clifford count: visit every functional, take the
    dual orbits by breadth-first search over the generators, and read each
    inertia subgroup off its orbit's first vector."""
    ell, dim, group = action.ell, action.dim, action.group
    n = group.order
    dual = [ml.mat_transpose(lk.mat_inv(mat, ell)) for mat in action.matrices]
    vectors = list(constructions._all_vectors(ell, dim))
    code = {v: c for c, v in enumerate(vectors)}
    visited = bytearray(len(vectors))
    inertia_degrees = {}
    rows = []
    for start in range(len(vectors)):
        if visited[start]:
            continue
        visited[start] = 1
        orbit = [start]
        for c in orbit:
            for g in group.generators:
                w = code[tuple(lk.mat_vec(dual[g], vectors[c], ell))]
                if not visited[w]:
                    visited[w] = 1
                    orbit.append(w)
        rep = vectors[start]
        inertia = tuple(
            g for g in range(n) if tuple(lk.mat_vec(dual[g], rep, ell)) == rep
        )
        assert len(orbit) * len(inertia) == n
        if inertia not in inertia_degrees:
            subgroup = constructions._subgroup_from_indices(group, list(inertia))
            inertia_degrees[inertia] = engine.irreducible_degrees(subgroup).degrees
        rows.append((len(orbit), len(inertia),
                     tuple(len(orbit) * d for d in inertia_degrees[inertia])))
    return rows


def _trivial_action():
    action = constructions.LinearGroupAction(
        3, 1, engine.cyclic_group(2), (((1,),), ((1,),)))
    action.validate()
    return action


def _klein_action():
    """C2 x C2 on F_3^3 by diag(1, -1, -1) and diag(-1, 1, -1): every
    element fixes a line or more, and 0 is only the meet of two lines."""
    gens = [((1, 0, 0), (0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 1, 0), (0, 0, 2))]
    group = engine.group_from_elements(
        gens, lambda x, y: ml.mat_mul(x, y, 3), ml.mat_identity(3), name="C2^2")
    action = constructions.LinearGroupAction(3, 3, group, tuple(group.elements))
    action.validate()
    return action


@pytest.mark.parametrize("make_action, p", [
    (lambda: constructions.build_gamma_l(5, 19).action, 5),
    (lambda: constructions.build_gamma_l(5, 199).action, 5),
    (lambda: constructions.build_gamma_l(
        17, constructions.find_construction_prime(17)).action, 17),
    (lambda: _frobenius_action(5, 2), 5),
    (lambda: _frobenius_action(17, 4), 17),
    (_trivial_action, 5),
    (_klein_action, 2),
], ids=["gamma_5_19", "gamma_5_199", "gamma_17", "frobenius_5_2",
        "frobenius_17_4", "trivial", "klein_f3"])
def test_clifford_matches_dual_sweep(make_action, p):
    action = make_action()
    result = constructions.clifford_pprime_count(action, p)
    reference = _sweep_orbit_rows(action)
    # one row per inertia type, expanded to one per orbit by its count
    expanded = Counter()
    for row in result.orbit_rows:
        key = (row["orbit_size"], row["inertia_order"], row["degrees"].degrees)
        expanded[key] += row["orbits"]
    assert expanded == Counter(reference)
    assert result.degrees.degrees == tuple(
        sorted(d for _, _, degrees in reference for d in degrees))


@pytest.mark.parametrize("make_action", [
    *(lambda p=p, r=r: constructions.build_gamma_l(p, r).action
      for p, r in ((5, 19), (5, 199), (5, 509), (17, 13), (37, 11), (101, 17))),
    lambda: _frobenius_action(17, 4), _trivial_action, _klein_action,
], ids=["gamma_5_19", "gamma_5_199", "gamma_5_509", "gamma_17_13",
        "gamma_37_11", "gamma_101_17", "frobenius_17_4", "trivial", "klein_f3"])
def test_fixed_space_lattice_matches_list_reference(make_action):
    """Class transport, containment stabilizers and the skipped meets give
    the representatives, orbit sizes and stabilizers, in the same order,
    that one nullspace per element and one meet per pair give."""
    action = make_action()
    group, ell = action.group, action.ell
    dual = [ml.mat_transpose(action.matrices[group.inverse[g]])
            for g in range(group.order)]
    lattice = constructions._fixed_space_lattice(
        action, engine._generator_conjugations(group))
    assert lattice == lk.fixed_space_lattice(group, dual, ell)
    if make_action is _klein_action:
        reps, _, _ = lattice
        assert [len(rep) for rep in reps] == [3, 1, 1, 1, 0]


def test_solvable_witness_p37():
    code, report = _run_cli(["solvable", "--p", "37"])
    row = report["rows"][0]
    assert code == 0 and row["r"] == 11
    assert row["pprime_count"] == 12
    assert row["sum_of_squares"] == row["order"] == 11**6 * 37 * 6


def test_solvable_witness_p101():
    # 17^10 functionals in about 2 * 10^9 orbits, counted by inertia type
    code, report = _run_cli(["solvable", "--p", "101"])
    row = report["rows"][0]
    assert code == 0 and row["r"] == 17
    assert row["pprime_count"] == row["expected"] == 20
    assert row["sum_of_squares"] == row["order"] == 17**10 * 1010


def test_solvable_witness_p197():
    # 19^14 functionals; the values were recorded before A was closed by
    # index arithmetic
    code, report = _run_cli(["solvable", "--p", "197"])
    row = report["rows"][0]
    assert code == 0 and row["r"] == 19
    assert row["order"] == row["sum_of_squares"] == 2203660439389194405718
    assert row["pprime_count"] == row["expected"] == 28
    assert row["degrees"] == {"1": 14, "14": 14, "197": 252, "394": 1197,
                              "1379": 255391920, "2758": 289705043397420}


def test_action_validation_rejects_wrong_characteristic():
    c2 = engine.cyclic_group(2)
    action = constructions.LinearGroupAction(2, 1, c2, (((1,),), ((1,),)))
    with pytest.raises(ValueError):
        action.validate()
    # the count refuses it too, before it validates the action
    with pytest.raises(ValueError, match="not coprime"):
        constructions.clifford_pprime_count(action, 5)


def test_action_validation_rejects_non_homomorphism():
    # 2 has order 4 mod 5, so g -> 2^k on C3 fails only at g * g^2 = e
    c3 = engine.cyclic_group(3)
    action = constructions.LinearGroupAction(5, 1, c3, (((1,),), ((2,),), ((4,),)))
    with pytest.raises(ConsistencyError, match="homomorphism"):
        action.validate()
    c1 = engine.cyclic_group(1)
    action = constructions.LinearGroupAction(5, 1, c1, (((0,),),))
    with pytest.raises(ConsistencyError, match="identity"):
        action.validate()


def test_clifford_count_refuses_a_listed_action_that_is_no_homomorphism():
    """diag(2, 6) over F_7 squares to diag(4, 1) != I, so it is not the
    image of the generator of C2.  Counted as given, it would read as the
    degrees ((1, 2), (2, 24)), and every check of the count would pass:
    1 * 2 + 4 * 24 = 98 = 7^2 * 2.  The count validates a listed action
    first and refuses it."""
    c2 = engine.cyclic_group(2)
    g = next(x for x in range(2) if x != c2.identity)
    mats = [None, None]
    mats[c2.identity], mats[g] = ml.mat_identity(2), ((2, 0), (0, 6))
    action = constructions.LinearGroupAction(7, 2, c2, tuple(mats))
    with pytest.raises(ConsistencyError, match="homomorphism"):
        constructions.clifford_pprime_count(action, 7)


def test_action_validation_checks_every_row_and_entry():
    """M(g) = diag(1, 2) over F_5 squares to diag(1, 4): the product fails
    in its second row only.  An entry outside [0, 5) is refused even where
    it is the right residue."""
    c2 = engine.cyclic_group(2)
    g = next(x for x in range(2) if x != c2.identity)

    def action(mat):
        mats = [None, None]
        mats[c2.identity], mats[g] = ml.mat_identity(2), mat
        return constructions.LinearGroupAction(5, 2, c2, tuple(mats))

    action(((4, 0), (0, 1))).validate()
    with pytest.raises(ConsistencyError, match="homomorphism"):
        action(((1, 0), (0, 2))).validate()
    with pytest.raises(ConsistencyError, match="not reduced"):
        action(((4, 0), (0, 6))).validate()


def test_engine_cross_check_frobenius():
    action = _frobenius_action(5, 2)
    report = constructions.engine_cross_check(action, 5)
    assert report.status == "pass"
    report = constructions.engine_cross_check(_frobenius_action(17, 4), 17)
    assert report.status == "pass"


def test_semidirect_order():
    action = _frobenius_action(5, 2)
    product = constructions.semidirect_product_permutations(action)
    assert product.order == 10


def test_clifford_multiset_counts_match_class_count():
    built = constructions.build_gamma_l(5, 19)
    result = constructions.clifford_pprime_count(built.action, 5)
    # 1 zero orbit (4 degrees) + 18 orbits of size 5 (2 each) + 27 of size 10
    sizes = Counter()
    for row in result.orbit_rows:
        sizes[row["orbit_size"]] += row["orbits"]
    assert sizes == {1: 1, 5: 18, 10: 27}
    assert len(result.degrees.degrees) == 67
