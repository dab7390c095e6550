import itertools
import math
import operator
import random
import time
import tracemalloc
from collections import Counter
from functools import cache, partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ppchars import constructions, engine, symmetric
from ppchars import modlinalg as ml
from ppchars.errors import ConsistencyError, EngineSplitError, SizeLimitError

import list_kernels as lk


def _perm_compose(a, b):
    return tuple(map(a.__getitem__, b))


def _perm_invert(a):
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def _table(g):
    """The multiplication table of g, as lists of element indices."""
    return [[g.mul(i, j) for j in range(g.order)] for i in range(g.order)]


def _affine_ops(p, m):
    """Product and inverse on the pairs (b, j) of build_frobenius(p, m),
    computed on the affine maps x -> a^j x + b that they stand for."""
    a = constructions._order_m_element(p, m)
    log = {pow(a, j, p): j for j in range(m)}

    def compose(x, y):
        s, t = pow(a, x[1], p), pow(a, y[1], p)
        return (s * y[0] + x[0]) % p, log[s * t % p]

    def inverse(x):
        s = pow(a, -x[1], p)
        return (-s * x[0]) % p, log[s]

    return compose, inverse


def _affine_right_multiplier(p, m):
    compose, inverse = _affine_ops(p, m)
    return (lambda z: lambda x: compose(x, z)), inverse


@cache
def _criterion_8_corpus():
    """The engine acceptance corpus, each group with element-level maps
    z -> (x -> x z) and x -> x^-1.  For a permutation, x z = x o z is
    itemgetter(*z)(x).  Built once per module: the tests that read it
    share its groups, and with them the reference counts of
    `_reference_counts`."""
    perm = (lambda z: operator.itemgetter(*z), _perm_invert)
    gamma = constructions.build_gamma_l(5, 19)
    return (
        (engine.cyclic_group(12), perm),
        (engine.dihedral_group(10), perm),
        (engine.symmetric_group(4), perm),
        (engine.symmetric_group(5), perm),
        (engine.alternating_group(5), perm),
        (engine.alternating_group(6), perm),
        (constructions.build_frobenius(5, 2)[0], _affine_right_multiplier(5, 2)),
        (constructions.build_frobenius(17, 4)[0], _affine_right_multiplier(17, 4)),
        (constructions.build_frobenius(257, 16)[0],
         _affine_right_multiplier(257, 16)),
        (constructions.semidirect_product_permutations(gamma.action), perm),
    )


def test_cyclic():
    g = engine.cyclic_group(5)
    g.validate()
    assert g.order == 5
    cc = engine.conjugacy_classes(g)
    assert len(cc.reps) == 5 and set(cc.sizes) == {1}
    assert engine.irreducible_degrees(g).degrees == (1, 1, 1, 1, 1)
    assert engine.derived_subgroup_index(g) == 5


def test_dihedral_10():
    g = engine.dihedral_group(10)
    g.validate()
    cc = engine.conjugacy_classes(g)
    assert sorted(cc.sizes) == [1, 2, 2, 5]
    degrees = engine.irreducible_degrees(g)
    assert degrees.degrees == (1, 1, 2, 2)
    assert degrees.pprime_count(5) == 4
    assert engine.derived_subgroup_index(g) == 2


def test_group_from_affine_generators():
    # x -> x + 1 and x -> 2x on Z/5 generate the full affine group, order 20
    add = tuple((i + 1) % 5 for i in range(5))
    dbl = tuple(2 * i % 5 for i in range(5))
    g = engine.group_from_permutations([add, dbl])
    assert g.order == 20
    assert engine.derived_subgroup_index(g) == 4


def test_symmetric_groups_match_hook_lengths():
    for n in (4, 5):
        g = engine.symmetric_group(n)
        got = engine.irreducible_degrees(g).degrees
        expected = tuple(sorted(d for _, d in symmetric.symmetric_degrees(n)))
        assert got == expected
    assert engine.irreducible_degrees(engine.symmetric_group(4)).degrees == (1, 1, 2, 3, 3)
    assert engine.irreducible_degrees(engine.symmetric_group(5)).degrees == (1, 1, 4, 4, 5, 5, 6)


def test_a5():
    g = engine.alternating_group(5)
    assert g.order == 60
    cc = engine.conjugacy_classes(g)
    assert sorted(cc.sizes) == [1, 12, 12, 15, 20]
    degrees = engine.irreducible_degrees(g)
    assert degrees.degrees == (1, 3, 3, 4, 5)
    assert degrees.pprime_count(5) == 4
    assert engine.derived_subgroup_index(g) == 1


def test_pprime_count_refuses_a_non_prime():
    # before, p = 0 raised ZeroDivisionError and p = 4 gave a count
    g = engine.alternating_group(5)
    degrees = engine.irreducible_degrees(g)
    for p in (0, 1, 4, -3, -5):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            degrees.pprime_count(p)


def test_a6_known_degree_list():
    degrees = engine.irreducible_degrees(engine.alternating_group(6))
    assert degrees.degrees == (1, 5, 5, 8, 8, 9, 10)
    assert degrees.pprime_count(5) == 4


def test_multiset_invariants_across_corpus():
    for g in (
        engine.cyclic_group(12),
        engine.dihedral_group(16),
        engine.symmetric_group(4),
        engine.alternating_group(5),
    ):
        degrees = engine.irreducible_degrees(g)
        cc = engine.conjugacy_classes(g)
        assert degrees.sum_of_squares() == g.order
        assert len(degrees.degrees) == len(cc.reps)
        assert degrees.linear_count() == engine.derived_subgroup_index(g)
        assert sum(cc.sizes) == g.order
        assert all(g.order % s == 0 for s in cc.sizes)


def test_inverse_class_is_involution():
    cc = engine.conjugacy_classes(engine.symmetric_group(5))
    inv = cc.inverse_class
    assert inv[0] == 0
    assert all(inv[inv[c]] == c for c in range(len(inv)))


def test_determinism_across_seeds():
    g = engine.alternating_group(6)
    base = engine.irreducible_degrees(g, seed=0).degrees
    for seed in (1, 7, 123456):
        assert engine.irreducible_degrees(g, seed=seed).degrees == base


def test_class_limit_guard():
    with pytest.raises(SizeLimitError):
        engine.irreducible_degrees(engine.cyclic_group(81))


def test_order_limit_guard():
    """Every constructor that knows its order up front refuses a group past
    DEFAULT_ORDER_LIMIT before it builds it."""
    refused = [
        lambda: engine.cyclic_group(10**6),
        lambda: engine.symmetric_group(10**4),
        lambda: constructions.build_frobenius(100003, 2),
        lambda: constructions.build_gamma_l(401, 179),  # |A| = 401 * 20
    ]
    c12 = engine.cyclic_group(12)
    with mock.patch.object(engine, "DEFAULT_ORDER_LIMIT", 10):
        refused += [
            lambda: engine.group_from_table(_table(c12)),
        ]
        for build in refused:
            start = time.perf_counter()
            with pytest.raises(SizeLimitError, match="engine bound"):
                build()
            assert time.perf_counter() - start < 1


def test_closure_limit_guard():
    """The closure refuses S9 (order 362880) at the element past
    DEFAULT_ORDER_LIMIT, long before it has built the group."""
    cycle = tuple(list(range(1, 9)) + [0])
    swap = (1, 0, 2, 3, 4, 5, 6, 7, 8)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="engine bound"):
        engine.group_from_permutations([cycle, swap])
    assert time.perf_counter() - start < 1
    with mock.patch.object(engine, "DEFAULT_ORDER_LIMIT", 10):
        with pytest.raises(SizeLimitError, match="engine bound"):
            engine.group_from_permutations([tuple(range(1, 12)) + (0,)])


def test_s8_from_raw_permutations_is_refused_with_the_closure_message():
    """S8 (order 40320) has a point stabilizer S7 of order 5040, so the
    refusal comes from the stabilizer's closure or from |H| |orbit|, with
    the message the closure of G itself gave."""
    cycle = tuple(list(range(1, 8)) + [0])
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as refused:
        engine.group_from_permutations([cycle, swap])
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (
        "group order at least 5001 exceeds engine bound 5000")


def _closed_by_callback(perms):
    """The reference: the generic closure, one composition and one hash
    per element and generator."""
    identity = tuple(range(len(perms[0])))
    return engine.group_from_elements(
        [tuple(p) for p in perms], engine._compose_perms, identity)


def _assert_same_closure(perms):
    try:
        expected = _closed_by_callback(perms)
    except SizeLimitError as exc:
        with pytest.raises(SizeLimitError) as refused:
            engine.group_from_permutations(perms)
        assert str(refused.value) == str(exc)
        return
    g = engine.group_from_permutations(perms)
    for name in ("elements", "_right", "_words", "inverse", "generators",
                 "identity"):
        assert getattr(g, name) == getattr(expected, name), name


def _psl2_generators(q):
    """x -> x + 1 and x -> -1/x on the projective line, infinity = q."""
    t = [(x + 1) % q for x in range(q)] + [q]
    s = [q] + [(-pow(x, -1, q)) % q for x in range(1, q)] + [0]
    return [t, s]


def _vxa_generators():
    product = constructions.semidirect_product_permutations(
        constructions.build_gamma_l(5, 19).action)
    return [product.elements[g] for g in product.generators]


# built inside the test, so that a closure that fails fails one case
_STABILIZER_CLOSURE_CASES = {
    "V x| A(5, 19)": _vxa_generators,
    **{f"PSL(2, {q})": partial(_psl2_generators, q)
       for q in (7, 11, 13, 17, 19)},
    "S6": lambda: [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]],
    "A6": lambda: [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]],
    "degree 1": lambda: [[0]],
    "trivial": lambda: [[0, 1, 2], [0, 1, 2]],
}


@pytest.mark.parametrize("name", _STABILIZER_CLOSURE_CASES)
def test_stabilizer_closure_matches_the_callback_closure(name):
    _assert_same_closure(_STABILIZER_CLOSURE_CASES[name]())


@st.composite
def _generating_sets(draw):
    """1 to 3 random permutations of at most 9 points, perhaps with the
    identity put in and one of them repeated.  Points below `cut` and from
    `cut` on are permuted apart, so 0 < cut < degree gives an intransitive
    group."""
    degree = draw(st.integers(min_value=1, max_value=9))
    cut = draw(st.integers(min_value=0, max_value=degree))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        low, high = list(range(cut)), list(range(cut, degree))
        rng.shuffle(low)
        rng.shuffle(high)
        gens.append(low + high)
    if draw(st.booleans()):
        gens.insert(rng.randrange(len(gens) + 1), list(range(degree)))
    if draw(st.booleans()):
        gens.append(rng.choice(gens))
    return gens


@settings(max_examples=150, deadline=None)
@given(_generating_sets())
def test_stabilizer_closure_matches_on_random_generating_sets(perms):
    _assert_same_closure(perms)


_ELEMENT_VIEW_CASES = {
    name: _STABILIZER_CLOSURE_CASES[name]
    for name in ("V x| A(5, 19)", "PSL(2, 13)", "S6", "trivial")
}


@pytest.mark.parametrize("name", _ELEMENT_VIEW_CASES)
def test_element_view_reads_like_the_closure_list(name):
    """A permutation group's elements are composed when read; as a
    sequence they behave like the callback closure's list."""
    perms = _ELEMENT_VIEW_CASES[name]()
    expected = _closed_by_callback(perms).elements
    elements = engine.group_from_permutations(perms).elements
    n = len(expected)
    assert len(elements) == n
    assert list(elements) == expected
    assert elements == expected and expected == elements
    assert not elements != expected and not expected != elements
    assert elements != expected[:-1] + [tuple(reversed(expected[-1]))]
    rng = random.Random(11)
    for i in rng.sample(range(n), min(n, 25)) + [0, n - 1]:
        assert elements[i] == expected[i]
        assert elements[i - n] == expected[i]
        assert expected[i] in elements
    for i in (n, n + 7, -n - 1):
        with pytest.raises(IndexError):
            elements[i]
    degree = len(expected[0])
    swap = (1, 0) + tuple(range(2, degree))  # in S6 alone of these groups
    assert (swap in elements) == (swap in expected)
    assert tuple(range(degree + 1)) not in elements


def test_permutation_group_keeps_no_element_list():
    """V x| A(5, 19) has 3610 elements on 361 points, 10.6 MB as tuples;
    built, it retains under 4 MB: tables, words and the transversal."""
    gens = _vxa_generators()
    tracemalloc.start()
    try:
        group = engine.group_from_permutations(gens)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert group.order == 3610
    assert retained < 4_000_000


def test_degrees_compose_no_permutation():
    """The engine works on the index tables alone: once V x| A(5, 19) is
    built, its degrees read no element and compose no permutation of its
    361 points (`right_regular` composes index maps of length 3610)."""
    gens = _vxa_generators()
    group, degree = engine.group_from_permutations(gens), len(gens[0])
    view = type(group.elements)
    counts = {"points": 0, "reads": 0}
    compose = engine._compose_perms

    def counting_compose(a, b):
        counts["points"] += len(b) == degree
        return compose(a, b)

    def counting(method):
        def read(self, *args):
            counts["reads"] += 1
            return method(self, *args)
        return read

    with mock.patch.object(engine, "_compose_perms", counting_compose), \
            mock.patch.object(view, "__getitem__", counting(view.__getitem__)), \
            mock.patch.object(view, "__iter__", counting(view.__iter__)):
        degrees = engine.irreducible_degrees(group)
    assert degrees.pprime_count(5) == 4  # 2 sqrt(5 - 1): the bound is sharp
    assert counts == {"points": 0, "reads": 0}


def test_s8_refusal_stops_the_stabilizer_closure_at_its_share():
    """S8 acts on an orbit of 8 points, so its point stabilizer S7 may
    hold at most 5000 // 8 = 625 elements: its closure is refused at the
    626th element, not the 5001st, with the message for S8 itself."""
    cycle = tuple(list(range(1, 8)) + [0])
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    built = set()
    compose = engine._compose_perms

    def counting(a, b):
        product = compose(a, b)
        built.add(product)
        return product

    with mock.patch.object(engine, "_compose_perms", counting):
        with pytest.raises(SizeLimitError) as refused:
            engine.group_from_permutations([cycle, swap])
    assert str(refused.value) == (
        "group order at least 5001 exceeds engine bound 5000")
    assert 0 < len(built) <= 626


def test_closure_rejects_a_composition_without_inverses():
    # max on {0, 1} closes with identity 0, but no power of 1 is 0
    with pytest.raises(ConsistencyError):
        engine.group_from_elements([1], max, 0)


def test_compose_perms_matches_the_reference_formula():
    rng = random.Random(2)
    for degree in (1, 2, 5, 40):
        for _ in range(20):
            a, b = list(range(degree)), list(range(degree))
            rng.shuffle(a)
            rng.shuffle(b)
            a, b = tuple(a), tuple(b)
            assert engine._compose_perms(a, b) == _perm_compose(a, b)


def test_group_from_table_roundtrip():
    g = engine.dihedral_group(8)
    h = engine.group_from_table(_table(g))
    assert h.order == 8
    assert engine.irreducible_degrees(h).degrees == (1, 1, 1, 1, 2)


def test_group_from_table_rejects_garbage():
    with pytest.raises(ValueError):
        engine.group_from_table([[0, 1], [0, 1]])


def test_group_from_table_rejects_entries_out_of_range():
    # -2 indexes from the end, so without the range check this table
    # reaches validate() and is reported as an internal consistency failure
    for bad in (-2, 3):
        with pytest.raises(ValueError, match="0..2"):
            engine.group_from_table([[0, 1, 2], [1, 2, 0], [2, 0, bad]])
    # non-integers are refused, not truncated or converted: 1.9 would
    # read as 1, True as 1 and "1" as 1
    for bad in (1.9, True, "1"):
        with pytest.raises(ValueError, match="must be integers"):
            engine.group_from_table([[0, 1], [1, bad]])


def test_group_from_table_identity_not_at_zero():
    # relabel D10 so the identity sits at index 3; degrees must not change
    g = engine.dihedral_group(10)
    table = _table(g)
    n = g.order
    sigma = [(i + 3) % n for i in range(n)]  # new -> old
    sigma_inv = [0] * n
    for new, old in enumerate(sigma):
        sigma_inv[old] = new
    relabeled = [
        [sigma_inv[table[sigma[a]][sigma[b]]] for b in range(n)]
        for a in range(n)
    ]
    h = engine.group_from_table(relabeled)
    assert h.identity == sigma_inv[0] != 0
    assert engine.irreducible_degrees(h).degrees == (1, 1, 2, 2)
    assert engine.derived_subgroup_index(h) == 2


def test_trivial_group():
    g = engine.cyclic_group(1)
    assert engine.irreducible_degrees(g).degrees == (1,)


def test_index_mul_and_right_regular_match_callback():
    gamma = constructions.build_gamma_l(5, 19)
    # A's pairs multiplied through their matrices Z^i F^j
    matrix_of = dict(zip(gamma.action.group.elements, gamma.action.matrices))
    pair_of = {mat: x for x, mat in matrix_of.items()}
    cases = [
        (engine.alternating_group(6), _perm_compose),
        (constructions.build_frobenius(17, 4)[0], _affine_ops(17, 4)[0]),
        (gamma.action.group,
         lambda x, y: pair_of[ml.mat_mul(matrix_of[x], matrix_of[y], 19)]),
    ]
    rng = random.Random(5)
    for g, compose in cases:
        elems = g.elements
        index = {x: i for i, x in enumerate(elems)}
        for _ in range(300):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            assert g.mul(i, j) == index[compose(elems[i], elems[j])]
        for j in rng.sample(range(g.order), 5):
            assert g.right_regular(j) == [
                index[compose(x, elems[j])] for x in elems
            ]


def _tuple_formula(g, cc, right_multiplier, invert):
    """The sorted nonzero (j, k, a_ijk) of each class i, for
    a_ijk = #{x in K_i : x^-1 z_k in K_j}, with x^-1 z_k formed from the
    elements themselves rather than from the index tables.  The inverses
    from the index tables must match the element-level ones too."""
    c = len(cc.reps)
    expected = [[[0] * c for _ in range(c)] for _ in range(c)]
    elements = list(g.elements)
    index = {x: i for i, x in enumerate(elements)}
    inverses = [invert(x) for x in elements]
    assert [index[x] for x in inverses] == g.inverse, g.name
    for k, zk in enumerate(cc.reps):
        times_z = right_multiplier(elements[zk])
        for x, x_inv in enumerate(inverses):
            j = cc.class_of[index[times_z(x_inv)]]
            expected[cc.class_of[x]][j][k] += 1
    return [
        sorted((j, k, a) for j, row in enumerate(mat)
               for k, a in enumerate(row) if a)
        for mat in expected
    ]


_REFERENCES = {}


def _reference_counts(g, cc, right_multiplier, invert):
    """`_tuple_formula` of g, computed once per group object.  The entry
    keeps g alive, so its id is not reused while the module runs."""
    if id(g) not in _REFERENCES:
        _REFERENCES[id(g)] = (g, _tuple_formula(g, cc, right_multiplier, invert))
    return _REFERENCES[id(g)][1]


def test_class_matrices_match_tuple_formula():
    """The engine lists the nonzero (j, k, a_ijk) of each class i, each
    once, as the tuple formula counts them."""
    for g, (right_multiplier, invert) in _criterion_8_corpus():
        cc = engine.conjugacy_classes(g)
        expected = _reference_counts(g, cc, right_multiplier, invert)
        assert [sorted(t) for t in engine._class_matrices(g, cc)] == expected, g.name


def _relabeled_psl27_table():
    """PSL(2, 7) as a Cayley table with its elements relabeled by a random
    permutation, so that the identity is not at index 0."""
    table = _table(engine.group_from_permutations(_psl2_generators(7)))
    n = len(table)
    sigma = list(range(n))  # new -> old
    random.Random(41).shuffle(sigma)
    sigma_inv = [0] * n
    for new, old in enumerate(sigma):
        sigma_inv[old] = new
    return engine.group_from_table(
        [[sigma_inv[table[sigma[a]][sigma[b]]] for b in range(n)]
         for a in range(n)])


def _table_ops(g):
    """x -> x z and x -> x^-1 read off the Cayley table alone."""
    table = g._table
    e = next(i for i, row in enumerate(table) if row == tuple(range(len(table))))
    return lambda z: lambda x: table[x][z], lambda x: table[x].index(e)


_PREFIX_WALK_CASES = {
    # the corpus group, closed from the generators of _vxa_generators()
    "V x| A(5, 19)": lambda: _criterion_8_corpus()[-1],
    "PSL(2, 19)": lambda: (
        engine.group_from_permutations(_psl2_generators(19)),
        (lambda z: operator.itemgetter(*z), _perm_invert)),
    "F(37, 6)": lambda: (
        constructions.build_frobenius(37, 6)[0], _affine_right_multiplier(37, 6)),
    "PSL(2, 7) table": lambda: (
        (g := _relabeled_psl27_table()), _table_ops(g)),
}


@pytest.mark.parametrize("name", _PREFIX_WALK_CASES)
def test_class_matrices_by_prefix_walk_match_tuple_formula(name):
    """The prefix walk shares the maps of common word prefixes; on groups
    where one representative's word is a proper prefix of another's it
    still counts what the tuple formula counts.  A table group reads its
    columns instead, with the identity away from index 0."""
    g, (right_multiplier, invert) = _PREFIX_WALK_CASES[name]()
    cc = engine.conjugacy_classes(g)
    if g._words is not None:
        words = [g._words[r] for r in cc.reps]
        assert any(v != w and v[:len(w)] == w for w in words if w for v in words)
    else:
        assert g.identity != 0
    expected = _reference_counts(g, cc, right_multiplier, invert)
    assert [sorted(t) for t in engine._class_matrices(g, cc)] == expected


def test_class_matrices_keep_one_map_per_letter_of_the_word_in_hand():
    """V x| A(5, 19) has 67 representative words with 77 distinct proper
    prefixes, none longer than 10 letters; each prefix map holds 3610
    indices, about 29 KB.  The engine walks 40 of these words, one of each
    inverse pair of classes, through 54 of the prefixes.  Beyond the
    structure constants it returns, the class matrices allocate at their
    peak under 1 MB: the maps of one word, not the 3.2 MB that all 112
    prefix maps would take."""
    g = engine.group_from_permutations(_vxa_generators())
    cc = engine.conjugacy_classes(g)
    words = [g._words[r] for r in cc.reps]
    assert len({w[:n] for w in words for n in range(1, len(w))}) == 77
    assert max(map(len, words)) == 11
    tracemalloc.start()
    try:
        mats = engine._class_matrices(g, cc)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mats) == 67
    assert peak - retained < 1_000_000


def test_tuple_formula_is_the_same_on_inverted_classes():
    """a_{i*j*k*} = a_ijk, with * the inverse class, on the reference
    counts, which form x^-1 z_k from the elements themselves.  The engine
    counts one class k of each inverse pair and lists k* by this
    identity, so it is checked here without the engine's counts."""
    g = _relabeled_psl27_table()
    cases = [*_criterion_8_corpus(), (g, _table_ops(g))]
    pairs = 0
    for g, (right_multiplier, invert) in cases:
        cc = engine.conjugacy_classes(g)
        star = cc.inverse_class
        triples = _reference_counts(g, cc, right_multiplier, invert)
        mirrored = [
            sorted((star[j], star[k], a) for j, k, a in triples[star[i]])
            for i in range(len(triples))
        ]
        assert mirrored == triples, g.name
        pairs += sum(star[k] > k for k in range(len(star)))
    assert pairs > 0


_INVERSE_PAIR_CASES = {
    "V x| A(5, 19)": (
        lambda: engine.group_from_permutations(_vxa_generators()), 40, 67),
    "F(37, 36)": (lambda: constructions.build_frobenius(37, 36)[0], 20, 37),
    "D300": (lambda: engine.dihedral_group(300), 78, 78),
}


@pytest.mark.parametrize("name", _INVERSE_PAIR_CASES)
def test_class_matrices_count_one_class_of_each_inverse_pair(name, monkeypatch):
    """Each counted class is one Counter pass over G.  V x| A(5, 19) has
    13 real classes and 27 inverse pairs, F(37, 36) 3 and 17, and every
    class of D300 is real."""
    build, counted, classes = _INVERSE_PAIR_CASES[name]
    g = build()
    cc = engine.conjugacy_classes(g)
    calls = []

    def counting(*args):
        calls.append(None)
        return Counter(*args)

    monkeypatch.setattr(engine, "Counter", counting)
    assert len(engine._class_matrices(g, cc)) == classes
    assert len(calls) == counted


def test_class_matrices_walk_54_prefixes_on_vxa(monkeypatch):
    """The 40 words the engine walks on V x| A(5, 19) have 204 letters
    against the 387 of all 67, and 54 distinct proper prefixes against 77.
    Three of the 54 are single letters, whose maps are the generator
    tables themselves; each of the other 51 costs one composition, an
    itemgetter applied to a generator table."""
    g = engine.group_from_permutations(_vxa_generators())
    cc = engine.conjugacy_classes(g)
    words = [g._words[r] for r in cc.reps]
    star = cc.inverse_class
    walked = [
        w for k, w in enumerate(words)
        if (len(w), k) <= (len(words[star[k]]), star[k])
    ]
    prefixes = {w[:n] for w in walked for n in range(1, len(w))}
    assert (len(walked), sum(map(len, walked))) == (40, 204)
    assert sum(map(len, words)) == 387
    assert len(prefixes) == 54
    assert sum(len(w) == 1 for w in prefixes) == 3
    tables = {id(t) for t in g._right}
    composed = []

    def recording(*items):
        get = operator.itemgetter(*items)

        def apply(x):
            if id(x) in tables:
                composed.append(None)
            return get(x)
        return apply

    monkeypatch.setattr(engine, "itemgetter", recording)
    engine._class_matrices(g, cc)
    assert len(composed) == 54 - 3


_MIRROR_MUTATION_GROUPS = {
    "F(17, 4)": lambda: constructions.build_frobenius(17, 4)[0],
    "C80": lambda: engine.cyclic_group(80),
    "V x| A(5, 19)": lambda: engine.group_from_permutations(_vxa_generators()),
}


@pytest.mark.parametrize("name", _MIRROR_MUTATION_GROUPS)
def test_corrupted_triple_of_a_non_real_class_is_refused(name, monkeypatch):
    """One triple (j, k, a) with k not real, counted or listed by the
    identity a_{i*j*k*} = a_ijk, is corrupted in three ways: a + 1, the
    triple dropped, and k moved to the next class.  Every run refuses
    rather than return degrees."""
    g = _MIRROR_MUTATION_GROUPS[name]()
    cc = engine.conjugacy_classes(g)
    mats = engine._class_matrices(g, cc)
    c = len(mats)
    spots = [
        (i, n) for i, triples in enumerate(mats)
        for n, (j, k, a) in enumerate(triples) if cc.inverse_class[k] != k
    ]
    corruptions = (
        lambda j, k, a: [(j, k, a + 1)],
        lambda j, k, a: [],
        lambda j, k, a: [(j, (k + 1) % c, a)],
    )
    for corrupt in corruptions:
        for seed in range(5):
            i, n = random.Random(seed).choice(spots)
            bad = [list(triples) for triples in mats]
            bad[i][n:n + 1] = corrupt(*bad[i][n])
            monkeypatch.setattr(engine, "_class_matrices", lambda g, cc: bad)
            with pytest.raises((ConsistencyError, EngineSplitError)):
                engine.irreducible_degrees(g, seed=seed)


def test_table_groups_get_small_generating_sets():
    for g in (engine.dihedral_group(8), engine.symmetric_group(4),
              engine.alternating_group(5), engine.cyclic_group(30)):
        h = engine.group_from_table(_table(g))
        assert engine.subgroup_closure(h, h.generators) == set(range(h.order))
        assert 1 <= len(h.generators) <= math.log2(h.order)
        # classes do not depend on the generating set
        assert engine.conjugacy_classes(h) == engine.conjugacy_classes(g)


@pytest.mark.parametrize("x, z", [(150, 150), (299, 298)])
def test_table_validation_refuses_a_swapped_intercalate(x, z):
    """Swap one 2x2 Latin subsquare of the D300 table: rows x and x u,
    columns z and u z, with u an involution.  The table stays a Latin square
    with the same identity and inverses, but only a few thousand of its 27
    million triples fail associativity, so a sample of triples is likely to
    miss them.  Accepted, the table makes the degree engine fail at
    (150, 150) and return D300's own degrees at (299, 298)."""
    g = engine.dihedral_group(300)
    table = _table(g)
    e, mul = g.identity, g.mul
    u = next(i for i in range(g.order) if i != e and mul(i, i) == e)
    xu, uz = mul(x, u), mul(u, z)
    # identity rows, columns and inverses stay where they were
    assert e not in (x, xu, z, uz, mul(x, z), mul(xu, z))
    table[x][z], table[x][uz] = table[x][uz], table[x][z]
    table[xu][z], table[xu][uz] = table[xu][uz], table[xu][z]
    with pytest.raises(ConsistencyError, match="associativity fails"):
        engine.group_from_table(table)


def test_table_validation_needs_a_generating_set():
    # the walk proves every row a word in the generator rows only if it
    # reaches every element, so the generators must generate
    h = engine.group_from_table(_table(engine.dihedral_group(8)))
    h.generators = [h.generators[0]]
    with pytest.raises(ConsistencyError, match="do not generate"):
        h.validate()


def _reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and first column are
    0, 1, ..., n-1 in order.  Rows are chosen one at a time among the
    permutations, with a bit per (column, value) already used; the last
    row is then forced, each column taking the value it lacks."""
    first = tuple(range(n))
    if n == 1:
        return [[first]]
    candidates = {}
    for row in itertools.permutations(range(n)):
        mask = sum(1 << (c * n + v) for c, v in enumerate(row))
        candidates.setdefault(row[0], []).append((row, mask))
    squares = []

    def extend(rows, used):
        if len(rows) == n - 1:
            total = n * (n - 1) // 2
            squares.append(rows + [tuple(
                total - sum(r[c] for r in rows) for c in range(n))])
            return
        for row, mask in candidates[len(rows)]:
            if not mask & used:
                extend(rows + [row], used | mask)

    extend([first], sum(1 << (c * n + c) for c in range(n)))
    return squares


def test_table_validation_accepts_exactly_the_associative_latin_squares():
    """Every reduced Latin square of order n <= 6 (1, 1, 1, 4, 56 and 9408
    of them) has the identity 0.  group_from_table must accept exactly
    those whose law passes all n^3 triples: 1, 1, 1, 4, 6 and 80, the
    groups among them.  Order 6 holds loops that fail only in the row
    check of the walk, and loops that fail only in the column checks."""
    counts = []
    for n in range(1, 7):
        squares = _reduced_latin_squares(n)
        accepted = 0
        for t in squares:
            associative = all(
                t[t[a][b]][c] == t[a][t[b][c]]
                for a in range(n) for b in range(n) for c in range(n)
            )
            try:
                engine.group_from_table(t)
            except (ConsistencyError, ValueError):
                assert not associative, t
            else:
                assert associative, t
                accepted += 1
        counts.append((len(squares), accepted))
    assert counts == [(1, 1), (1, 1), (1, 1), (4, 4), (56, 6), (9408, 80)]


def test_table_validation_makes_one_composition_per_element(monkeypatch):
    """On the F(37, 36) table (n = 1332, generators S = {1, 2}) validate()
    applies n - 1 row compositions along the walk and 2 |S|^2 column
    checks, every one an itemgetter of n items: 1339 in all, against the
    |S| n = 2664 of one composition per element and generator."""
    g = constructions.build_frobenius(37, 36)[0]
    # row x is x j for every j, read off the right-regular columns
    columns = [g.right_regular(j) for j in range(g.order)]
    h = engine.group_from_table(list(zip(*columns)))
    n, s = h.order, len(h.generators)
    assert (n, h.generators) == (1332, [1, 2])
    widths = []

    def recording(*items):
        get = operator.itemgetter(*items)

        def apply(x):
            widths.append(len(items))
            return get(x)
        return apply

    monkeypatch.setattr(engine, "itemgetter", recording)
    h.validate()
    wide = [w for w in widths if w == n]
    assert len(wide) == n - 1 + 2 * s * s == 1339
    # the rest are the reads of the s columns, one entry per row
    assert len(widths) - len(wide) == s * n


def test_closure_validation_checks_the_generator_tables():
    # x * 2 = x leaves 2 to be reached as 1 * 1, so the law the words build
    # is Z/3, but the callback's own product 0 * 2 = 0 contradicts it
    g = engine.group_from_elements(
        [1, 2], lambda x, h: (x + 1) % 3 if h == 1 else x, 0
    )
    assert g.order == 3
    with pytest.raises(ConsistencyError, match="disagree with its table"):
        g.validate()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8).flatmap(
    lambda k: st.tuples(st.permutations(range(k)), st.permutations(range(k)))
))
def test_closure_validation_is_exact_on_random_right_tables(perms):
    """Two permutations of at most 8 points serve as the right tables of
    the generators they send 0 to.  validate() must pass exactly when the
    law the closure builds is associative over all triples."""
    first, second = perms
    assume(0 != first[0] != second[0] != 0)
    right = {first[0]: first, second[0]: second}
    g = engine.group_from_elements(list(right), lambda x, h: right[h][x], 0)
    n, mul = g.order, g.mul
    associative = all(
        mul(mul(a, b), c) == mul(a, mul(b, c))
        for a in range(n) for b in range(n) for c in range(n)
    )
    try:
        g.validate()
    except ConsistencyError:
        assert not associative
    else:
        assert associative


def _splitting_prime_of(g, cc):
    exponent = math.lcm(*(g.element_order(r) for r in cc.reps))
    return engine._splitting_prime(g.order, exponent)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda k: st.lists(st.permutations(range(k)), min_size=1, max_size=2)
))
def test_degrees_of_random_permutation_groups(perms):
    """Invariants of the degree multiset on groups of at most 7 points, up
    to S7: sum of squares, one degree per class, the linear characters
    against the derived subgroup, divisibility, and the seed."""
    with mock.patch.object(engine, "DEFAULT_ORDER_LIMIT", 5040):
        g = engine.group_from_permutations([tuple(p) for p in perms])
    degrees = engine.irreducible_degrees(g)
    assert degrees.sum_of_squares() == g.order
    assert len(degrees.degrees) == len(engine.conjugacy_classes(g).reps)
    assert degrees.linear_count() == engine.derived_subgroup_index(g)
    assert all(g.order % d == 0 for d in degrees.degrees)
    assert engine.irreducible_degrees(g, seed=1) == degrees


def _c4_c4_c5():
    return engine.group_from_permutations([
        (1, 2, 3, 0) + tuple(range(4, 13)),
        (0, 1, 2, 3, 5, 6, 7, 4) + tuple(range(8, 13)),
        tuple(range(8)) + (9, 10, 11, 12, 8),
    ])


def test_split_needs_more_than_one_round_when_L_is_small():
    """C4 x C4 x C5 has 80 classes but L = 101 < 80^2, so one random
    combination of the class matrices leaves some of the 80 eigenvalues
    equal, and the split goes on to another round."""
    g = _c4_c4_c5()
    cc = engine.conjugacy_classes(g)
    assert len(cc.reps) == 80 and _splitting_prime_of(g, cc) == 101
    with pytest.raises(EngineSplitError):
        engine.irreducible_degrees(g, max_rounds=1)
    assert engine.irreducible_degrees(g).degrees == (1,) * 80


def test_projections_are_common_eigenvectors_of_every_class_matrix():
    """Each final cluster is beta_chi omega_chi, so every dense class matrix
    M_i maps it to omega_chi(K_i) times itself, with omega_chi(K_i) read
    off as its entry at K_i over its entry at the identity class.  C4 x C4
    has L = 29 < 16^2, and its split takes two rounds."""
    c4_c4 = engine.group_from_permutations(
        [(1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)]
    )
    groups = [
        engine.cyclic_group(12), engine.dihedral_group(10),
        engine.symmetric_group(5), engine.alternating_group(6),
        constructions.build_frobenius(17, 4)[0], c4_c4,
    ]
    for g in groups:
        cc = engine.conjugacy_classes(g)
        c = len(cc.reps)
        L = _splitting_prime_of(g, cc)
        mats = engine._class_matrices(g, cc)
        dense = []
        for triples in mats:
            m = [[0] * c for _ in range(c)]
            for j, k, a in triples:
                m[j][k] = a
            dense.append(m)
        e = cc.class_of[g.identity]
        clusters = engine._identity_projections(
            mats, cc, e, L, random.Random(3), 64
        )
        assert len(clusters) == c
        assert [sum(col) % L for col in zip(*clusters)] == [
            int(k == e) for k in range(c)
        ]
        for v in clusters:
            scale = pow(v[e], -1, L)
            for i, m in enumerate(dense):
                eigenvalue = v[i] * scale % L
                assert lk.mat_vec(m, v, L) == [eigenvalue * x % L for x in v]


def _support(v, weights, L):
    return sum(x * t for x, t in zip(v, weights)) % L


def test_support_count_of_clusters():
    """The trace weights count the central characters a cluster holds: c
    for the identity class, 1 for each final cluster and 2 for the sum of
    two of them."""
    groups = [
        engine.cyclic_group(12), engine.dihedral_group(10),
        engine.symmetric_group(5), engine.alternating_group(6),
        constructions.build_frobenius(17, 4)[0], _c4_c4_c5(),
    ]
    for g in groups:
        cc = engine.conjugacy_classes(g)
        c = len(cc.reps)
        L = _splitting_prime_of(g, cc)
        mats = engine._class_matrices(g, cc)
        e = cc.class_of[g.identity]
        weights = engine._support_weights(mats, cc, L)
        assert _support([int(k == e) for k in range(c)], weights, L) == c
        clusters = engine._identity_projections(
            mats, cc, e, L, random.Random(5), 64
        )
        assert len(clusters) == c
        assert all(_support(v, weights, L) == 1 for v in clusters)
        for u, v in zip(clusters, clusters[1:]):
            both = [(x + y) % L for x, y in zip(u, v)]
            assert _support(both, weights, L) == 2


def test_settled_clusters_are_not_split_again(monkeypatch):
    """C4 x C4 x C5 (L = 101) takes several rounds, and no cluster of
    support 1 is ever handed to the Krylov split."""
    g = _c4_c4_c5()
    cc = engine.conjugacy_classes(g)
    L = _splitting_prime_of(g, cc)
    weights = engine._support_weights(engine._class_matrices(g, cc), cc, L)
    split = engine._krylov_split
    supports = []

    def recording_split(v, combo, L, rng):
        supports.append(_support(v, weights, L))
        return split(v, combo, L, rng)

    monkeypatch.setattr(engine, "_krylov_split", recording_split)
    for seed in range(3):
        assert engine.irreducible_degrees(g, seed=seed).degrees == (1,) * 80
    assert supports and min(supports) >= 2
    assert supports.count(80) == 3  # one split of the identity per run


def test_support_check_refuses_a_false_split(monkeypatch):
    """Pieces that sum to the cluster but are not projections are caught
    by their supports: S5 has 7 classes, and halving the identity vector
    gives two pieces of support (7 + L) / 2 each; a zero piece has
    support 0."""
    def halves(v, combo, L, rng):
        half = [x * pow(2, -1, L) % L for x in v]
        return [half, half]

    def with_zero(v, combo, L, rng):
        return [list(v), [0] * len(v)]

    for fake in (halves, with_zero):
        monkeypatch.setattr(engine, "_krylov_split", fake)
        with pytest.raises(ConsistencyError, match="supports"):
            engine.irreducible_degrees(engine.symmetric_group(5))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda k: st.lists(st.permutations(range(k)), min_size=1, max_size=2)
))
def test_classes_match_sympy(perms):
    """Differential oracle: sympy's combinatorics finds the same number of
    conjugacy classes with the same sizes."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    with mock.patch.object(engine, "DEFAULT_ORDER_LIMIT", 5040):
        g = engine.group_from_permutations([tuple(p) for p in perms])
    cc = engine.conjugacy_classes(g)
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms]
    )
    assert oracle.order() == g.order
    sizes = sorted(len(k) for k in oracle.conjugacy_classes())
    assert sorted(cc.sizes) == sizes
