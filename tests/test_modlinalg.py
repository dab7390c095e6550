import random

import pytest

from ppchars import engine
from ppchars import modlinalg as ml
from ppchars.errors import ConsistencyError
from ppchars.landau import multiplicative_order

import list_kernels as lk

P = 101


def test_mat_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 6)
        a = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        try:
            inv = lk.mat_inv(a, P)
        except ValueError:
            continue
        assert ml.mat_mul(a, inv, P) == ml.mat_identity(n)


def test_mat_mul_matches_triple_loop():
    """Row-by-column products against the entry-by-entry definition, on
    rectangular shapes and primes up to 2^61 - 1; the rows are tuples."""
    rng = random.Random(11)
    for p in (2, 19, 101, 65537, 2**31 - 1, 2**61 - 1):
        for rows, inner, cols in ((1, 1, 1), (2, 2, 2), (3, 5, 2), (4, 4, 4),
                                  (14, 14, 14), (16, 16, 16)):
            a = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
            expected = [[0] * cols for _ in range(rows)]
            for i in range(rows):
                for j in range(cols):
                    for k in range(inner):
                        expected[i][j] += a[i][k] * b[k][j]
                    expected[i][j] %= p
            product = ml.mat_mul(a, b, p)
            assert product == tuple(map(tuple, expected))
            assert all(type(row) is tuple for row in product)


def test_mat_inv_singular():
    with pytest.raises(ValueError):
        lk.mat_inv([[1, 2], [2, 4]], P)


def test_nullspace():
    a = [[1, 2, 3], [2, 4, 6]]
    basis = ml.nullspace(a, P)
    assert len(basis) == 2
    for v in basis:
        assert lk.mat_vec(a, v, P) == [0, 0]


def test_charpoly_known():
    # companion matrix of x^3 - 2x - 5
    a = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert ml.charpoly(a, P) == [(-5) % P, (-2) % P, 0, 1]
    assert ml.charpoly([[7]], P) == [(-7) % P, 1]


def test_charpoly_matches_eigen_brute():
    rng = random.Random(5)
    p = 13
    for _ in range(25):
        n = rng.randrange(1, 5)
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        f = ml.charpoly(a, p)
        assert len(f) == n + 1 and f[-1] == 1
        # roots of charpoly are exactly the eigenvalues (nontrivial kernel)
        for z in range(p):
            value = sum(c * pow(z, i, p) for i, c in enumerate(f)) % p
            shifted = [[(a[i][j] - (z if i == j else 0)) % p for j in range(n)]
                       for i in range(n)]
            assert (value == 0) == bool(ml.nullspace(shifted, p))


def test_distinct_roots_vs_scan():
    rng = random.Random(11)
    p = 31
    for _ in range(30):
        deg = rng.randrange(1, 7)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        expected = sorted(
            z for z in range(p)
            if sum(c * pow(z, i, p) for i, c in enumerate(f)) % p == 0
        )
        assert ml.distinct_roots(f, p, random.Random(0)) == expected


def test_distinct_roots_of_known_factors():
    """f = (x^2 - n) prod (x - z) over a random set of distinct z, with n a
    non-square, so that the quadratic has no root: exactly the z come back,
    a repeated factor gives its root once, and a constant has no roots."""
    rng = random.Random(11)
    for p in (31, 101, 241):
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        quadratic = [(-n) % p, 0, 1]
        for _ in range(10):
            roots = sorted(rng.sample(range(p), rng.randrange(0, 7)))
            f = quadratic
            for z in roots:
                f = ml.poly_mul(f, [(-z) % p, 1], p)
            assert ml.distinct_roots(f, p, rng) == roots
            if roots:
                z = rng.choice(roots)
                squared = ml.poly_mul(f, [(-z) % p, 1], p)
                assert ml.distinct_roots(squared, p, rng) == roots
        for constant in ([0], [1], [p - 1], [5, 0, 0]):
            assert ml.distinct_roots(constant, p, rng) == []


def test_poly_divmod_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        f = [rng.randrange(P) for _ in range(rng.randrange(1, 9))]
        g = [rng.randrange(P) for _ in range(rng.randrange(1, 5))]
        if not any(g):
            continue
        q, r = ml.poly_divmod(f, g, P)
        recombined = ml.poly_trim(
            [(a + b) % P for a, b in
             zip(ml.poly_mul(q, ml.poly_trim(list(g)), P) + [0] * 16,
                 list(r) + [0] * 16)]
        )
        assert recombined == ml.poly_trim([x % P for x in f])


def test_solve_in_span():
    basis = [[1, 0, 2], [0, 1, 3]]
    targets = [[2, 3, 13], [1, 1, 5]]
    coeffs = ml.solve_in_span(basis, targets, P)
    assert coeffs == [[2, 3], [1, 1]]
    with pytest.raises(ConsistencyError):
        ml.solve_in_span(basis, [[0, 0, 1]], P)


def _conjugate_by_random(d, p, rng):
    """s^-1 d s for a random invertible s."""
    n = len(d)
    while True:
        s = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        try:
            s_inv = lk.mat_inv(s, p)
        except ValueError:
            continue
        return ml.mat_mul(ml.mat_mul(s_inv, d, p), s, p)


def _rank(vectors, p):
    if not vectors:
        return 0
    return len(vectors[0]) - len(ml.nullspace(vectors, p))


def test_krylov_split_matches_nullspace():
    """On diagonalizable a over F_7, the split of v must be its projections
    onto the eigenspaces ker(a - z I) that `nullspace` finds, one per
    eigenvalue that v sees; a repeated or missing root must be refused."""
    rng = random.Random(17)
    p = 7
    split = 0
    for _ in range(60):
        n = rng.randrange(1, 8)
        diag = [rng.choice((0, 1, 3, 5)) for _ in range(n)]
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        a = _conjugate_by_random(d, p, rng)
        v = [rng.randrange(p) for _ in range(n)]
        if not any(v):
            continue
        mu, powers = lk.krylov_minpoly(a, v, p)
        r = len(mu) - 1
        assert mu[-1] == 1 and len(powers) == r + 1
        assert _rank(powers[:r], p) == r
        assert [sum(m * x for m, x in zip(mu, col)) % p
                for col in zip(*powers)] == [0] * n
        # v in the basis made of every eigenspace, grouped by eigenvalue
        kernels = {}
        for z in sorted(set(diag)):
            shifted = [[(a[i][j] - (z if i == j else 0)) % p for j in range(n)]
                       for i in range(n)]
            kernels[z] = ml.nullspace(shifted, p)
        basis = [b for z in kernels for b in kernels[z]]
        (coeffs,) = ml.solve_in_span(basis, [v], p)
        expected, at = [], 0
        for z, kernel in kernels.items():
            part = coeffs[at:at + len(kernel)]
            at += len(kernel)
            proj = [sum(c * b[i] for c, b in zip(part, kernel)) % p
                    for i in range(n)]
            if any(proj):
                expected.append(proj)
        pieces = engine._krylov_split(
            v, ml.krylov_columns(a, p), p, random.Random(0))
        assert sorted(pieces) == sorted(expected)
        assert len(pieces) == r
        split += r >= 3
    assert split >= 10
    jordan = [[2, 1], [0, 2]]  # mu = (x - 2)^2
    with pytest.raises(ConsistencyError):
        engine._krylov_split([0, 1], ml.krylov_columns(jordan, p), p,
                              random.Random(0))
    rotation = [[0, 6], [1, 0]]  # mu = x^2 + 1, no root mod 7
    with pytest.raises(ConsistencyError):
        engine._krylov_split([1, 0], ml.krylov_columns(rotation, p), p,
                              random.Random(0))


def test_krylov_split_with_wide_slots():
    """Over F_p with p = 2^61 - 1 the split's slots are wider than 8 bytes:
    the pieces are still eigenvectors, one per eigenvalue, summing to v."""
    rng = random.Random(19)
    p = 2**61 - 1
    diag = [3, 3, 5, p - 1, 0, 12345]
    n = len(diag)
    a = _conjugate_by_random(
        [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], p, rng)
    v = [rng.randrange(p) for _ in range(n)]
    pieces = engine._krylov_split(
        v, ml.krylov_columns(a, p), p, random.Random(0))
    assert len(pieces) == len(set(diag))
    assert [sum(col) % p for col in zip(*pieces)] == v
    for y in pieces:
        ay = lk.mat_vec(a, y, p)
        z = next(ay[i] * pow(y[i], -1, p) % p for i in range(n) if y[i])
        assert ay == [z * x % p for x in y] and z in diag


def test_row_reduce_depends_only_on_row_space():
    p = 7
    rng = random.Random(3)
    for _ in range(60):
        k, n = rng.randrange(1, 4), rng.randrange(1, 6)
        base = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        mixed = []
        for _ in range(k + 2):
            coeffs = [rng.randrange(p) for _ in base]
            mixed.append([sum(c * b[i] for c, b in zip(coeffs, base)) % p
                          for i in range(n)])
        rows, pivots = ml.row_reduce(base, p)
        assert ml.row_reduce(mixed + base[::-1], p) == (rows, pivots)
        assert len(rows) == _rank(base, p)
        for row, col in zip(rows, pivots):
            assert row[col] == 1
            assert [other[col] for other in rows].count(0) == len(rows) - 1


# ---------------------------------------------------------------------------
# packed kernels against plain list references

KERNEL_PRIMES = (2, 3, 241, 4561, 45233, 2**61 - 1)  # the last needs 16-byte slots


def test_pack_roundtrip_and_overflow():
    rng = random.Random(23)
    for width in (4, 8, 9, 16):
        top = 1 << 8 * width
        xs = [rng.randrange(top) for _ in range(rng.randrange(0, 40))] + [top - 1]
        assert list(ml.unpack(ml.pack(xs, width), len(xs), width)) == xs
        with pytest.raises(ConsistencyError):
            ml.unpack(ml.pack(xs, width), len(xs) - 1, width)
        with pytest.raises(ConsistencyError):
            ml.unpack(-1, len(xs), width)
    assert ml.slot_width(2**32) == 4
    assert ml.slot_width(2**32 + 1) == 8
    assert ml.slot_width(2**64) == 8
    assert ml.slot_width(2**64 + 1) == 9


def _powmod_reference(base, e, f, p):
    """Square-and-multiply with schoolbook products and remainders."""
    result = [1]
    base = ml.poly_mod(base, f, p)
    while e:
        if e & 1:
            result = ml.poly_mod(ml.poly_mul(result, base, p), f, p)
        base = ml.poly_mod(ml.poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def test_poly_powmod_matches_schoolbook():
    """The closed form at degree 1 and the packed kernel above it: small
    exponents against repeated multiplication, large ones against
    schoolbook square-and-multiply, on dense, sparse and non-monic moduli
    and unreduced bases."""
    rng = random.Random(29)
    degrees = (1, 2, 3, 5, 7, 8, 9, 16, 33, 90)
    for p in KERNEL_PRIMES:
        for n in degrees:
            dense = [rng.randrange(p) for _ in range(n)] + [1]
            sparse = [rng.randrange(1, p)] + [0] * (n - 1) + [1]
            non_monic = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
            for f in (dense, sparse, non_monic)[:3 if n < 33 else 1]:
                base = [rng.randrange(-p, 2 * p) for _ in range(rng.randrange(1, 2 * n + 2))]
                repeated = [1]
                for e in range(4):
                    assert ml.poly_powmod(base, e, f, p) == repeated
                    repeated = ml.poly_mod(ml.poly_mul(repeated, base, p), f, p)
                for e in (p, rng.randrange(2**16)):
                    assert ml.poly_powmod(base, e, f, p) == _powmod_reference(base, e, f, p)


def _krylov_reference(a, v, p):
    """The list-based elimination: each power reduced against the earlier
    echelon rows, with their polynomials carried along."""
    powers = [[x % p for x in v]]
    rows = []
    while True:
        u = list(powers[-1])
        expr = [0] * (len(powers) - 1) + [1]
        for pivot, row, poly in rows:
            t = u[pivot] % p
            if t:
                u = [(x - t * y) % p for x, y in zip(u, row)]
                expr[:len(poly)] = [(x - t * y) % p for x, y in zip(expr, poly)]
        pivot = next((i for i, x in enumerate(u) if x), None)
        if pivot is None:
            return expr, powers
        inv = pow(u[pivot], -1, p)
        rows.append((pivot, [x * inv % p for x in u], [x * inv % p for x in expr]))
        powers.append([sum(x * y for x, y in zip(r, powers[-1])) % p for r in a])


def test_krylov_minpoly_matches_list_elimination():
    rng = random.Random(31)
    for p in (7, 4561, 2**61 - 1):
        for c in (1, 2, 5, 8, 40, 80):
            k = max(1, c // 3)
            left = [[rng.randrange(p) for _ in range(k)] for _ in range(c)]
            right = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
            diag = [rng.choice((0, 1, 2, 3)) for _ in range(c)]
            mats = [
                [[rng.randrange(p) for _ in range(c)] for _ in range(c)],
                ml.mat_mul(left, right, p),  # rank at most c / 3
                [[diag[i] if i == j else 0 for j in range(c)] for i in range(c)],
                [[rng.randrange(-p, 2 * p) for _ in range(c)] for _ in range(c)],
            ]
            for a in mats:
                v = [rng.randrange(p) for _ in range(c)]
                for vec in (v, [0] * c, [1] + [0] * (c - 1))[:3 if c < 40 else 2]:
                    mu, powers = lk.krylov_minpoly(a, vec, p)
                    assert (mu, powers) == _krylov_reference(a, vec, p)
                    assert mu[-1] == 1


def _assert_eliminations_match(a, p):
    rows, pivots = lk.row_reduce(a, p)
    assert ml.row_reduce(a, p) == ([tuple(row) for row in rows], pivots)
    if a:
        assert ml.nullspace(a, p) == lk.nullspace(a, p)


def _staircase(c, p):
    """Unit rows e_0 .. e_(c-2) and then the all-(p - 1) row: reducing the
    last row adds (p - 1) times a complement slot of p per earlier row, so
    its last slot reaches (p - 1) + (c - 1) (p - 1) p, near the bound
    (c + 2) p^2 of the elimination's slots.  Then the same rows reversed,
    which leaves every later pivot to the back substitution."""
    rows = [[int(i == j) for j in range(c)] for i in range(c - 1)]
    rows.append([p - 1] * c)
    return rows, rows[::-1]


def test_kernels_at_their_slot_bounds():
    """All residues p - 1, so that the slot sums of a mat-vec, a matrix
    product and a polynomial square reach c (p - 1)^2 and n (p - 1)^2: past
    8-byte slots at p = 2^31 - 1, past 16-byte ones at p = 2^61 - 1.  The
    eliminations' slots come near (c + 2) p^2 on staircases, with c = 2 and
    62 putting that bound at exactly 2^64 and 2^128 for the larger primes."""
    c = n = 90
    for p in (4561, 2**31 - 1, 2**61 - 1):
        a = [[p - 1] * c for _ in range(c)]
        for v in ([p - 1] * c, [1] + [0] * (c - 1)):
            assert lk.krylov_minpoly(a, v, p) == _krylov_reference(a, v, p)
        base, f = [p - 1] * n, [p - 1] * n + [1]
        for e in (2, 3, 1000):
            assert ml.poly_powmod(base, e, f, p) == _powmod_reference(base, e, f, p)
        assert ml.mat_mul(a, a, p) == lk.mat_mul(a, a, p)
        _assert_eliminations_match(a, p)
        for size in (2, 62, c):
            for rows in _staircase(size, p):
                _assert_eliminations_match(rows, p)
    assert ml.slot_width(4 * (2**31 - 1) ** 2) == 8
    assert ml.slot_width(64 * (2**61 - 1) ** 2) == 16


@pytest.mark.parametrize("p, width", [(32749, 4), (32771, 8)])
def test_kernels_at_the_four_byte_edge(p, width):
    """The largest prime with 4 p^2 < 2^32 and the least one past it.  All
    residues p - 1, so that a product of 4 by 4 matrices and the square of
    a polynomial of 4 terms reach 4 (p - 1)^2, which is past 2^32 at
    p = 32771: a 4-byte slot there would overflow.  The eliminations and
    the Krylov sequence of 2 by 2 matrices have the bound 4 p^2 as well,
    and run on the c = 2 staircases."""
    assert ml.slot_width(4 * p * p) == width
    a = [[p - 1] * 4 for _ in range(4)]
    assert ml.mat_mul(a, a, p) == lk.mat_mul(a, a, p)
    base, f = [p - 1] * 4, [p - 1] * 4 + [1]
    for e in (2, 3, 1000):
        assert ml.poly_powmod(base, e, f, p) == _powmod_reference(base, e, f, p)
    for rows in _staircase(2, p):
        _assert_eliminations_match(rows, p)
        for v in ([p - 1, p - 1], [1, 0]):
            assert lk.krylov_minpoly(rows, v, p) == _krylov_reference(rows, v, p)
    _assert_eliminations_match(a, p)


@pytest.mark.parametrize("p", [2, 3, 643, 2**31 - 1, 2**61 - 1])
def test_packed_kernels_match_list_references(p):
    """Products and eliminations against the list kernels on random
    matrices of every rank: square, wide and tall, with repeated, zero and
    unreduced rows."""
    rng = random.Random(p)
    for rows, cols in ((1, 1), (2, 2), (3, 5), (5, 3), (4, 4), (10, 10),
                       (16, 16), (7, 20)):
        for rank in range(min(rows, cols) + 1):
            left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
            right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
            a = lk.mat_mul(left, right, p) if rank else [[0] * cols] * rows
            a = [list(row) for row in a]
            _assert_eliminations_match(a, p)
            _assert_eliminations_match(a + a[:1], p)
            unreduced = [[x + p * rng.randrange(-2, 3) for x in row] for row in a]
            _assert_eliminations_match(unreduced, p)
            b = [[rng.randrange(p) for _ in range(rng.randrange(1, 6))]
                 for _ in range(cols)]
            b = [row[:len(b[0])] + [0] * (len(b[0]) - len(row)) for row in b]
            assert ml.mat_mul(a, b, p) == lk.mat_mul(a, b, p)
            assert ml.mat_mul(unreduced, b, p) == lk.mat_mul(a, b, p)
            assert ml.rows_times(a, ml.pack_matrix(b, p), p) == lk.mat_mul(a, b, p)


def test_distinct_roots_of_eighty_linear_factors():
    rng = random.Random(37)
    for p in (241, 45233):
        roots = sorted(rng.sample(range(p), 80))
        f = [1]
        for z in roots:
            f = ml.poly_mul(f, [(-z) % p, 1], p)
        assert ml.distinct_roots(f, p, rng) == roots


def _with_roots(roots, p):
    f = [1]
    for z in roots:
        f = ml.poly_mul(f, [(-z) % p, 1], p)
    return f


@pytest.mark.parametrize("p", [3, 5, 31, 101, 241, 4561, 45233])
def test_root_sweep_and_splitting_agree(p):
    """The chirp sweep and Cantor-Zassenhaus on the same polynomials, with
    degrees on both sides of ROOT_SWEEP_FACTOR: distinct linear factors,
    the same times a quadratic with no root, a squared factor, and a root
    at 0, each scaled by a unit.  Both give the sorted distinct roots, a
    scan of F_p where p is small, and `distinct_roots` gives the same."""
    rng = random.Random(p)
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    quadratic = [(-n) % p, 0, 1]
    threshold = p // ml.ROOT_SWEEP_FACTOR + 1  # least degree that sweeps
    sizes = sorted({1, 2, 3, min(p, 7), min(p, threshold - 1),
                    min(p, threshold), min(p, threshold + 4)} - {0})
    routes = set()
    for size in sizes:
        roots = sorted(rng.sample(range(p), size))
        with_zero = sorted(set(rng.sample(range(1, p), size - 1)) | {0})
        cases = [
            (_with_roots(roots, p), roots),
            (ml.poly_mul(_with_roots(roots, p), quadratic, p), roots),
            (_with_roots(roots + roots[:1], p), roots),
            (_with_roots(with_zero, p), with_zero),
        ]
        for f, expected in cases:
            unit = rng.randrange(1, p)
            f = [x * unit % p for x in f]
            if p <= 241:
                assert expected == [
                    z for z in range(p)
                    if sum(c * pow(z, i, p) for i, c in enumerate(f)) % p == 0
                ]
            assert ml._roots_by_sweep(f, p) == expected
            assert ml._roots_by_splitting(f, p, random.Random(0)) == expected
            assert ml.distinct_roots(f, p, random.Random(1)) == expected
            routes.add(p <= ml.ROOT_SWEEP_FACTOR * ml.poly_deg(f))
    assert routes == ({True} if p <= ml.ROOT_SWEEP_FACTOR else {True, False})
    for constant in ([0], [1], [p - 1], [2 % p, 0, 0], [p, 2 * p]):
        assert ml.distinct_roots(constant, p, rng) == []


def test_equal_degree_factors_split_cyclotomic_polynomials():
    """Phi_n over F_p, for a prime n != p, is squarefree with every
    irreducible factor of degree d = ord_n(p).  Scaled by a unit, it
    splits into (n - 1) / d distinct monic factors of degree d whose
    product is Phi_n.  A constant has no factor; p = 2 and a degree that
    d does not divide are refused."""
    rng = random.Random(32)
    for p, n in ((3, 5), (3, 13), (5, 13), (7, 29), (101, 41), (4561, 37),
                 (2**61 - 1, 5)):
        d = multiplicative_order(p % n, n)
        phi = [rng.randrange(1, p)] * n
        factors = list(ml.equal_degree_factors(phi, d, p, random.Random(0)))
        assert len(set(map(tuple, factors))) == len(factors) == (n - 1) // d
        assert all(ml.poly_deg(f) == d and f[-1] == 1 for f in factors)
        product = [1]
        for f in factors:
            product = ml.poly_mul(product, f, p)
        assert product == [1] * n
    assert list(ml.equal_degree_factors([5], 2, 7, rng)) == []
    with pytest.raises(ValueError, match="odd prime"):
        next(ml.equal_degree_factors([1, 1, 1], 2, 2, rng))
    with pytest.raises(ValueError, match="multiple"):
        next(ml.equal_degree_factors([1, 1, 1, 1], 2, 5, rng))


def test_roots_in_a_wide_field_build_no_table_over_it(monkeypatch):
    """At p = 2^61 - 1 the roots come from splitting: a sweep would build
    slots for every unit, so here it fails at once if it is called, and
    tracemalloc bounds what the call allocates."""
    import tracemalloc

    def no_sweep(f, p):
        raise AssertionError(f"sweep over F_{p}")

    monkeypatch.setattr(ml, "_roots_by_sweep", no_sweep)
    p = 2**61 - 1
    roots = [0, 3, 5, p - 1, 2**40 + 7]
    f = ml.poly_mul(_with_roots(roots, p), [p - 3, 0, 1], p)  # 3 is no square
    assert pow(3, (p - 1) // 2, p) == p - 1
    tracemalloc.start()
    try:
        found = ml.distinct_roots(f, p, random.Random(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == sorted(roots)
    assert peak < 1 << 20
