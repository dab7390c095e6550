import random

import pytest

from ppchars import engine
from ppchars import modlinalg as ml
from ppchars.errors import ConsistencyError

P = 101


def test_mat_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 6)
        a = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        try:
            inv = ml.mat_inv(a, P)
        except ValueError:
            continue
        assert ml.mat_mul(a, inv, P) == ml.mat_identity(n)


def test_mat_inv_singular():
    with pytest.raises(ValueError):
        ml.mat_inv([[1, 2], [2, 4]], P)


def test_nullspace():
    a = [[1, 2, 3], [2, 4, 6]]
    basis = ml.nullspace(a, P)
    assert len(basis) == 2
    for v in basis:
        assert ml.mat_vec(a, v, P) == [0, 0]


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
            s_inv = ml.mat_inv(s, p)
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
        mu, powers = ml.krylov_minpoly(a, v, p)
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
        pieces = engine._krylov_split(v, a, p, random.Random(0))
        assert sorted(pieces) == sorted(expected)
        assert len(pieces) == r
        split += r >= 3
    assert split >= 10
    jordan = [[2, 1], [0, 2]]  # mu = (x - 2)^2
    with pytest.raises(ConsistencyError):
        engine._krylov_split([0, 1], jordan, p, random.Random(0))
    rotation = [[0, 6], [1, 0]]  # mu = x^2 + 1, no root mod 7
    with pytest.raises(ConsistencyError):
        engine._krylov_split([1, 0], rotation, p, random.Random(0))


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
