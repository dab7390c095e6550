"""Plain list kernels over F_p, kept as references for the packed ones in
`ppchars.modlinalg`, and the fixed-space lattice as it was computed before
the class transport: one nullspace per element of A, and one meet per
representative and fixed space.  None of this shares code with the packed
path, apart from `krylov_minpoly`, the packed Krylov sequence of one
matrix and vector that the tests call."""

from operator import mul

from ppchars.modlinalg import krylov_columns, krylov_minpoly_packed


def mat_mul(a, b, p):
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) % p for col in cols) for row in a
    )


def mat_vec(a, v, p):
    return [sum(map(mul, row, v)) % p for row in a]


def mat_inv(a, p):
    """Inverse via Gauss-Jordan; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                t = aug[r][col]
                aug[r] = [(x - t * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def krylov_minpoly(a, v, p):
    """Minimal polynomial mu of v under a over F_p, and the powers
    v, a v, ..., a^r v with r = deg mu, by the packed kernels: a's columns
    packed once, then `krylov_minpoly_packed`."""
    return krylov_minpoly_packed(krylov_columns(a, p), v, p)


def row_reduce(a, p):
    """Reduced row echelon form: nonzero rows (lists) and pivot columns."""
    rows = [[x % p for x in r] for r in a]
    nrow, ncol = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncol):
        if r == nrow:
            break
        piv = next((i for i in range(r, nrow) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrow):
            if i != r and rows[i][col]:
                t = rows[i][col]
                rows[i] = [(x - t * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def nullspace(a, p):
    ncol = len(a[0])
    rows, pivots = row_reduce(a, p)
    basis = []
    for fc in (c for c in range(ncol) if c not in pivots):
        vec = [0] * ncol
        vec[fc] = 1
        for rr, pc in enumerate(pivots):
            vec[pc] = (-rows[rr][fc]) % p
        basis.append(vec)
    return basis


def fixed_space_lattice(group, mats, ell):
    """Every intersection of the fixed spaces ker(M_g - I), up to A: the
    representatives, orbit sizes and pointwise stabilizers, in the order
    the packed lattice must give them."""
    dim = len(mats[0])
    equations = {}  # fixed space -> M_g - I for one g fixing exactly it
    fixers = {}
    for g, mat in enumerate(mats):
        shifted = [[(mat[i][j] - (i == j)) % ell for j in range(dim)]
                   for i in range(dim)]
        key = _span_key(nullspace(shifted, ell), ell)
        equations.setdefault(key, shifted)
        fixers.setdefault(key, []).append(g)

    reps, class_size, known = [], [], set()

    def add_orbit(space):
        orbit = [space]
        known.add(space)
        for w in orbit:
            for g in group.generators:
                image = _span_key([mat_vec(mats[g], v, ell) for v in w], ell)
                if image not in known:
                    known.add(image)
                    orbit.append(image)
        reps.append(space)
        class_size.append(len(orbit))

    add_orbit(_span_key([[int(i == j) for j in range(dim)] for i in range(dim)], ell))
    stabilizers = []
    for rep in reps:
        stab = []
        for key, shifted in equations.items():
            meet = _intersect(rep, shifted, ell)
            if meet == rep:
                stab.extend(fixers[key])
            elif meet not in known:
                add_orbit(meet)
        stabilizers.append(frozenset(stab))
    return reps, class_size, stabilizers


def _span_key(vectors, ell):
    rows, _ = row_reduce(vectors, ell)
    return tuple(tuple(row) for row in rows)


def _intersect(basis, equations, ell):
    """The vectors of span(basis) that the equations send to zero."""
    if not basis:
        return basis
    values = [[sum(e * b for e, b in zip(row, vec)) % ell for vec in basis]
              for row in equations]
    coeffs = nullspace(values, ell)
    return _span_key(
        [[sum(c * vec[i] for c, vec in zip(cs, basis)) % ell
          for i in range(len(basis[0]))] for cs in coeffs],
        ell,
    )
