"""Exact linear algebra and polynomial arithmetic over prime fields.

Everything here works on plain Python ints reduced modulo a prime, with
matrices as sequences of rows, vectors as lists and polynomials as
coefficient lists in increasing degree order.  No floating point anywhere.
The products, inverses and transposes are tuples of row tuples, so a
matrix is hashable and can be a group element; the eliminations accept
any rows and return lists.
"""

from __future__ import annotations

import random
from operator import mul

from .errors import ConsistencyError

Matrix = tuple  # tuple of row tuples; the eliminations also accept lists
Poly = list  # coefficients, low degree first


# ---------------------------------------------------------------------------
# matrices

def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
        for row in a
    )


def mat_vec(a: Matrix, v: list, p: int) -> list:
    return [sum(map(mul, row, v)) % p for row in a]


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_inv(a: Matrix, p: int) -> Matrix:
    """Inverse via Gauss-Jordan; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [list(row) + list(ident) for row, ident in zip(a, mat_identity(n))]
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


def row_reduce(a: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of a over F_p: its nonzero rows and their
    pivot columns.  The rows depend only on the row space of a."""
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


def nullspace(a: Matrix, p: int) -> list[list]:
    """Basis of the right kernel of a (rows x cols) matrix over F_p."""
    ncol = len(a[0])
    rows, pivots = row_reduce(a, p)
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncol
        vec[fc] = 1
        for rr, pc in enumerate(pivots):
            vec[pc] = (-rows[rr][fc]) % p
        basis.append(vec)
    return basis


def solve_in_span(basis: list[list], targets: list[list], p: int) -> list[list]:
    """Coefficients expressing each target vector in the given basis.

    basis: k independent vectors of length n spanning a subspace that must
    contain every target.  Returns one coefficient vector (length k) per
    target.  Raises ConsistencyError if the basis is dependent or a target
    falls outside the span.
    """
    k, n = len(basis), len(basis[0])
    t = len(targets)
    rows = [[basis[j][i] for j in range(k)] + [tg[i] for tg in targets]
            for i in range(n)]
    r = 0
    piv_of_col = []
    for col in range(k):
        piv = next((i for i in range(r, n) if rows[i][col] % p), None)
        if piv is None:
            raise ConsistencyError("dependent basis in solve_in_span")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                tt = rows[i][col]
                rows[i] = [(x - tt * y) % p for x, y in zip(rows[i], rows[r])]
        piv_of_col.append(r)
        r += 1
    for i in range(r, n):
        if any(x % p for x in rows[i][k:]):
            raise ConsistencyError("target outside span in solve_in_span")
    return [[rows[piv_of_col[c]][k + j] for c in range(k)] for j in range(t)]


def krylov_minpoly(a: Matrix, v: list, p: int) -> tuple[Poly, list[list]]:
    """Minimal polynomial mu of v under a over F_p, and the powers
    v, a v, ..., a^r v with r = deg mu.

    Each new power is reduced against the echelon rows of the earlier
    ones, whose expressions as polynomials in a applied to v are carried
    along; the first power that reduces to zero gives mu.  O(r c^2) for the
    products and O(r^2 c) for the reduction, for vectors of length c.
    """
    powers = [[x % p for x in v]]
    rows = []  # (pivot, row normalized to 1 at the pivot, its polynomial)
    while True:
        u = list(powers[-1])
        expr = [0] * (len(powers) - 1) + [1]
        for pivot, row, poly in rows:
            t = u[pivot] % p
            if t:
                # entries stay unreduced until the zero test: the pivots
                # are read mod p, and r terms of size p^2 stay small
                u = [x - t * y for x, y in zip(u, row)]
                expr[:len(poly)] = [x - t * y for x, y in zip(expr, poly)]
        u = [x % p for x in u]
        pivot = next((i for i, x in enumerate(u) if x), None)
        if pivot is None:
            return [x % p for x in expr], powers
        inv = pow(u[pivot], -1, p)
        rows.append((pivot, [x * inv % p for x in u],
                     [x * inv % p for x in expr]))
        powers.append(mat_vec(a, powers[-1], p))


def hessenberg(a: Matrix, p: int) -> list[list]:
    """Upper Hessenberg form h = S a S^-1 over F_p.

    Column by column, a pivot is swapped to the subdiagonal and the entries
    below it are cleared by row operations, each paired with the inverse
    column operation.  A column already clear below the subdiagonal is left
    alone, so a matrix in Hessenberg form comes back unchanged.
    O(n^3) field operations.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            if h[i][j]:
                t = h[i][j] * inv % p
                hj1 = h[j + 1]
                h[i] = [(x - t * y) % p for x, y in zip(h[i], hj1)]
                for row in h:
                    row[j + 1] = (row[j + 1] + t * row[i]) % p
    return h


def charpoly(a: Matrix, p: int) -> Poly:
    """Monic characteristic polynomial of a square matrix over F_p.

    Reduces to upper Hessenberg form by a similarity transform, then runs
    the leading-minor recurrence; O(n^3) field operations, O(n^2) when a
    is already in Hessenberg form.
    """
    n = len(a)
    if n == 0:
        return [1]
    h = hessenberg(a, p)
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        hk = h[k - 1][k - 1]
        cur = [0] + prev
        for idx in range(len(prev)):
            cur[idx] = (cur[idx] - hk * prev[idx]) % p
        prod = 1
        for m in range(k - 2, -1, -1):
            prod = prod * h[m + 1][m] % p
            coef = h[m][k - 1] * prod % p
            if coef:
                pm = polys[m]
                for idx in range(len(pm)):
                    cur[idx] = (cur[idx] - coef * pm[idx]) % p
        polys.append(cur)
    return polys[n]


# ---------------------------------------------------------------------------
# polynomials

def poly_trim(f: Poly) -> Poly:
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def poly_deg(f: Poly) -> int:
    return len(f) - 1


def poly_mul(f: Poly, g: Poly, p: int) -> Poly:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return poly_trim(out)


def poly_divmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    f = [x % p for x in f]
    g = poly_trim([x % p for x in g])
    if not any(g):
        raise ZeroDivisionError("polynomial division by zero")
    dg = poly_deg(g)
    if dg == 0:
        inv = pow(g[0], -1, p)
        return poly_trim([x * inv % p for x in f]), [0]
    inv = pow(g[-1], -1, p)
    df = poly_deg(poly_trim(list(f)))
    if df < dg:
        return [0], poly_trim(f)
    quot = [0] * (df - dg + 1)
    for d in range(df, dg - 1, -1):
        c = f[d] * inv % p
        if c:
            quot[d - dg] = c
            for i, gi in enumerate(g):
                f[d - dg + i] = (f[d - dg + i] - c * gi) % p
    return poly_trim(quot), poly_trim(f[:dg] or [0])


def poly_mod(f: Poly, g: Poly, p: int) -> Poly:
    return poly_divmod(f, g, p)[1]


def poly_gcd(f: Poly, g: Poly, p: int) -> Poly:
    f, g = poly_trim([x % p for x in f]), poly_trim([x % p for x in g])
    while any(g):
        f, g = g, poly_mod(f, g, p)
    if any(f):
        inv = pow(f[-1], -1, p)
        f = [x * inv % p for x in f]
    return f


def poly_powmod(base: Poly, e: int, mod: Poly, p: int) -> Poly:
    result = [1]
    base = poly_mod(base, mod, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def poly_sub(f: Poly, g: Poly, p: int) -> Poly:
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return poly_trim([(a - b) % p for a, b in zip(f, g)])


def distinct_roots(f: Poly, p: int, rng: random.Random) -> list[int]:
    """All roots of f in F_p (odd p), via gcd with the field polynomial
    followed by Cantor-Zassenhaus equal-degree splitting."""
    f = poly_trim([x % p for x in f])
    if poly_deg(f) == 0:
        return []
    xp = poly_powmod([0, 1], p, f, p)
    g = poly_gcd(poly_sub(xp, [0, 1], p), f, p)
    roots = []
    stack = [g]
    while stack:
        h = stack.pop()
        d = poly_deg(h)
        if d == 0:
            continue
        if d == 1:
            roots.append((-h[0]) % p)
            continue
        while True:
            shift = [rng.randrange(p), 1]
            t = poly_powmod(shift, (p - 1) // 2, h, p)
            d1 = poly_gcd(poly_sub(t, [1], p), h, p)
            if 0 < poly_deg(d1) < d:
                break
        d2, rem = poly_divmod(h, d1, p)
        if any(rem):
            raise ConsistencyError("inexact polynomial split")
        stack.append(d1)
        stack.append(d2)
    roots.sort()
    return roots
