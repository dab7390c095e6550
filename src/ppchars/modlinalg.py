"""Exact linear algebra and polynomial arithmetic over prime fields.

Everything here works on plain Python ints reduced modulo a prime, with
matrices as sequences of rows, vectors as lists and polynomials as
coefficient lists in increasing degree order.  No floating point anywhere.
Products and transposes are tuples of row tuples, so a matrix is hashable
and can be a group element; the eliminations accept any rows.  Products,
eliminations, the Krylov sequence and modular powers of polynomials run on
packed vectors (`pack`): one int per row, so that a row operation or a
polynomial product is one big-int operation.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache
from itertools import chain
from operator import mul

from .errors import ConsistencyError
from .landau import factorize

Matrix = tuple  # tuple of row tuples; the eliminations also accept lists
Poly = list  # coefficients, low degree first


# ---------------------------------------------------------------------------
# packed vectors
#
# A list of non-negative ints x_0, ..., x_{n-1} is packed as the one int
# sum_i x_i 2^(8 w i): slot i, w bytes wide, holds x_i.  Adding packed
# vectors, or multiplying one by an int, acts slot by slot, and the product
# of two packed polynomials is the packed product polynomial (Kronecker
# substitution), as long as no slot value reaches 2^(8 w): there is no
# carry between slots, so no reduction mod p is needed until the unpack.
# Each caller proves a bound on every slot value it makes and takes w from
# `slot_width`: 4 bytes where the bound fits 32 bits, else 8 bytes where it
# fits 64, else as many as it needs.  The engine's Krylov and elimination
# slots, below (c + 2) L^2 with c <= 80 classes, take 4 bytes at every
# splitting prime L < 7200.  Four- and eight-byte slots go through
# `struct` at C speed, and a big-int product, whose cost grows with the
# product of its operands' sizes, takes about a third of the time on
# 4-byte slots that it takes on 8-byte ones.

def slot_width(bound: int) -> int:
    """Bytes per slot for values below bound: 4 whenever bound <= 2^32,
    else 8 whenever bound <= 2^64."""
    if bound <= 1 << 32:
        return 4
    return max(8, ((bound - 1).bit_length() + 7) // 8)


@lru_cache(maxsize=256)
def _slots(n: int, width: int) -> struct.Struct:
    """The compiled format of n slots of 4 or 8 bytes, reused across calls."""
    return struct.Struct(f"<{n}{'I' if width == 4 else 'Q'}")


def pack(xs, width: int = 8) -> int:
    """The ints xs, each in [0, 2^(8 width)), as slots of one int."""
    if width in (4, 8):
        return int.from_bytes(_slots(len(xs), width).pack(*xs), "little")
    return int.from_bytes(
        b"".join(x.to_bytes(width, "little") for x in xs), "little"
    )


def unpack(x: int, n: int, width: int = 8) -> tuple[int, ...]:
    """The n slots of a packed int.  A value that does not fit n slots,
    or is negative, means a slot bound was wrong: ConsistencyError."""
    try:
        data = x.to_bytes(n * width, "little")
    except OverflowError:
        raise ConsistencyError(
            f"a packed value does not fit {n} slots of {width} bytes"
        ) from None
    if width in (4, 8):
        return _slots(n, width).unpack(data)
    return tuple(int.from_bytes(data[i:i + width], "little")
                 for i in range(0, n * width, width))


# ---------------------------------------------------------------------------
# matrices

def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def pack_matrix(b: Matrix, p: int) -> tuple[list[int], int, int]:
    """The rows of b, with entries in [0, p), packed for `rows_times`,
    with the row length and the slot width.  A product row sums len(b)
    products of residues, so its slots stay below len(b) p^2."""
    width = slot_width(len(b) * p * p)
    return [pack(row, width) for row in b], len(b[0]) if b else 0, width


def rows_times(a, packed_b: tuple[list[int], int, int], p: int) -> Matrix:
    """The product a b over F_p, for rows of a with entries in [0, p) and
    b packed by `pack_matrix`: row i is sum_k a_ik b_k over the packed rows
    b_k, one C-level sum of products, unpacked and reduced once."""
    rows, n, width = packed_b
    return tuple(tuple([x % p for x in unpack(sum(map(mul, row, rows)), n, width)])
                 for row in a)


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    a, b = ([[x % p for x in row] for row in m] for m in (a, b))
    return rows_times(a, pack_matrix(b, p), p)


def mat_hstack(mats) -> Matrix:
    """The matrices with the same number of rows, side by side."""
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*mats))


def mat_hsplit(a: Matrix, width: int) -> list[Matrix]:
    """The blocks of `width` columns of a, left to right."""
    return [tuple(row[j:j + width] for row in a)
            for j in range(0, len(a[0]), width)]


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def row_reduce(a: Matrix, p: int) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form of a over F_p: its nonzero rows, as
    tuples, and their pivot columns.  The rows depend only on the row
    space of a.

    Packed, as in `krylov_minpoly_packed`: each row of a is one int, reduced
    against the echelon rows found before it, so that it ends at zero in
    each of their pivot columns.  A row normalized to 1 at its pivot is
    kept as its complement p - row, and t times the row is subtracted by
    adding t times the complement, so each slot stays non-negative and
    below p + k p^2 after k rows.  Then each row, from the last found to
    the first, is reduced in the same way against the finished rows after
    it, which clears their pivot columns.
    """
    ncol = len(a[0]) if a else 0
    width = slot_width((ncol + 2) * p * p)
    bits, full = 8 * width, pack([p] * ncol, width)
    mask = (1 << bits) - 1

    def reduce(u, rows):
        for pivot, complement in rows:
            t = (u >> bits * pivot & mask) % p
            if t:
                u += t * complement
        return [x % p for x in unpack(u, ncol, width)]

    found, normalized = [], []  # (pivot, complement) and row, as found
    for row in a:
        if len(found) == ncol:
            break
        entries = reduce(pack([x % p for x in row], width), found)
        lead = next(filter(None, entries), 0)
        if lead:
            inv = pow(lead, -1, p)
            entries = [x * inv % p for x in entries]
            found.append((entries.index(1), full - pack(entries, width)))
            normalized.append(entries)
    if len(found) == ncol:  # full rank: the echelon form is I
        return list(mat_identity(ncol)), list(range(ncol))
    finished, rows = [], {}
    for (pivot, complement), entries in zip(found[::-1], normalized[::-1]):
        if any(entries[c] for c, _ in finished):
            entries = reduce(full - complement, finished)
            complement = full - pack(entries, width)
        finished.append((pivot, complement))
        rows[pivot] = tuple(entries)
    pivots = sorted(rows)
    return [rows[c] for c in pivots], pivots


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
    target, read off the echelon form of the columns [basis | targets].
    Raises ConsistencyError if the basis is dependent or a target falls
    outside the span.
    """
    k = len(basis)
    rows, pivots = row_reduce(list(zip(*basis, *targets)), p)
    if pivots[:k] != list(range(k)):
        raise ConsistencyError("dependent basis in solve_in_span")
    if len(pivots) > k:
        raise ConsistencyError("target outside span in solve_in_span")
    return [[row[k + j] for row in rows] for j in range(len(targets))]


def krylov_columns(a: Matrix, p: int) -> list[int]:
    """The columns of the square matrix a, reduced mod p and packed at the
    slot width of `krylov_minpoly_packed`, so that one matrix is packed
    once for the Krylov sequences of many vectors."""
    width = slot_width((len(a) + 2) * p * p)
    if not all(0 <= min(row) and max(row) < p for row in a):
        a = [[x % p for x in row] for row in a]
    return [pack(column, width) for column in zip(*a)]


def krylov_minpoly_packed(
    columns: list[int], v: list, p: int
) -> tuple[Poly, list[list]]:
    """Minimal polynomial mu of v over F_p under the matrix a whose
    columns `krylov_columns` packed, and the powers v, a v, ..., a^r v
    with r = deg mu.

    Each new power is reduced against the echelon rows of the earlier
    ones, whose expressions as polynomials in a applied to v are carried
    along; the first power that reduces to zero gives mu.

    Packed, for vectors of length c: a power is a u = sum_j u_j col_j over
    the packed columns of a, c multiply-adds with slots below c p^2.  The
    vector under elimination is one packed int, its c coordinates followed
    by its polynomial's coefficients.  A row normalized to 1 at its pivot
    is stored as its complement p - row, and t times the row is subtracted
    by adding t times the complement, so every slot stays non-negative and
    congruent to the true entry: after k <= c rows a slot is below
    p + k p^2 < (c + 2) p^2.  The pivot entry is read by shift and mask,
    and the slots are reduced mod p once per power.  That is O(r c) big-int
    operations on 2 c + 1 slots, and O(r c) Python steps in all.
    """
    c = len(v)
    width = slot_width((c + 2) * p * p)
    bits = 8 * width
    mask = (1 << bits) - 1
    powers = [[x % p for x in v]]
    rows = []  # (shift to the pivot slot, complement of the normalized row)
    while True:
        k = len(powers) - 1
        u = pack(powers[-1], width) | 1 << bits * (c + k)  # v_k and x^k
        for shift, complement in rows:
            t = (u >> shift & mask) % p
            if t:
                u += t * complement
        entries = [x % p for x in unpack(u, c + k + 1, width)]
        pivot = next((i for i in range(c) if entries[i]), None)
        if pivot is None:
            return entries[c:], powers
        inv = pow(entries[pivot], -1, p)
        rows.append((bits * pivot,
                     pack([p - x * inv % p for x in entries], width)))
        image = 0
        for x, column in zip(powers[-1], columns):
            if x:
                image += x * column
        powers.append([x % p for x in unpack(image, c, width)])


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


# Below this modulus degree poly_powmod multiplies and reduces schoolbook,
# which skips the zero coefficients of sparse moduli; from it on it runs
# packed.  Measured with Python 3.11 on a shared 2-vCPU Xeon host, raising
# x + a to (p - 1) / 2 modulo 30 random dense moduli, p = 4561 and 45233,
# schoolbook over packed time: 0.84 at degree 2, 1.0 at 3, 1.2-1.35 at 4,
# 2.0 at 8 and 6.5-8.5 at 32.  Two callers remain.  The field build of
# `constructions` tests sparse candidates for irreducibility:
# `solvable --p 37 --r 2897` makes 2920 Rabin tests on degree-6 ones,
# 3.4-3.6 s with this bound at 8, 5.1 s at 6 and 5.3-5.8 s at 4.  The
# Cantor-Zassenhaus route of `distinct_roots` runs only where
# p > ROOT_SWEEP_FACTOR * deg f, so on moduli of small degree in a large
# field, where both kernels take well under a millisecond a power.
POWMOD_PACKED_DEGREE = 8


def poly_powmod(base: Poly, e: int, mod: Poly, p: int) -> Poly:
    result = [1]
    base = poly_mod(base, mod, p)
    f = poly_trim([x % p for x in mod])
    if poly_deg(f) >= POWMOD_PACKED_DEGREE:
        return _powmod_packed(base, e, f, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _powmod_packed(base: Poly, e: int, f: Poly, p: int) -> Poly:
    """base^e mod f over F_p on packed polynomials, for a reduced base and
    a reduced, trimmed f of degree n >= 2.  f is made monic first, which
    keeps every remainder.

    A product c = a b of reduced a, b has degree <= 2 n - 2, and Barrett's
    reduction gives its quotient by f without a division: with
    g = x^(2n-2) div f, precomputed once, q = ((c div x^n) g) div x^(n-2)
    exactly (reverse the coefficients: rev q = rev c / rev f mod x^(n-1)).
    Then c mod f = (c - q f) mod x^n.  So a step is three products: a b,
    its top half times g, and q times the complement p - f mod x^n, which
    subtracts q f with non-negative slots.  Each factor has at most n slots
    below p + 1, so every slot is below n p^2; the slots are reduced mod p
    after each product.  The long division that makes g adds n - 1
    multiples of the complement below p^2 each, within the same bound.
    """
    n = poly_deg(f)
    lead_inv = pow(f[-1], -1, p)
    f = [x * lead_inv % p for x in f]
    width = slot_width(n * p * p)
    bits = 8 * width
    mask = (1 << bits) - 1
    low = (1 << bits * n) - 1  # mod x^n
    complement = pack([p - x for x in f], width)
    # g by long division, each step adding t x^(d-n) times the complement
    rest, quotient = 1 << bits * (2 * n - 2), []
    for d in range(2 * n - 2, n - 1, -1):
        t = (rest >> bits * d & mask) % p
        quotient.append(t)
        if t:
            rest += t * complement << bits * (d - n)
    g = pack(quotient[::-1], width)
    complement &= low

    def reduced(x: int, slots: int) -> int:
        return pack([y % p for y in unpack(x, slots, width)], width)

    def mulmod(a: int, b: int) -> int:
        c = reduced(a * b, 2 * n - 1)
        q = reduced((c >> bits * n) * g >> bits * (n - 2), n - 1)
        return reduced((c & low) + (q * complement & low), n)

    result, base_packed = 1, pack(base, width)
    while e:
        if e & 1:
            result = mulmod(result, base_packed)
        e >>= 1
        if e:
            base_packed = mulmod(base_packed, base_packed)
    return poly_trim(list(unpack(result, n, width)))


def poly_sub(f: Poly, g: Poly, p: int) -> Poly:
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return poly_trim([(a - b) % p for a, b in zip(f, g)])


# distinct_roots sweeps every unit of F_p when p <= ROOT_SWEEP_FACTOR *
# deg f, and splits f by Cantor-Zassenhaus otherwise.  A sweep is about
# p / SWEEP_BLOCK big-int products and O(p) cheap Python steps, whatever
# deg f; the splitting is about deg f modular powers of O(deg f) big-int
# steps each, times log p.  Measured with Python 3.11 on a shared 2-vCPU
# Xeon host, on products of deg f distinct linear factors, medians of 11
# runs in ms (the whole grid is in BENCH_root_sweep.json):
#
#     p      deg f   sweep   splitting   p / deg f
#     4561      4     0.82     0.60        1140
#     4561      8     0.85     0.99         570
#     6841      8     1.24     1.56         855
#     27581    16     6.65     3.29        1724
#     27581    28     7.97     9.25         985
#     45233    32    14.1      6.95        1414
#     45233    48    16.6     10.7          942
#     45233    67    18.7     18.1          675
#
# So the routes cross near p / deg f = 1000 up to p = 27581, and near 650
# at p = 45233; at 1024 the chosen route is within 1.6x of the faster one
# on the whole grid.  Cantor-Zassenhaus stays: it is the only route at
# p = 2^61 - 1, and at small degree in a large field it is far faster
# (0.29 against 9.0 ms at p = 45233, deg f = 2).
ROOT_SWEEP_FACTOR = 1024
# units per product of a sweep, which bounds the ints it holds at once
SWEEP_BLOCK = 512


def distinct_roots(f: Poly, p: int, rng: random.Random) -> list[int]:
    """The sorted distinct roots of f in F_p, for a prime p.  A repeated
    root comes back once, a factor with no root adds none, and a constant
    has none.  The route is chosen by p and deg f alone (see
    `ROOT_SWEEP_FACTOR`); only the Cantor-Zassenhaus route, which needs
    p odd, draws from rng.

    The sweep, for p <= ROOT_SWEEP_FACTOR * deg f, evaluates f of degree
    d at every unit g^k, k = 0 .. p - 2, for the least primitive root g,
    by Bluestein's chirp transform on packed polynomials.  With
    T(m) = m (m - 1) / 2, j k = T(j + k) - T(j) - T(k), so

        f(g^k) = sum_j f_j g^(j k) = g^(-T(k)) sum_j a_j b_(j+k)

    with a_j = f_j g^(-T(j)) and b_m = g^T(m), and no square root of g is
    needed.  The sums for k = s .. s + n - 1 are the slots
    d .. d + n - 1 of one product: a reversed (d + 1 slots) times
    b_s .. b_(s+n+d-1).  Each slot sums at most d + 1 products of
    residues, so it stays below (d + 1) p^2, and `unpack` raises if that
    bound is wrong.  g^(-T(k)) is a unit, so g^k is a root iff its slot is
    0 mod p, and 0 is a root iff f_0 = 0.  The units go by in blocks of
    n = SWEEP_BLOCK, each block keeping the last d values of b for the
    next, so that a sweep holds O(SWEEP_BLOCK + d) ints, not O(p).  b is
    built by two multiplications per step, g^T(m+1) = g^T(m) g^m.

    The splitting takes the gcd of f with x^p - x, the product of the
    distinct linear factors of f, and splits it by Cantor-Zassenhaus.
    """
    f = poly_trim([x % p for x in f])
    if poly_deg(f) == 0:
        return []
    if p <= ROOT_SWEEP_FACTOR * poly_deg(f):
        return _roots_by_sweep(f, p)
    return _roots_by_splitting(f, p, rng)


@lru_cache(maxsize=64)
def _primitive_root(p: int) -> int:
    """The least generator of the units of F_p: g^((p-1)/q) != 1 for each
    prime q dividing p - 1."""
    primes = factorize(p - 1)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in primes))


def _roots_by_sweep(f: Poly, p: int) -> list[int]:
    """The roots of a reduced, trimmed f of degree d >= 1 in F_p, from f
    at every unit by chirp products, a block of units each (see
    `distinct_roots`)."""
    d = poly_deg(f)
    g = _primitive_root(p)
    g_inv = pow(g, -1, p)
    a, step, chirp = [], 1, 1  # g^(-j) and g^(-T(j))
    for fj in f:
        a.append(fj * chirp % p)
        chirp = chirp * step % p
        step = step * g_inv % p
    width = slot_width((d + 1) * p * p)
    reversed_a = pack(a[::-1], width)
    block = max(SWEEP_BLOCK, d)  # so that the d values carried over are few
    roots = [0] if f[0] == 0 else []
    b, step, chirp = [], 1, 1  # step and chirp: g^m and g^T(m), next m
    for start in range(0, p - 1, block):
        n = min(block, p - 1 - start)  # the units g^start .. g^(start+n-1)
        # b_start .. b_(start+n+d-1); the last block left the first d
        for _ in range(n + d - len(b)):
            b.append(chirp)
            chirp = chirp * step % p
            step = step * g % p
        slots = unpack(reversed_a * pack(b, width), n + 2 * d, width)
        residues = [x % p for x in slots[d:d + n]]
        k = -1
        for _ in range(residues.count(0)):
            k = residues.index(0, k + 1)
            roots.append(pow(g, start + k, p))
        del b[:n]
    roots.sort()
    return roots


def _roots_by_splitting(f: Poly, p: int, rng: random.Random) -> list[int]:
    """The roots of a reduced, trimmed f of degree >= 1 in F_p (odd p),
    via gcd with the field polynomial followed by Cantor-Zassenhaus
    equal-degree splitting."""
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
