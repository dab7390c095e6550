"""Extremal group constructions and their p'-degree character counts.

Two families are built here, each with two independent degree computations
(a closed-form Clifford-theory count and the generic degree engine):

* the Frobenius group H = C_p x| C_m for m | p-1, realized by affine maps
  x -> a^j x + b on Z/p with a of multiplicative order exactly m; for a
  Landau prime p and m = sqrt(p-1) this is the group attaining the
  2*sqrt(p-1) bound, with degree multiset {1^m, m^((p-1)/m)};

* the solvable witness G = V x| A, where V is the field with r^m elements
  viewed as an m-dimensional space over F_r, and A <= GammaL_1(r^m) is
  generated by multiplication with an element of order p and the r-power
  Frobenius map.  Requires ord_p(r) = m (see find_construction_prime).

The Clifford count works on the dual space: A acts on linear functionals
by inverse-transpose matrices; each dual orbit representative with inertia
subgroup I contributes the degrees [A:I] * d over the irreducible degrees
d of I.  Because gcd(|A|, |V|) = 1 every invariant functional extends, so
this is exact, and only orbit/stabilizer data is ever touched (no complex
numbers, no character values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import modlinalg as ml
from .engine import (
    DegreeMultiset,
    FiniteGroup,
    group_from_elements,
    group_from_permutations,
    group_from_table,
    irreducible_degrees,
)
from .errors import ConsistencyError, SearchExhaustedError, SizeLimitError
from .landau import is_perfect_square, is_prime, multiplicative_order, primes_up_to
from .report import Report, timer

DUAL_SWEEP_LIMIT = 300_000
FPF_EXHAUSTIVE_LIMIT = 2_000_000

Matrix = tuple  # tuple of row tuples over F_ell


@dataclass(frozen=True)
class FrobeniusParams:
    """p, a divisor m of p-1, and a complement generator a of exact order
    m mod p.  Exact order encodes the self-centralizing kernel."""

    p: int
    m: int
    a: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.m < 1 or (self.p - 1) % self.m != 0:
            raise ValueError(f"{self.m} does not divide {self.p} - 1")
        if multiplicative_order(self.a, self.p) != self.m:
            raise ValueError(f"{self.a} has order != {self.m} mod {self.p}")


def build_frobenius(p: int, m: int) -> tuple[FiniteGroup, FrobeniusParams]:
    """C_p x| C_m as affine maps x -> a^j x + b on Z/p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1 or (p - 1) % m != 0:
        raise ValueError(f"no element of order {m} in (Z/{p})^*")
    a = next(
        c for c in range(1, p) if multiplicative_order(c, p) == m
    )
    params = FrobeniusParams(p, m, a)

    def mul(x, y):
        return ((x[0] * y[0]) % p, (x[0] * y[1] + x[1]) % p)

    def inv(x):
        s = pow(x[0], -1, p)
        return (s, (-s * x[1]) % p)

    group = group_from_elements(
        [(a % p, 0), (1, 1)], mul, (1, 0), inv=inv, name=f"F({p},{m})"
    )
    if group.order != p * m:
        raise ConsistencyError(f"Frobenius closure has order {group.order}")
    return group, params


def frobenius_degree_multiset(params: FrobeniusParams) -> DegreeMultiset:
    """Clifford closed form for cyclic kernel and fixed-point-free cyclic
    complement: m linear characters and (p-1)/m characters of degree m."""
    degrees = [1] * params.m + [params.m] * ((params.p - 1) // params.m)
    return DegreeMultiset(tuple(sorted(degrees)))


def extremal_count(p: int) -> int:
    """|Irr_p'(H)| for H = C_p x| C_sqrt(p-1); equals 2*sqrt(p-1)."""
    if not is_prime(p) or not is_perfect_square(p - 1):
        raise ValueError(f"{p} is not a prime with square p - 1")
    if p < 5:
        raise ValueError("degenerate Landau prime p = 2 is rejected here")
    m = math.isqrt(p - 1)
    degrees = frobenius_degree_multiset(FrobeniusParams(p, m, _order_m_element(p, m)))
    count = degrees.pprime_count(p)
    if count != 2 * m:
        raise ConsistencyError(f"extremal count {count} != {2 * m}")
    return count


def _order_m_element(p: int, m: int) -> int:
    return next(c for c in range(1, p) if multiplicative_order(c, p) == m)


def find_construction_prime(p: int, search_limit: int = 1_000_000) -> int:
    """Smallest prime r with ord_p(r) = m = sqrt(p-1) and r coprime to pm.

    Dirichlet guarantees existence (any prime congruent to a fixed element
    of order m works); the limit is pragmatic.  The coprimality condition
    keeps gcd(|A|, char V) = 1 for the Clifford count downstream.
    """
    if not is_prime(p) or not is_perfect_square(p - 1) or p < 5:
        raise ValueError(f"{p} is not a Landau prime >= 5")
    m = math.isqrt(p - 1)
    for r in primes_up_to(search_limit):
        if r == p or m % r == 0:
            continue
        if multiplicative_order(r, p) == m:
            return r
    raise SearchExhaustedError(
        f"no prime r <= {search_limit} with ord_{p}(r) = {m}"
    )


# ---------------------------------------------------------------------------
# linear actions

@dataclass(frozen=True)
class LinearGroupAction:
    """A finite group acting by invertible dim x dim matrices over F_ell.

    matrices[i] is the image of group element i; the map need not be
    faithful.  |group| must be coprime to ell.
    """

    ell: int
    dim: int
    group: FiniteGroup
    matrices: tuple[Matrix, ...]

    def validate(self) -> None:
        if math.gcd(self.group.order, self.ell) != 1:
            raise ValueError("group order not coprime to the characteristic")
        n = self.group.order
        pairs = (
            ((i, j) for i in range(n) for j in range(n))
            if n <= 512
            else ((i, j) for i in self.group.generators for j in range(n))
        )
        for i, j in pairs:
            left = self.matrices[self.group.mul(i, j)]
            right = _mat_mul(self.matrices[i], self.matrices[j], self.ell)
            if left != right:
                raise ConsistencyError("matrices do not define a homomorphism")


def _mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p
              for j in range(len(b[0])))
        for i in range(len(a))
    )


def _mat_vec(a: Matrix, v: tuple, p: int) -> tuple:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) % p for row in a)


def _mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_inv(a: Matrix, p: int) -> Matrix:
    return tuple(tuple(row) for row in ml.mat_inv([list(r) for r in a], p))


def frobenius_action(p: int, m: int) -> LinearGroupAction:
    """The complement C_m of H(p, m) acting on V = Z/p by multiplication."""
    a = _order_m_element(p, m)
    gen: Matrix = ((a % p,),)

    def mul(x, y):
        return _mat_mul(x, y, p)

    group = group_from_elements([gen], mul, _mat_identity(1), name=f"C{m} on Z/{p}")
    if group.order != m:
        raise ConsistencyError("complement closure has wrong order")
    action = LinearGroupAction(p, 1, group, tuple(group.elements))
    action.validate()
    return action


@dataclass(frozen=True)
class GammaLConstruction:
    """A = <multiplication by zeta, Frobenius x -> x^r> inside GL_m(F_r),
    acting on V = F_{r^m}; zeta has multiplicative order p."""

    p: int
    m: int
    r: int
    modulus: tuple[int, ...]  # monic irreducible of degree m over F_r
    mult_matrix: Matrix  # multiplication by zeta
    frobenius_matrix: Matrix
    action: LinearGroupAction


def _find_irreducible(r: int, m: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree m over F_r,
    ordering by the base-r encoding of the low coefficient tuple."""
    for code in range(r**m):
        coeffs = []
        c = code
        for _ in range(m):
            c, d = divmod(c, r)
            coeffs.append(d)
        poly = coeffs + [1]
        if _is_irreducible(poly, r, m):
            return poly
    raise ConsistencyError(f"no irreducible of degree {m} over F_{r}")


def _is_irreducible(poly: list[int], r: int, m: int) -> bool:
    x = [0, 1]
    xq = ml.poly_powmod(x, r**m, poly, r)
    if ml.poly_sub(xq, x, r) != [0]:
        return False
    for ell in _prime_factors(m):
        xe = ml.poly_powmod(x, r ** (m // ell), poly, r)
        g = ml.poly_gcd(ml.poly_sub(xe, x, r), poly, r)
        if ml.poly_deg(g) != 0:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _field_mul(a: tuple, b: tuple, modulus: list[int], r: int) -> tuple:
    prod = ml.poly_mod(ml.poly_mul(list(a), list(b), r), modulus, r)
    return tuple(prod + [0] * (len(modulus) - 1 - len(prod)))


def _field_pow(a: tuple, e: int, modulus: list[int], r: int) -> tuple:
    m = len(modulus) - 1
    result = tuple([1] + [0] * (m - 1))
    base = a
    while e:
        if e & 1:
            result = _field_mul(result, base, modulus, r)
        base = _field_mul(base, base, modulus, r)
        e >>= 1
    return result


def build_gamma_l(p: int, r: int) -> GammaLConstruction:
    """Construct V = F_{r^m} with the order-p multiplication subgroup P and
    the Frobenius map, and verify the Frobenius-action invariants:

    * P acts fixed point freely on V \\ {0} (exhaustively when |P| * |V|
      is small, else by checking that zeta^i - 1 is invertible for every
      0 < i < p, which is the same statement);
    * the Frobenius map normalizes P, centralizes none of P \\ {1}, and
      C_A(P) = P.
    """
    if not is_prime(p) or not is_perfect_square(p - 1) or p < 5:
        raise ValueError(f"{p} is not a Landau prime >= 5")
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")
    m = math.isqrt(p - 1)
    if multiplicative_order(r, p) != m:
        raise ValueError(
            f"ord_{p}({r}) = {multiplicative_order(r, p)} != {m}; "
            "construction needs ord_p(r) = sqrt(p-1)"
        )
    if math.gcd(r, p * m) != 1:
        raise ValueError("r must be coprime to p*m for the coprime action")
    q = r**m
    if (q - 1) % p:
        raise ConsistencyError("p does not divide r^m - 1")
    modulus = _find_irreducible(r, m)

    one = tuple([1] + [0] * (m - 1))
    zeta = None
    for code in range(1, q):
        digits = []
        c = code
        for _ in range(m):
            c, d = divmod(c, r)
            digits.append(d)
        candidate = _field_pow(tuple(digits), (q - 1) // p, modulus, r)
        if candidate != one:
            zeta = candidate
            break
    if zeta is None or _field_pow(zeta, p, modulus, r) != one:
        raise ConsistencyError("failed to locate an element of order p")

    basis = [tuple(1 if i == j else 0 for i in range(m)) for j in range(m)]
    mult_matrix = _columns_to_matrix(
        [_field_mul(zeta, b, modulus, r) for b in basis]
    )
    frob_matrix = _columns_to_matrix(
        [_field_pow(b, r, modulus, r) for b in basis]
    )

    def mul(x, y):
        return _mat_mul(x, y, r)

    group = group_from_elements(
        [mult_matrix, frob_matrix], mul, _mat_identity(m),
        name=f"GammaL1({r}^{m}) order {p}*{m}",
    )
    if group.order != p * m:
        raise ConsistencyError(
            f"A has order {group.order}, expected {p * m}"
        )
    action = LinearGroupAction(r, m, group, tuple(group.elements))
    action.validate()

    _verify_gamma_l_invariants(p, m, r, mult_matrix, frob_matrix, group)
    return GammaLConstruction(
        p=p, m=m, r=r, modulus=tuple(modulus),
        mult_matrix=mult_matrix, frobenius_matrix=frob_matrix, action=action,
    )


def _columns_to_matrix(cols) -> Matrix:
    m = len(cols)
    return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))


def _verify_gamma_l_invariants(p, m, r, mult_matrix, frob_matrix, group) -> None:
    dim = len(mult_matrix)
    size_v = r**dim
    identity = _mat_identity(dim)

    # P acts fixed point freely on nonzero vectors
    power = identity
    if (p - 1) * size_v <= FPF_EXHAUSTIVE_LIMIT:
        vectors = list(_all_vectors(r, dim))[1:]  # skip zero
        for _ in range(1, p):
            power = _mat_mul(power, mult_matrix, r)
            for v in vectors:
                if _mat_vec(power, v, r) == v:
                    raise ConsistencyError(
                        f"zeta-power fixes nonzero vector {v}"
                    )
    else:
        for _ in range(1, p):
            power = _mat_mul(power, mult_matrix, r)
            shifted = [
                [(power[i][j] - identity[i][j]) % r for j in range(dim)]
                for i in range(dim)
            ]
            if ml.nullspace(shifted, r):
                raise ConsistencyError("zeta-power has nonzero fixed space")

    # Frobenius normalizes P: F M F^-1 = M^r
    frob_inv = _mat_inv(frob_matrix, r)
    conj = _mat_mul(_mat_mul(frob_matrix, mult_matrix, r), frob_inv, r)
    mr = _mat_power(mult_matrix, r % p, r)
    if conj != mr:
        raise ConsistencyError("Frobenius does not conjugate zeta to zeta^r")

    # Frobenius centralizes no nontrivial element of P
    power = identity
    for i in range(1, p):
        power = _mat_mul(power, mult_matrix, r)
        if _mat_mul(frob_matrix, power, r) == _mat_mul(power, frob_matrix, r):
            raise ConsistencyError(f"Frobenius centralizes zeta^{i}")

    # C_A(P) = P: elements commuting with zeta are exactly the p powers
    centralizer = sum(
        1
        for e in group.elements
        if _mat_mul(e, mult_matrix, r) == _mat_mul(mult_matrix, e, r)
    )
    if centralizer != p:
        raise ConsistencyError(f"|C_A(P)| = {centralizer}, expected {p}")


def _mat_power(a: Matrix, e: int, p: int) -> Matrix:
    result = _mat_identity(len(a))
    base = a
    while e:
        if e & 1:
            result = _mat_mul(result, base, p)
        base = _mat_mul(base, base, p)
        e >>= 1
    return result


def _all_vectors(ell: int, dim: int):
    """All vectors of F_ell^dim as tuples, in base-ell code order."""
    for code in range(ell**dim):
        v = []
        c = code
        for _ in range(dim):
            c, d = divmod(c, ell)
            v.append(d)
        yield tuple(v)


def _vector_code(v: tuple, ell: int) -> int:
    code = 0
    for d in reversed(v):
        code = code * ell + d
    return code


# ---------------------------------------------------------------------------
# Clifford count on the dual space

@dataclass(frozen=True)
class CliffordCount:
    pprime_count: int
    degrees: DegreeMultiset
    orbit_rows: tuple[dict, ...]


def clifford_pprime_count(
    action: LinearGroupAction,
    p: int,
    dual_limit: int = DUAL_SWEEP_LIMIT,
    engine_seed: int = 0,
) -> CliffordCount:
    """Degrees of V x| A from dual orbits and inertia subgroups.

    For each orbit of A on Hom(V, F_ell) (vectors paired by dot product
    against a fixed nontrivial additive character) with representative
    lam and inertia subgroup I, the contribution is [A:I] * d for d over
    the irreducible degrees of I.  Returns the count of degrees coprime
    to p together with the full multiset.
    """
    action.validate()
    ell, dim, group = action.ell, action.dim, action.group
    size_v = ell**dim
    if size_v > dual_limit:
        raise SizeLimitError(
            f"dual space of size {size_v} exceeds sweep limit {dual_limit}"
        )
    n = group.order
    dual_mats = [
        tuple(zip(*_mat_inv(mat, ell)))  # inverse transpose
        for mat in action.matrices
    ]
    dual_mats = [tuple(tuple(row) for row in mat) for mat in dual_mats]

    gen_mats = [dual_mats[g] for g in group.generators]
    visited = bytearray(size_v)
    degrees: list[int] = []
    orbit_rows = []
    vectors = list(_all_vectors(ell, dim))
    for code in range(size_v):
        if visited[code]:
            continue
        orbit = [code]
        visited[code] = 1
        for vcode in orbit:
            vec = vectors[vcode]
            for gm in gen_mats:
                w = _vector_code(_mat_vec(gm, vec, ell), ell)
                if not visited[w]:
                    visited[w] = 1
                    orbit.append(w)
        rep = vectors[code]
        inertia_idx = [
            i for i in range(n) if _mat_vec(dual_mats[i], rep, ell) == rep
        ]
        if len(orbit) * len(inertia_idx) != n:
            raise ConsistencyError("orbit-stabilizer identity fails")
        inertia = _subgroup_from_indices(group, inertia_idx)
        inertia_degrees = irreducible_degrees(inertia, seed=engine_seed)
        index = len(orbit)
        added = [index * d for d in inertia_degrees.degrees]
        degrees.extend(added)
        orbit_rows.append(
            {
                "orbit_size": len(orbit),
                "inertia_order": inertia.order,
                "degrees": added,
            }
        )
    degrees.sort()
    multiset = DegreeMultiset(tuple(degrees))
    if multiset.sum_of_squares() != size_v * n:
        raise ConsistencyError(
            "Clifford degrees fail sum-of-squares = |V| * |A|"
        )
    return CliffordCount(
        pprime_count=multiset.pprime_count(p),
        degrees=multiset,
        orbit_rows=tuple(orbit_rows),
    )


def _subgroup_from_indices(group: FiniteGroup, indices: list[int]) -> FiniteGroup:
    """The subgroup on the given (already closed) element indices, as a
    standalone group over a relabeled multiplication table.  Works for any
    backing representation, faithful matrices or not."""
    pos = {g: t for t, g in enumerate(indices)}
    table = []
    for g in indices:
        row = []
        for h in indices:
            prod = group.mul(g, h)
            if prod not in pos:
                raise ConsistencyError("inertia index set is not closed")
            row.append(pos[prod])
        table.append(row)
    return group_from_table(table)


def semidirect_product_permutations(action: LinearGroupAction) -> FiniteGroup:
    """V x| A as permutations of the vectors of V (affine maps v -> w + Mv).

    Requires a faithful action, which is checked via the resulting order.
    """
    ell, dim, group = action.ell, action.dim, action.group
    size_v = ell**dim
    vectors = list(_all_vectors(ell, dim))
    code_of = {v: i for i, v in enumerate(vectors)}
    gens = []
    for k in range(dim):
        basis_vec = tuple(1 if i == k else 0 for i in range(dim))
        gens.append(
            tuple(
                code_of[tuple((v[i] + basis_vec[i]) % ell for i in range(dim))]
                for v in vectors
            )
        )
    for g in group.generators:
        mat = action.matrices[g]
        gens.append(tuple(code_of[_mat_vec(mat, v, ell)] for v in vectors))
    product = group_from_permutations(
        gens, max_order=size_v * group.order, name="V x| A"
    )
    if product.order != size_v * group.order:
        raise ValueError(
            f"permutation closure has order {product.order}; "
            "the action must be faithful for the cross-check"
        )
    return product


def engine_cross_check(
    target, p: int, seed: int = 0, order_limit: int = 5000
) -> Report:
    """Degrees of V x| A two ways: Clifford count vs. the degree engine on
    the explicit permutation group.  Disagreement is a hard failure."""
    action = target.action if isinstance(target, GammaLConstruction) else target
    expected_order = action.ell**action.dim * action.group.order
    if expected_order > order_limit:
        raise SizeLimitError(
            f"|V x| A| = {expected_order} exceeds engine bound {order_limit}"
        )
    with timer() as t:
        clifford = clifford_pprime_count(action, p, engine_seed=seed)
        product = semidirect_product_permutations(action)
        engine_degrees = irreducible_degrees(product, seed=seed)
        if engine_degrees.degrees != clifford.degrees.degrees:
            raise ConsistencyError(
                "engine and Clifford degree multisets disagree: "
                f"{engine_degrees.degrees} vs {clifford.degrees.degrees}"
            )
        rows = [
            {
                "check": "degree multisets equal",
                "order": product.order,
                "classes": len(engine_degrees.degrees),
                "pprime_count": clifford.pprime_count,
                "sum_of_squares": engine_degrees.sum_of_squares(),
                "ok": True,
            }
        ]
    return Report(
        command="engine-cross-check",
        parameters={"p": p, "order": product.order},
        rows=rows,
        counters={"degrees": len(engine_degrees.degrees)},
        seed=seed,
        elapsed_seconds=t.elapsed,
    )
