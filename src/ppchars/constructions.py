"""Extremal group constructions and their p'-degree character counts.

Two families are built here, each with two independent degree computations
(a closed-form Clifford-theory count and the generic degree engine):

* the Frobenius group H = C_p x| C_m for m | p-1, on the pairs (b, j) of
  the affine maps x -> a^j x + b of Z/p with a of multiplicative order
  exactly m; for a Landau prime p and m = sqrt(p-1) this is the group
  attaining the 2*sqrt(p-1) bound, with degree multiset {1^m, m^((p-1)/m)};

* the solvable witness G = V x| A, where V is the field with r^m elements
  viewed as an m-dimensional space over F_r, and A <= GammaL_1(r^m) is
  generated by multiplication with an element of order p and the r-power
  Frobenius map.  Requires ord_p(r) = m (see find_construction_prime).

The Clifford count works on the dual space: A acts on linear functionals
by inverse-transpose matrices; each dual orbit with inertia subgroup I
contributes the degrees [A:I] * d over the irreducible degrees d of I.
Because gcd(|A|, |V|) = 1 every invariant functional extends, so this is
exact.  The orbits are counted by stabilizer type on the lattice of
intersections of fixed spaces, so no functional is ever visited, and only
orbit/stabilizer data is touched (no complex numbers, no character values).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from . import modlinalg as ml
from .engine import (
    DegreeMultiset,
    FiniteGroup,
    _generator_conjugations,
    _greedy_generators,
    check_order,
    group_from_elements,
    group_from_permutations,
    irreducible_degrees,
)
from .errors import ConsistencyError, SearchExhaustedError
from .landau import is_perfect_square, is_prime, multiplicative_order
from .report import Report


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
    """C_p x| C_m with twist a: the pair (b, j) is the affine map
    x -> a^j x + b on Z/p."""
    check_order(p * m)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1 or (p - 1) % m != 0:
        raise ValueError(f"no element of order {m} in (Z/{p})^*")
    params = FrobeniusParams(p, m, _order_m_element(p, m))
    return metacyclic_group(p, m, params.a, name=f"F({p},{m})"), params


def metacyclic_group(p: int, m: int, twist: int, name: str = "") -> FiniteGroup:
    """<z, f | z^p, f^m, f z f^-1 = z^twist> on the pairs (i, j) of its
    normal form z^i f^j, closed from z = (1, 0) and f = (0, 1 mod m).

    f^j z^k = z^(twist^j k) f^j gives the law (i, j)(k, l) =
    (i + twist^j k mod p, j + l mod m).  The closure must reach all pm
    pairs, and `validate` proves the law associative (so twist^m = 1 mod
    p).  The pairs then satisfy the relations, and they are as many as the
    normal forms, pm, so they are the presented group.
    """
    powers = [pow(twist, j, p) for j in range(m)]

    def mul(x, y):
        return (x[0] + powers[x[1]] * y[0]) % p, (x[1] + y[1]) % m

    group = group_from_elements([(1, 0), (0, 1 % m)], mul, (0, 0), name=name)
    if group.order != p * m:
        raise ConsistencyError(f"C_{p} x| C_{m} has order {group.order}")
    group.validate()
    return group


def frobenius_degree_multiset(params: FrobeniusParams) -> DegreeMultiset:
    """Clifford closed form for cyclic kernel and fixed-point-free cyclic
    complement: m linear characters and (p-1)/m characters of degree m."""
    return DegreeMultiset.from_counter(
        Counter({1: params.m}) + Counter({params.m: (params.p - 1) // params.m})
    )


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
    for r in range(2, search_limit + 1):
        if r == p or m % r == 0 or not is_prime(r):
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
    faithful.  |group| must be coprime to ell.  The map is proven a
    homomorphism: by `validate` for a listed action, which
    `clifford_pprime_count` runs, and by `build_gamma_l` for A from its
    presentation, with matrices formed only when read.
    """

    ell: int
    dim: int
    group: FiniteGroup
    matrices: Sequence[ml.Matrix]

    def validate(self) -> None:
        """Check that g -> matrices[g] is a homomorphism, exactly.

        The checks are M(e) = I and M(g j) = M(g) M(j) for every generator g
        and every element j.  They prove M(i j) = M(i) M(j) for all i, j by
        induction on the length of a word for i in the generators, which
        exists because the generators generate the finite group: for i = e
        this is M(j) = I M(j), and for i = g i' the checked identity, the
        induction hypothesis at (i', j) and the checked identity at (g, i')
        give M(g i' j) = M(g) M(i' j) = M(g) M(i') M(j) = M(g i') M(j).
        All M(j) are taken at once: row i of M(g) times the matrices M(j)
        side by side must be row i of the M(g j) side by side.  Entries
        must lie in [0, ell).
        """
        ell, group, mats = self.ell, self.group, self.matrices
        if math.gcd(group.order, ell) != 1:
            raise ValueError("group order not coprime to the characteristic")
        if mats[group.identity] != ml.mat_identity(self.dim):
            raise ConsistencyError("the identity does not act as I")
        wide = ml.mat_hstack(mats)
        if not all(0 <= min(row) and max(row) < ell for row in wide):
            raise ConsistencyError("matrix entries are not reduced mod ell")
        packed = ml.pack_matrix(wide, ell)
        for g in group.generators:
            images = [mats[group.mul(g, j)] for j in range(group.order)]
            for row, image in zip(mats[g], ml.mat_hstack(images)):
                if ml.rows_times((row,), packed, ell) != (image,):
                    raise ConsistencyError("matrices do not define a homomorphism")


@dataclass(frozen=True)
class GammaLConstruction:
    """A = <multiplication by zeta, Frobenius x -> x^r> inside GL_m(F_r),
    acting on V = F_{r^m}; zeta has multiplicative order p."""

    p: int
    m: int
    r: int
    modulus: tuple[int, ...]  # a monic factor of Phi_p of degree m over F_r
    mult_matrix: ml.Matrix  # multiplication by zeta
    frobenius_matrix: ml.Matrix
    action: LinearGroupAction


def _padded(poly: list[int], m: int) -> tuple:
    """A reduced field element as its m coordinates."""
    return tuple(poly + [0] * (m - len(poly)))


def build_gamma_l(p: int, r: int) -> GammaLConstruction:
    """Construct V = F_{r^m} with the order-p multiplication subgroup P and
    the Frobenius map, and verify the Frobenius-action invariants:

    * P acts fixed point freely on V \\ {0}: zeta^i - 1 has zero kernel
      for every 0 < i < p;
    * the Frobenius map normalizes P, centralizes none of P \\ {1}, and
      C_A(P) = P.

    V is F_r[x]/(f) for the first factor f of Phi_p = 1 + x + ... + x^(p-1)
    that `ml.equal_degree_factors` yields, and zeta = x.  As r != p, x^p - 1
    is prime to its derivative p x^(p-1), so Phi_p is squarefree over F_r.
    A root of an irreducible factor of degree k is not 1, as Phi_p(1) = p
    != 0, so it has order p, and the field F_{r^k} it generates is the
    least F_{r^j} with p | r^j - 1: k = ord_p(r) = m.  So every factor has
    degree m, f is irreducible and x has order p modulo f.  The splitter
    draws from a fixed generator, so the field is the same on every run.

    A is `metacyclic_group(p, m, r)`, whose pair (i, j) acts by Z^i F^j,
    formed when read.  Its presentation proves the action faithful, with
    no product or comparison of the pm matrices.  By von Dyck's theorem,
    Z^p = I, F^m = I (`_matrix_powers`) and F Z = Z^r F (checked below)
    make (i, j) -> Z^i F^j a homomorphism.  As r^j != 1 mod p for
    0 < j < m, A is a Frobenius group with kernel <z>: a normal subgroup
    holding z^i f^j with j != 0 holds its commutator with z, a nontrivial
    power of z, so each nontrivial normal subgroup contains <z>.  Z != I,
    so the kernel is trivial and the pm matrices are distinct.
    """
    if not is_prime(p) or not is_perfect_square(p - 1) or p < 5:
        raise ValueError(f"{p} is not a Landau prime >= 5")
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")
    m = math.isqrt(p - 1)
    check_order(p * m)  # |A|, before any field or matrix is built
    # coprimality first: ord_p(r) is undefined at r = p
    if math.gcd(r, p * m) != 1:
        raise ValueError("r must be coprime to p*m for the coprime action")
    order = multiplicative_order(r, p)
    if order != m:
        raise ValueError(
            f"ord_{p}({r}) = {order} != {m}; "
            "construction needs ord_p(r) = sqrt(p-1)"
        )
    if (r**m - 1) % p:
        raise ConsistencyError("p does not divide r^m - 1")
    modulus = next(ml.equal_degree_factors([1] * p, m, r, random.Random(0)))
    zeta = [0, 1]
    if ml.poly_powmod(zeta, p, modulus, r) != [1]:
        raise ConsistencyError("x does not have order p modulo the factor")

    # column j of each matrix is the image of the basis vector x^j
    basis = [[0] * j + [1] for j in range(m)]
    mult_matrix = ml.mat_transpose([
        _padded(ml.poly_mod(ml.poly_mul(zeta, b, r), modulus, r), m)
        for b in basis
    ])
    frob_matrix = ml.mat_transpose(
        [_padded(ml.poly_powmod(b, r, modulus, r), m) for b in basis]
    )

    zeta_powers = _matrix_powers(mult_matrix, p, r)
    frob_powers = _matrix_powers(frob_matrix, m, r)
    _verify_gamma_l_invariants(p, r, zeta_powers, frob_powers)
    group = metacyclic_group(p, m, r, name=f"GammaL1({r}^{m}) order {p}*{m}")
    matrices = _NormalFormMatrices(group.elements, zeta_powers, frob_powers, r)
    return GammaLConstruction(
        p=p, m=m, r=r, modulus=tuple(modulus),
        mult_matrix=mult_matrix, frobenius_matrix=frob_matrix,
        action=LinearGroupAction(r, m, group, matrices),
    )


def _matrix_powers(mat: ml.Matrix, n: int, r: int) -> list[ml.Matrix]:
    """M^0, ..., M^(n-1), after checking that M^n = I."""
    packed = ml.pack_matrix(mat, r)
    powers = [ml.mat_identity(len(mat))]
    for _ in range(n):
        powers.append(ml.rows_times(powers[-1], packed, r))
    if powers.pop() != powers[0]:
        raise ConsistencyError(f"a generator of A does not have order dividing {n}")
    return powers


class _NormalFormMatrices(Sequence):
    """A's matrices, read on demand: the pair (i, j) acts by Z^i F^j, one
    product each time it is read, and no list of them is kept."""

    def __init__(self, pairs, zeta_powers, frob_powers, r: int):
        self._pairs, self._zeta_powers, self._r = pairs, zeta_powers, r
        self._frob_packed = [ml.pack_matrix(f, r) for f in frob_powers]

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, g: int) -> ml.Matrix:
        i, j = self._pairs[g]
        return ml.rows_times(self._zeta_powers[i], self._frob_packed[j], self._r)


def _verify_gamma_l_invariants(p, r, zeta_powers, frob_powers) -> None:
    mult_matrix = zeta_powers[1]
    frob_matrix = frob_powers[1]
    dim = len(mult_matrix)
    frob_packed = ml.pack_matrix(frob_matrix, r)
    # F Z^i for every i from one product: F [Z^0 | Z^1 | ...]
    frob_zeta = ml.mat_hsplit(
        ml.mat_mul(frob_matrix, ml.mat_hstack(zeta_powers), r), dim)

    # one walk over zeta^1 .. zeta^(p-1)
    for i in range(1, p):
        power = zeta_powers[i]
        # P acts fixed point freely on nonzero vectors
        shifted = [[(x - (a == b)) % r for b, x in enumerate(row)]
                   for a, row in enumerate(power)]
        if ml.nullspace(shifted, r):
            raise ConsistencyError("zeta-power has nonzero fixed space")
        # Frobenius centralizes no nontrivial element of P
        zeta_frob = ml.rows_times(power, frob_packed, r)
        if frob_zeta[i] == zeta_frob:
            raise ConsistencyError(f"Frobenius centralizes zeta^{i}")
        # F Z = Z^r F, the relation of the presentation: F normalizes P
        if i == r % p and frob_zeta[1] != zeta_frob:
            raise ConsistencyError("Frobenius does not conjugate zeta to zeta^r")

    # C_A(P) = P: zeta^i F^j commutes with zeta exactly when F^j does, so
    # the centralizer holds p elements per such power F^j
    centralizer = p * sum(
        1
        for f in frob_powers
        if ml.mat_mul(f, mult_matrix, r) == ml.mat_mul(mult_matrix, f, r)
    )
    if centralizer != p:
        raise ConsistencyError(f"|C_A(P)| = {centralizer}, expected {p}")


def _all_vectors(ell: int, dim: int):
    """The vectors of F_ell^dim as tuples, in base-ell code order."""
    for code in range(ell**dim):
        v = []
        c = code
        for _ in range(dim):
            c, d = divmod(c, ell)
            v.append(d)
        yield tuple(v)


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
    engine_seed: int = 0,
) -> CliffordCount:
    """Degrees of V x| A from dual orbits and inertia subgroups.

    A acts on the dual space Hom(V, F_ell) by the inverse-transpose
    matrices D_g (a functional lam is paired with V by dot product against
    a fixed nontrivial additive character).  An orbit of functionals with
    inertia subgroup I contributes the degrees [A:I] * d for d over the
    irreducible degrees of I.

    No functional is visited.  The stabilizer of lam is {g : lam in W_g},
    W_g = ker(D_g - I), so it is the pointwise stabilizer of the smallest
    intersection W of fixed spaces that contains lam.  On the lattice of
    these intersections, the number f(W) of functionals whose smallest one
    is W follows by Moebius inversion (P. Hall 1936):
    f(W) = ell^dim W - sum of f(W') over lattice members W' < W.  A
    permutes the lattice and conjugates the stabilizers, so there are
    (sum of f over the conjugates of H) / [A:H] orbits with inertia
    subgroup conjugate to H.  Such an inertia type adds its degrees times
    its number of orbits to the histogram at once, so the work does not
    grow with the number of orbits or characters.  The lattice takes one
    nullspace per class of A, since W_(t^-1 g t) = D_t^-1 W_g, and reads the
    stabilizers off containments: R lies in W_g when each basis row of R
    does.  A meet R with W_g is formed only where it can be a new member:
    not for R = V (the meet is W_g), R or W_g = 0, or a line R (the meet
    is 0).  See `_fixed_space_lattice`.  Checked exactly: a listed action
    is a homomorphism (`validate`; `build_gamma_l` proved its A from the
    presentation), the f are non-negative and sum to |V|, each orbit count
    is an integer, and the squared degrees sum to |V| * |A|.

    Returns the count of degrees coprime to p, the full multiset, and one
    row per inertia type: its orbit size [A:I], |I|, the number of orbits
    and the degrees [A:I] * d that each of them contributes.
    """
    ell, dim, group = action.ell, action.dim, action.group
    size_v = ell**dim
    n = group.order
    if math.gcd(n, ell) != 1:
        raise ValueError("group order not coprime to the characteristic")
    if not isinstance(action.matrices, _NormalFormMatrices):
        action.validate()
    conjugations = _generator_conjugations(group)
    reps, class_size, rep_stabilizer = _fixed_space_lattice(action, conjugations)
    conjugates = [_conjugates(conjugations, h) for h in rep_stabilizer]
    if [len(c) for c in conjugates] != class_size:
        raise ConsistencyError("space orbits and stabilizer classes differ")

    # smallest spaces first, so every W' < W is counted before W
    order = sorted(range(len(reps)), key=lambda t: len(reps[t]))
    exact = [0] * len(reps)
    for t in order:
        below = sum(
            exact[u] * sum(1 for h in conjugates[u] if h > rep_stabilizer[t])
            for u in range(len(reps))
        )
        exact[t] = ell ** len(reps[t]) - below
        if exact[t] < 0:
            raise ConsistencyError("negative Moebius count of functionals")
    if sum(class_size[t] * exact[t] for t in order) != size_v:
        raise ConsistencyError("functional counts do not sum to |V|")

    histogram = Counter()
    orbit_rows = []
    for t in order:
        inertia = rep_stabilizer[t]
        index = n // len(inertia)
        orbits, rest = divmod(class_size[t] * exact[t], index)
        if rest:
            raise ConsistencyError("orbit-stabilizer identity fails")
        if not orbits:
            continue
        inertia_degrees = irreducible_degrees(
            _subgroup_from_indices(group, sorted(inertia)), seed=engine_seed
        )
        added = DegreeMultiset(
            tuple((index * d, k) for d, k in inertia_degrees.counts)
        )
        for d, k in added.counts:
            histogram[d] += orbits * k
        orbit_rows.append({"orbit_size": index, "inertia_order": len(inertia),
                           "orbits": orbits, "degrees": added})
    multiset = DegreeMultiset.from_counter(histogram)
    if multiset.sum_of_squares() != size_v * n:
        raise ConsistencyError(
            "Clifford degrees fail sum-of-squares = |V| * |A|"
        )
    return CliffordCount(
        pprime_count=multiset.pprime_count(p),
        degrees=multiset,
        orbit_rows=tuple(orbit_rows),
    )


def _fixed_space_lattice(action: LinearGroupAction,
                         conjugations: list[list[int]]):
    """Every intersection of the fixed spaces Fix(g) = ker(D_g - I) of the
    dual matrices D_g = M(g^-1)^T, up to A.

    A space is keyed by the reduced row echelon form of a basis.  Returns
    one representative R per A-orbit of intersections, the orbit sizes,
    and the pointwise stabilizers {g : D_g w = w on R}.

    Transport: Fix(t^-1 g t) = D_t^-1 Fix(g), so one nullspace per class of
    A is carried along the generator conjugations x -> t^-1 x t to the rest
    of the class; a class that fixes only 0 costs nothing more.  The fixed
    spaces of a class form one A-orbit.  So M(g^-1) is read for one g per
    class, and M(t) per generator t: D_t^-1 is w -> w M(t) on rows.

    Meets: the fixed spaces F form an A-invariant set, so x R meets F in
    x (R meets x^-1 F), and meeting the representatives R with each F gives
    every orbit of intersections.  With F in echelon form, w lies in F
    exactly when it equals its shadow sum_c w_c F_c over the pivot columns
    c of F, so the stabilizer of R needs no meet.  A meet is formed only
    where it can be new: not for R = V (it is F), nor for R or F = 0 or a
    line R (it is 0).
    """
    ell, dim, group, mats = action.ell, action.dim, action.group, action.matrices
    carry = [ml.pack_matrix(mats[t], ell) for t in group.generators]
    fixed = [None] * group.order
    images = {}  # (fixed space, t) -> D_t^-1 (fixed space)
    orbit_of = {}  # fixed space -> its A-orbit
    for start in range(group.order):
        if fixed[start] is not None:
            continue
        dual = ml.mat_transpose(mats[group.inverse[start]])
        shifted = [[(x - (i == j)) % ell for j, x in enumerate(row)]
                   for i, row in enumerate(dual)]
        fixed[start] = _span_key(ml.nullspace(shifted, ell), ell)
        members = [start]
        for x in members:
            for t, conj in enumerate(conjugations):
                y = conj[x]
                if fixed[y] is None:
                    if (fixed[x], t) not in images:
                        images[fixed[x], t] = fixed[x] and _span_key(
                            ml.rows_times(fixed[x], carry[t], ell), ell)
                    fixed[y] = images[fixed[x], t]
                    members.append(y)
        orbit = {fixed[x] for x in members}
        orbit_of.update(dict.fromkeys(orbit, orbit))
    fixers: dict[tuple, list[int]] = {}
    for g, space in enumerate(fixed):
        fixers.setdefault(space, []).append(g)
    spaces = [(space, [row.index(1) for row in space],
               ml.pack_matrix(space, ell)) for space in fixers]

    reps: list[tuple] = []
    class_size: list[int] = []
    known: set[tuple] = set()

    def add_orbit(space):
        orbit = orbit_of.get(space)
        if orbit is None:  # not a fixed space: close it under the generators
            orbit, todo = {space}, [space]
            for w in todo:
                for packed in carry:
                    image = _span_key(ml.rows_times(w, packed, ell), ell)
                    if image not in orbit:
                        orbit.add(image)
                        todo.append(image)
        known.update(orbit)
        reps.append(space)
        class_size.append(len(orbit))

    add_orbit(_span_key(ml.mat_identity(dim), ell))
    stabilizers = []
    for rep in reps:
        stab = []
        for space, pivots, packed in spaces:
            shadow = ml.rows_times([[w[c] for c in pivots] for w in rep],
                                   packed, ell)
            if shadow == rep:
                stab.extend(fixers[space])
                continue
            if len(rep) == dim:
                meet = space
            elif len(rep) == 1 or not space:
                meet = ()
            else:
                meet = _meet(rep, shadow, ell)
            if meet not in known:
                add_orbit(meet)
        stabilizers.append(frozenset(stab))
    return reps, class_size, stabilizers


def _span_key(vectors, ell: int) -> tuple:
    rows, _ = ml.row_reduce(vectors, ell)
    return tuple(rows)


def _meet(rows: tuple, shadows: tuple, ell: int) -> tuple:
    """span(rows) meet F, keyed, from the rows' shadows in F: w -> w - shadow
    is linear with kernel F, so sum a_i w_i lies in F when
    sum a_i (w_i - shadow_i) = 0."""
    residues = [[(x - y) % ell for x, y in zip(w, shadow)]
                for w, shadow in zip(rows, shadows)]
    coeffs = ml.nullspace(ml.mat_transpose(residues), ell)
    if not coeffs:
        return ()
    return _span_key(ml.rows_times(coeffs, ml.pack_matrix(rows, ell), ell), ell)


def _conjugates(conjugations: list[list[int]],
                subgroup: frozenset) -> list[frozenset]:
    """The A-conjugacy class of a subgroup given by element indices,
    closed under the generator conjugations x -> g^-1 x g."""
    found = [subgroup]
    seen = {subgroup}
    for h in found:
        for conj in conjugations:
            image = frozenset(conj[x] for x in h)
            if image not in seen:
                seen.add(image)
                found.append(image)
    return found


def _subgroup_from_indices(group: FiniteGroup, indices: list[int]) -> FiniteGroup:
    """The subgroup on the given element indices, closed from a greedy
    generating set S over the parent's product: its elements are parent
    indices, and the closure costs |I| * |S| parent products.  An index
    set that is not closed generates more than itself and is refused.
    Works for any backing representation, faithful matrices or not."""
    gens = _greedy_generators(group, indices)
    subgroup = group_from_elements(gens, group.mul, group.identity)
    if subgroup.order != len(set(indices)):
        raise ConsistencyError("inertia index set is not closed")
    return subgroup


def semidirect_product_permutations(action: LinearGroupAction) -> FiniteGroup:
    """V x| A as permutations of the vectors of V (affine maps v -> w + Mv).

    Requires a faithful action, which is checked via the resulting order.
    """
    ell, dim, group = action.ell, action.dim, action.group
    size_v = ell**dim
    check_order(size_v * group.order)
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
        # M v for every v, as the rows v M^T
        images = ml.mat_mul(vectors, ml.mat_transpose(action.matrices[g]), ell)
        gens.append(tuple(code_of[w] for w in images))
    product = group_from_permutations(gens, name="V x| A")
    if product.order != size_v * group.order:
        raise ValueError(
            f"permutation closure has order {product.order}; "
            "the action must be faithful for the cross-check"
        )
    return product


def engine_cross_check(
    action, p: int, seed: int = 0, clifford: CliffordCount | None = None
) -> Report:
    """Degrees of V x| A two ways: Clifford count vs. the degree engine on
    the explicit permutation group.  Disagreement is a hard failure.
    `clifford` hands over a count of the same action already made; it is
    counted here otherwise, after the product is built or refused."""
    product = semidirect_product_permutations(action)
    if clifford is None:
        clifford = clifford_pprime_count(action, p, engine_seed=seed)
    engine_degrees = irreducible_degrees(product, seed=seed)
    if engine_degrees.counts != clifford.degrees.counts:
        raise ConsistencyError(
            "engine and Clifford degree multisets disagree: "
            f"{engine_degrees.counts} vs {clifford.degrees.counts}"
        )
    rows = [
        {
            "check": "degree multisets equal",
            "order": product.order,
            "classes": len(engine_degrees),
            "pprime_count": clifford.pprime_count,
            "sum_of_squares": engine_degrees.sum_of_squares(),
            "ok": True,
        }
    ]
    return Report(
        command="engine-cross-check",
        parameters={"p": p, "order": product.order},
        rows=rows,
        counters={"degrees": len(engine_degrees)},
    )
