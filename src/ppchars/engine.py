"""Small-finite-group engine: closures, conjugacy classes, character degrees.

Groups are built from a composition callback, so permutation groups, affine
maps and matrix groups all share one code path, or from a multiplication
table.  The callback is used only while the closure runs: it records the
products x * g by the generators as integer right-multiplication tables,
plus a breadth-first word tree, and everything after that (products,
inverses, conjugacy classes, element orders, the derived subgroup) is
index arithmetic on those tables.
Character degrees are computed by the classical modular method (Dixon):

1. compute the class multiplication coefficients a_ijk, one pass over G per
   class representative z_k through the right-regular permutation
   x -> x z_k, composed from the generator tables along z_k's word;
2. pick a prime L = 1 (mod exponent of G) with L > |G|, so that F_L
   contains all needed roots of unity and every degree-squared value is
   read off exactly;
3. simultaneously diagonalize the class matrices M_i = (a_ijk)_jk over
   F_L by refining common eigenspaces with random linear combinations
   (Dixon-Schneider).  Each combination, restricted to the space being
   split, is reduced once to Hessenberg form H; its characteristic
   polynomial comes from H, roots by gcd with x^L - x and equal-degree
   splitting, and each eigenspace ker(H - zI) by forward elimination on
   H, O(c^2) per eigenvalue rather than O(c^3) for a dense nullspace.
   Every eigenvector is checked against the matrix in exact arithmetic;
4. each one-dimensional common eigenspace, normalized at the identity
   class, gives the central character values w_j, and
   chi(1)^2 = |G| / sum_j w_j * w_{j*} / |C_j| evaluated in F_L equals the
   true integer since chi(1)^2 <= |G| < L.

Degrees are returned as a sorted multiset; with a fixed seed the run is
deterministic, and across seeds the multiset is identical by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

from .errors import ConsistencyError, EngineSplitError, SizeLimitError
from .landau import is_prime
from .modlinalg import (
    charpoly,
    distinct_roots,
    hessenberg,
    hessenberg_eigenspace,
    mat_vec,
    solve_in_span,
)

DEFAULT_ORDER_LIMIT = 5000
DEFAULT_CLOSURE_LIMIT = 100_000
DEFAULT_CLASS_LIMIT = 80


@dataclass
class FiniteGroup:
    """A finite group on canonical hashable elements, indexed 0..order-1.

    Closure-built groups put the identity at index 0; table-loaded groups
    keep their own labeling, so always go through the `identity` field.
    `mul` composes by index with no call back into the element
    representation: a table-loaded group looks its product up, and a
    closure-built group walks the BFS word of the right factor through the
    right-multiplication tables `_right[t][x] = index(x * generators[t])`.
    `_words[j]` lists the positions t in `generators`, left to right, of
    the generators whose product is j: its path in the breadth-first tree
    of the closure.
    """

    elements: list
    index: dict
    identity: int
    inverse: list[int]
    generators: list[int]
    name: str = ""
    _right: list[list[int]] | None = field(default=None, repr=False)
    _words: list[tuple[int, ...]] | None = field(default=None, repr=False)
    _table: list[tuple[int, ...]] | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        right = self._right
        for t in self._words[j]:
            i = right[t][i]
        return i

    def right_regular(self, j: int) -> list[int]:
        """The right-regular permutation x -> x * j as an index list: a
        table column, or |G| lookups per letter of j's word."""
        if self._table is not None:
            return [row[j] for row in self._table]
        rho = list(range(self.order))
        for t in self._words[j]:
            right_t = self._right[t]
            rho = [right_t[x] for x in rho]
        return rho

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            k += 1
        return k

    def multiplication_table(self) -> list[tuple[int, ...]]:
        if self._table is None:
            self._table = [
                tuple(self.mul(i, j) for j in range(self.order))
                for i in range(self.order)
            ]
        return self._table

    def validate(self) -> None:
        """Prove the group axioms exactly: no sampling, no order cut-off.

        The identity and inverse laws are checked for every element, and
        associativity is proven by one of two tests below.  A set with an
        associative law, a two-sided identity and two-sided inverses is a
        group, so its table is a Latin square without a check of its own.

        Table groups, Light's test.  Let T be the set of s with
        (x s) y = x (s y) for all x, y.  T holds the identity, and it is
        closed under the product: for s, t in T,
        (x (s t)) y = ((x s) t) y = (x s) (t y) = x (s (t y)) = x ((s t) y).
        So if the generators S lie in T and every element is
        ((e s1) s2) ... sk for some word in S, then T is everything.  Both
        are checked: the second by closing S from the identity, the first
        by comparing row(x s) with row(x) read at the positions row(s),
        |S| n^2 lookups at C speed in all.

        Closure-built groups, the left nucleus.  Here i j walks j's word
        through the right tables R_t, so once right_regular(g_t) == R_t for
        every generator, each right-regular map is a word in the R_t.  If
        the left multiplication y -> a y of a generator a commutes with
        every R_t, it commutes with every right-regular map, which says
        a (y z) = (a y) z for all y, z: a is in the left nucleus
        N = {a : a (y z) = (a y) z}.  N holds the identity and is closed
        under the product: for a, b in N,
        (a b) (y z) = a (b (y z)) = a ((b y) z) = (a (b y)) z = ((a b) y) z.
        Every j is ((e g_t1) ...) g_tk along its word, so N is everything.
        This costs |S|^2 n lookups plus |S| n |word| for the left maps.
        """
        n = self.order
        e, mul, inverse = self.identity, self.mul, self.inverse
        for i in range(n):
            if mul(e, i) != i or mul(i, e) != i:
                raise ConsistencyError("identity law fails")
            if mul(i, inverse[i]) != e or mul(inverse[i], i) != e:
                raise ConsistencyError("inverse law fails")
        if self._right is None:
            self._check_light()
        else:
            self._check_left_nucleus()

    def _check_light(self) -> None:
        rows = self._table
        if len(subgroup_closure(self, self.generators)) != self.order:
            raise ConsistencyError("the generators do not generate the group")
        if self.order == 1:
            return  # the identity law is the whole law
        for s in self.generators:
            times_row_s = itemgetter(*rows[s])
            for x, row in enumerate(rows):
                if rows[row[s]] != times_row_s(row):
                    raise ConsistencyError(
                        f"associativity fails at ({x}, {s}, y) for some y"
                    )

    def _check_left_nucleus(self) -> None:
        right = self._right
        for g, right_g in zip(self.generators, right):
            if self.right_regular(g) != right_g:
                raise ConsistencyError(
                    f"products by generator {g} disagree with its table"
                )
        at_right = [itemgetter(*right_t) for right_t in right]
        for a in self.generators:
            left_a = [self.mul(a, y) for y in range(self.order)]
            at_left_a = itemgetter(*left_a)
            for right_t, at_right_t in zip(right, at_right):
                # a (y g_t) against (a y) g_t, for every y at once
                if at_right_t(left_a) != at_left_a(right_t):
                    raise ConsistencyError(
                        f"associativity fails: generator {a} is not in "
                        "the left nucleus"
                    )


@dataclass(frozen=True)
class ConjugacyClasses:
    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]


@dataclass(frozen=True)
class DegreeMultiset:
    """Weakly increasing irreducible character degrees of one group."""

    degrees: tuple[int, ...]

    def sum_of_squares(self) -> int:
        return sum(d * d for d in self.degrees)

    def linear_count(self) -> int:
        return sum(1 for d in self.degrees if d == 1)

    def pprime_count(self, p: int) -> int:
        return sum(1 for d in self.degrees if d % p != 0)


def pprime_degree_count(group_or_degrees, p: int) -> int:
    """Number of irreducible degrees coprime to p; accepts a group (degrees
    are computed) or an already-computed multiset."""
    if isinstance(group_or_degrees, DegreeMultiset):
        return group_or_degrees.pprime_count(p)
    return irreducible_degrees(group_or_degrees).pprime_count(p)


# ---------------------------------------------------------------------------
# construction

def group_from_elements(
    generators: Sequence,
    mul: Callable,
    identity,
    inv: Callable | None = None,
    max_order: int = DEFAULT_CLOSURE_LIMIT,
    name: str = "",
) -> FiniteGroup:
    """Close a generating set under an associative composition callback.

    Elements are numbered in breadth-first order from the identity.  The
    products x * g the closure computes anyway are kept as integer tables,
    and the callback is not used once the closure is done.
    """
    elements = [identity]
    index = {identity: 0}
    gen_elems = []
    for g in generators:
        if g not in index and g not in gen_elems:
            gen_elems.append(g)
    right = [[] for _ in gen_elems]
    words = [()]
    for x_idx, x in enumerate(elements):
        for t, g in enumerate(gen_elems):
            y = mul(x, g)
            y_idx = index.get(y)
            if y_idx is None:
                if len(elements) >= max_order:
                    raise SizeLimitError(
                        f"closure exceeded {max_order} elements"
                    )
                y_idx = index[y] = len(elements)
                elements.append(y)
                words.append(words[x_idx] + (t,))
            right[t].append(y_idx)
    if not gen_elems:  # trivial group: the identity is its one generator
        right = [[0]]
    group = FiniteGroup(
        elements=elements,
        index=index,
        identity=0,
        inverse=[],
        generators=[index[g] for g in gen_elems] or [0],
        name=name,
        _right=right,
        _words=words,
    )
    group.inverse = _inverse_table(group, inv)
    return group


def _inverse_table(group: FiniteGroup, inv: Callable | None) -> list[int]:
    n = group.order
    if inv is not None:
        return [group.index[inv(e)] for e in group.elements]
    out = [-1] * n
    out[0] = 0
    for i in range(n):
        if out[i] != -1:
            continue
        # walk the cyclic subgroup <i>; powers pair up with inverses
        path = [i]
        x = group.mul(i, i)
        while x != group.identity:
            if len(path) == n:
                raise ConsistencyError(
                    f"no power of element {i} up to the group order is the "
                    "identity: the composition is not a group law"
                )
            path.append(x)
            x = group.mul(x, i)
        k = len(path) + 1  # order of element i
        for a, elem in enumerate(path, start=1):
            out[elem] = path[k - a - 1] if k - a > 0 else group.identity
    return out


def _compose_perms(a: tuple, b: tuple) -> tuple:
    """(a o b)(x) = a(b(x)); itemgetter returns a bare entry for degree 1."""
    return itemgetter(*b)(a) if len(b) > 1 else (a[b[0]],)


def _invert_perm(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def group_from_permutations(
    perms: Sequence[Sequence[int]],
    max_order: int = DEFAULT_CLOSURE_LIMIT,
    name: str = "",
) -> FiniteGroup:
    """Group generated by permutations given in image notation (0-based)."""
    if not isinstance(perms, (list, tuple)) or not all(
        isinstance(p, (list, tuple)) for p in perms
    ):
        raise ValueError("permutations must be a list of image lists")
    if not perms:
        raise ValueError("need at least one generator")
    degree = len(perms[0])
    gens = []
    for p in perms:
        t = tuple(p)
        # exact type first, so that sorted() never compares "1" with 0
        if (len(t) != degree or set(map(type, t)) - {int}
                or sorted(t) != list(range(degree))):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
        gens.append(t)
    return group_from_elements(
        gens,
        _compose_perms,
        tuple(range(degree)),
        inv=_invert_perm,
        max_order=max_order,
        name=name,
    )


def group_from_table(table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Group from an explicit multiplication table (element indices)."""
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in table
    ):
        raise ValueError("multiplication table must be a list of rows")
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError("multiplication table must be square")
    # exact type, so that 1.9, True and "1" are refused, not converted
    if any(set(map(type, row)) != {int} for row in table):
        raise ValueError("table entries must be integers")
    if any(min(row) < 0 or max(row) >= n for row in table):
        raise ValueError(f"table entries must lie in 0..{n - 1}")
    # rows of one shared int object per label, so that most comparisons in
    # validate() meet identical objects; itemgetter(0) would return a bare 0
    labels = list(range(n))
    if n > 1:
        rows = [itemgetter(*row)(labels) for row in table]
    else:
        rows = [tuple(row) for row in table]
    identity_row = tuple(labels)
    identity = next(
        (e for e in range(n)
         if rows[e] == identity_row
         and all(row[e] == i for i, row in enumerate(rows))),
        None,
    )
    if identity is None:
        raise ValueError("table has no identity element")
    inverse = []
    for i, row in enumerate(rows):
        j = row.index(identity) if identity in row else None
        if j is None or rows[j][i] != identity:
            raise ValueError(f"element {i} has no two-sided inverse")
        inverse.append(j)
    group = FiniteGroup(
        elements=list(range(n)),
        index={i: i for i in range(n)},
        identity=identity,
        inverse=inverse,
        generators=[identity],
        name=name,
        _table=rows,
    )
    group.generators = _greedy_generators(group)
    group.validate()
    return group


def _greedy_generators(group: FiniteGroup) -> list[int]:
    """A small generating set: each element not yet generated is added.
    Every new generator at least doubles the subgroup, so there are at most
    log2 |G| of them."""
    gens: list[int] = []
    members = {group.identity}
    for x in range(group.order):
        if x not in members:
            gens.append(x)
            members = subgroup_closure(group, gens)
    return gens or [group.identity]


# ---------------------------------------------------------------------------
# builtin families

def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return group_from_permutations([(0,)], name="C1")
    shift = tuple((i + 1) % n for i in range(n))
    return group_from_permutations([shift], name=f"C{n}")


def dihedral_group(order: int) -> FiniteGroup:
    if order % 2 or order < 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2
    if n == 1:
        return group_from_permutations([(1, 0)], name="D2")
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return group_from_permutations([rot, flip], name=f"D{order}")


def symmetric_group(n: int) -> FiniteGroup:
    if n < 2:
        return cyclic_group(1)
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    return group_from_permutations([cycle, swap], name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    if n < 3:
        return cyclic_group(1)
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2:
        big = tuple(list(range(1, n)) + [0])
    else:
        big = tuple([0] + list(range(2, n)) + [1])
    return group_from_permutations([three, big], name=f"A{n}")


# ---------------------------------------------------------------------------
# conjugacy classes and subgroup machinery

def conjugacy_classes(
    group: FiniteGroup, order_limit: int = DEFAULT_ORDER_LIMIT
) -> ConjugacyClasses:
    if group.order > order_limit:
        raise SizeLimitError(
            f"group order {group.order} exceeds engine bound {order_limit}"
        )
    n = group.order
    class_of = [-1] * n
    reps, sizes = [], []
    conjugations = _generator_conjugations(group)
    for i in range(n):
        if class_of[i] != -1:
            continue
        c = len(reps)
        reps.append(i)
        orbit = [i]
        class_of[i] = c
        for x in orbit:
            for conj in conjugations:
                y = conj[x]
                if class_of[y] == -1:
                    class_of[y] = c
                    orbit.append(y)
        sizes.append(len(orbit))
    if sum(sizes) != n:
        raise ConsistencyError("class sizes do not sum to the group order")
    inverse_class = tuple(class_of[group.inverse[r]] for r in reps)
    return ConjugacyClasses(tuple(class_of), tuple(reps), tuple(sizes), inverse_class)


def _generator_conjugations(group: FiniteGroup) -> list[list[int]]:
    """For each generator g the map x -> g^-1 x g, as an index list built
    from x -> x g and inversion: g^-1 x g = ((x^-1 g)^-1) g."""
    inverse = group.inverse
    out = []
    for g in group.generators:
        right_g = group.right_regular(g)
        out.append([right_g[inverse[right_g[x_inv]]] for x_inv in inverse])
    return out


def subgroup_closure(group: FiniteGroup, gen_indices: Sequence[int]) -> set[int]:
    """Indices of the subgroup generated by the given element indices."""
    members = {group.identity}
    gens = [g for g in dict.fromkeys(gen_indices) if g != group.identity]
    queue = [group.identity]
    for x in queue:
        for g in gens:
            y = group.mul(x, g)
            if y not in members:
                members.add(y)
                queue.append(y)
    return members


def derived_subgroup_index(group: FiniteGroup) -> int:
    """Index of the commutator subgroup, computed as the normal closure of
    the commutators of the generators."""
    gens = group.generators
    inverse, mul = group.inverse, group.mul
    comms = set()
    for a in gens:
        for b in gens:
            c = mul(mul(inverse[a], inverse[b]), mul(a, b))
            if c != group.identity:
                comms.add(c)
    if not comms:
        return group.order
    conjugations = _generator_conjugations(group)
    closure_gens = list(comms)
    while True:
        subgroup = subgroup_closure(group, closure_gens)
        new = [
            y
            for h in closure_gens
            for conj in conjugations
            if (y := conj[h]) not in subgroup
        ]
        if not new:
            break
        closure_gens.extend(dict.fromkeys(new))
    if group.order % len(subgroup):
        raise ConsistencyError("derived subgroup order does not divide |G|")
    return group.order // len(subgroup)


# ---------------------------------------------------------------------------
# character degrees

def _splitting_prime(order: int, exponent: int) -> int:
    k = order // exponent + 1
    while True:
        candidate = k * exponent + 1
        if candidate > order and is_prime(candidate):
            return candidate
        k += 1


def _class_matrices(group: FiniteGroup, cc: ConjugacyClasses) -> list[list[list[int]]]:
    """Structure constants a_ijk with K_i K_j = sum_k a_ijk K_k, laid out
    as c matrices M_i = (a_ijk)_jk.  a_ijk counts the x in K_i with
    x^-1 z_k in K_j, read off the right-regular permutation of z_k."""
    c = len(cc.reps)
    mats = [[[0] * c for _ in range(c)] for _ in range(c)]
    class_of = cc.class_of
    for k, zk in enumerate(cc.reps):
        rho = group.right_regular(zk)
        for x, x_inv in enumerate(group.inverse):
            mats[class_of[x]][class_of[rho[x_inv]]][k] += 1
    return mats


def _refine_space(basis, combo, L, rng):
    """Split an invariant subspace into eigenspaces of `combo`.

    basis: list of independent vectors, or None meaning the full space.
    Returns a list of bases whose dimensions sum to the input dimension.
    Eigenvectors come from the Hessenberg form the characteristic
    polynomial is computed on, and each is checked against the matrix.
    """
    if basis is None:
        rmat = combo
        dim = len(combo)
    else:
        dim = len(basis)
        images = [mat_vec(combo, vec, L) for vec in basis]
        rmat_cols = solve_in_span(basis, images, L)
        rmat = [[rmat_cols[j][i] for j in range(dim)] for i in range(dim)]
    h, steps = hessenberg(rmat, L)
    poly = charpoly(h, L)  # h is already reduced, so this is the recurrence
    pieces = []
    total = 0
    for z in distinct_roots(poly, L, rng):
        kernel = hessenberg_eigenspace(h, steps, z, L)
        for y in kernel:
            if mat_vec(rmat, y, L) != [z * t % L for t in y]:
                raise ConsistencyError("eigenspace vector fails rmat v = z v")
        if basis is None:
            vecs = kernel
        else:
            vecs = [
                [
                    sum(y[t] * basis[t][idx] for t in range(dim)) % L
                    for idx in range(len(basis[0]))
                ]
                for y in kernel
            ]
        total += len(vecs)
        pieces.append(vecs)
    if total != dim:
        raise ConsistencyError("eigenspace dimensions do not sum up")
    return pieces


def irreducible_degrees(
    group: FiniteGroup,
    seed: int = 0,
    order_limit: int = DEFAULT_ORDER_LIMIT,
    class_limit: int = DEFAULT_CLASS_LIMIT,
    max_rounds: int = 64,
) -> DegreeMultiset:
    """Exact irreducible character degree multiset of a finite group."""
    if group.order > order_limit:
        raise SizeLimitError(
            f"group order {group.order} exceeds engine bound {order_limit}"
        )
    if group.order == 1:
        return DegreeMultiset((1,))
    cc = conjugacy_classes(group, order_limit=order_limit)
    c = len(cc.reps)
    if c > class_limit:
        raise SizeLimitError(f"{c} classes exceeds engine bound {class_limit}")
    exponent = 1
    for rep in cc.reps:
        exponent = math.lcm(exponent, group.element_order(rep))
    L = _splitting_prime(group.order, exponent)
    mats = _class_matrices(group, cc)

    rng = random.Random(seed)
    spaces: list = [None]

    def fully_split() -> bool:
        return all(s is not None and len(s) == 1 for s in spaces)

    for _ in range(max_rounds):
        if fully_split():
            break
        weights = [rng.randrange(L) for _ in range(c)]
        combo = [[0] * c for _ in range(c)]
        for i in range(c):
            wi = weights[i]
            if wi == 0:
                continue
            mat_i = mats[i]
            for j in range(c):
                row = combo[j]
                src = mat_i[j]
                for k in range(c):
                    if src[k]:
                        row[k] = (row[k] + wi * src[k]) % L
        next_spaces = []
        for s in spaces:
            if s is not None and len(s) == 1:
                next_spaces.append(s)
            else:
                next_spaces.extend(_refine_space(s, combo, L, rng))
        spaces = next_spaces
    if not fully_split():
        raise EngineSplitError(
            f"common eigenspaces not separated after {max_rounds} rounds"
        )

    size_inv = [pow(sz, -1, L) for sz in cc.sizes]
    identity_class = cc.class_of[group.identity]
    degrees = []
    for (w,) in spaces:
        w0 = w[identity_class] % L
        if w0 == 0:
            raise ConsistencyError("eigenvector vanishes at the identity class")
        scale = pow(w0, -1, L)
        omega = [wi * scale % L for wi in w]
        s = sum(
            omega[j] * omega[cc.inverse_class[j]] * size_inv[j] for j in range(c)
        ) % L
        if s == 0:
            raise ConsistencyError("orthogonality sum vanished mod L")
        d_squared = group.order * pow(s, -1, L) % L
        if not 1 <= d_squared <= group.order:
            raise ConsistencyError(f"degree^2 = {d_squared} out of range")
        d = math.isqrt(d_squared)
        if d * d != d_squared:
            raise ConsistencyError(f"degree^2 = {d_squared} is not a square")
        degrees.append(d)
    degrees.sort()
    result = DegreeMultiset(tuple(degrees))
    if len(degrees) != c or result.sum_of_squares() != group.order:
        raise ConsistencyError("degree multiset fails the sum-of-squares check")
    return result
