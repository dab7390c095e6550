"""Small-finite-group engine: closures, conjugacy classes, character degrees.

Groups are built from a composition callback (affine maps, matrix groups,
index pairs, subgroups of a group already built), from permutations, or
from a multiplication table.  The callback is used only while the closure
runs: it records the products x * g by the generators as integer
right-multiplication tables, plus a breadth-first word tree, and everything
after that (products, inverses, conjugacy classes, element orders, the
derived subgroup) is index arithmetic on those tables.

Permutation groups get the same tables, numbering and words, but are
closed over the stabilizer H of a point omega, with u a transversal of
omega's orbit.  By Schreier's lemma the u_delta o g o u_(delta . g)^-1
generate H, which the callback closure closes; by orbit-stabilizer
(h, delta) -> h o u_delta is a bijection from H x orbit onto G.  So the
tables of G are index arithmetic on H's, and no element of G outside H is
kept: the group's `elements` compose h o u_delta each time one is read
(see `group_from_permutations`).

Character degrees are computed by the classical modular method (Dixon):

1. compute the class multiplication coefficients a_ijk, one pass over G per
   class representative z_k through the right-regular permutation
   y -> y z_k, composed from the generator tables along z_k's word, with
   the maps of word prefixes shared between representatives; only the
   nonzero a_ijk are kept, as (j, k, a_ijk) per class i.  With k* the
   class of the inverses of K_k, a_{i*j*k*} = a_ijk: of the x in K_{i*}
   with x^-1 z_k^-1 in K_{j*}, u = x^-1 runs over the u in K_i with
   z_k u^-1 in K_j, and z_k u^-1 is conjugate to u^-1 z_k.  So only one
   class of each inverse pair {k, k*} gets a pass, and the column k* is
   listed from the column k;
2. pick a prime L = 1 (mod exponent of G) with L > |G|, so that F_L
   contains all needed roots of unity and every degree-squared value is
   read off exactly;
3. split the unit vector at the identity class into its projections onto
   the c common eigenvectors of the class matrices M_i = (a_ijk)_jk over
   F_L (Dixon-Schneider, on cluster vectors instead of subspaces).  A
   cluster's support, the number of central characters it still holds, is
   one dot product with the class-matrix traces, so a cluster of support 1
   is settled and never split again.  Each round draws one random
   combination A of the M_i and splits every open cluster vector v by its
   Krylov sequence v, A v, A^2 v, ...: the first dependency gives v's
   minimal polynomial mu; its roots z come from mu at every unit of F_L,
   evaluated by chirp products, or, where L is large against deg mu,
   from a gcd with x^L - x and equal-degree splitting
   (`modlinalg.distinct_roots`); and (mu / (x - z))(A) v is a multiple of
   the projection of v onto A's z-eigenspace.  Every split is checked in
   exact arithmetic, the supports of the pieces must add up to the
   parent's, and the rounds stop when every cluster is settled;
4. each cluster, normalized at the identity class, gives the central
   character values w_j, and
   chi(1)^2 = |G| / sum_j w_j * w_{j*} / |C_j| evaluated in F_L equals the
   true integer since chi(1)^2 <= |G| < L; |G| times the cluster's own
   value at the identity class, beta_chi = chi(1)^2 / |G|, must agree.

Degrees are returned as sorted (degree, multiplicity) pairs; with a fixed
seed the run is deterministic, and across seeds the multiset is identical
by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from collections import Counter
from collections.abc import Callable, Sequence
from itertools import chain
from operator import add, eq, itemgetter

from .errors import ConsistencyError, EngineSplitError, SizeLimitError
from .landau import is_prime
from .modlinalg import (
    distinct_roots, krylov_columns, krylov_minpoly_packed, pack, slot_width,
    unpack,
)

DEFAULT_ORDER_LIMIT = 5000
DEFAULT_CLASS_LIMIT = 80


def check_order(order: int = 1, text: str = "") -> int:
    """Return the engine's order bound, after refusing a group of the
    given order past it.  Every group constructor calls this before it
    builds an element, so the bound is read here and nowhere else.
    `text` names an order too large to be worth computing, such as
    "10000!"."""
    limit = DEFAULT_ORDER_LIMIT
    if order > limit:
        raise SizeLimitError(
            f"group order {text or order} exceeds engine bound {limit}"
        )
    return limit


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
    of the closure.  No element-to-index map is kept; a caller that needs
    one builds it from `elements`.  A permutation group keeps no element
    list either: its `elements` compose element i each time it is read,
    so a caller that reads them more than once keeps its own copy.
    """

    elements: Sequence
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
        table column, or one itemgetter pass per letter of j's word."""
        if self._table is not None:
            return [row[j] for row in self._table]
        rho = range(self.order)
        for t in self._words[j]:
            rho = _compose_perms(self._right[t], rho)
        return list(rho)

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            k += 1
        return k

    def validate(self) -> None:
        """Prove the group axioms exactly: no sampling, no order cut-off.

        The identity and inverse laws are checked for every element, and
        associativity is proven by one of two tests below.  A set with an
        associative law, a two-sided identity and two-sided inverses is a
        group, so its table is a Latin square without a check of its own.

        Table groups, the right nucleus.  Let L_x be row x, the map
        y -> x y, and R_b column b, the map y -> y b.  The walk from the
        identity by right multiplication with the generators S reads
        j = p t from row p, and when it first reaches j it checks
        L_j == L_p o L_t, that is (p t) y = p (t y) for every y.  L_e is
        the identity map, so by induction along the walk every L_x is a
        composition of the generator rows, and reaching all n elements
        proves that S generates.  Then, for each pair b, t in S, it checks
        t (y b) = (t y) b for every y: R_b commutes with each L_t, so with
        every L_x, which says x (y b) = (x y) b for all x, y.  So b lies in
        the right nucleus N = {b : (x y) b = x (y b) for all x, y}, which
        holds the identity and is closed under the product: for b, c in N,
        (x y) (b c) = ((x y) b) c = (x (y b)) c = x ((y b) c) = x (y (b c)).
        Every element is ((e t1) t2) ... tk along the walk, so N is
        everything.  This costs n - 1 row compositions, n^2 lookups, plus
        2 |S|^2 column checks of n lookups each, all at C speed.

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
            self._check_right_nucleus()
        else:
            self._check_left_nucleus()

    def _check_right_nucleus(self) -> None:
        rows = self._table
        # at n = 1 itemgetter returns a bare entry on both sides of each
        # column check, and the walk composes no row
        times_row = {t: itemgetter(*rows[t]) for t in self.generators}
        reached = [False] * self.order
        reached[self.identity] = True
        walk = [self.identity]
        for p in walk:
            row_p = rows[p]
            for t, times_row_t in times_row.items():
                j = row_p[t]
                if not reached[j]:
                    if rows[j] != times_row_t(row_p):
                        raise ConsistencyError(
                            f"associativity fails at ({p}, {t}, y) for some y"
                        )
                    reached[j] = True
                    walk.append(j)
        if len(walk) != self.order:
            raise ConsistencyError("the generators do not generate the group")
        for b in times_row:
            column_b = tuple(map(itemgetter(b), rows))
            at_column_b = itemgetter(*column_b)
            for t, times_row_t in times_row.items():
                # t (y b) against (t y) b, for every y at once
                if at_column_b(rows[t]) != times_row_t(column_b):
                    raise ConsistencyError(
                        f"associativity fails at ({t}, y, {b}) for some y"
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
    """Irreducible character degrees of one group as (degree, multiplicity)
    pairs, in increasing degree."""

    counts: tuple[tuple[int, int], ...]

    @classmethod
    def from_counter(cls, counter: Counter) -> DegreeMultiset:
        return cls(tuple(sorted(counter.items())))

    @property
    def degrees(self) -> tuple[int, ...]:
        """One entry per character, weakly increasing."""
        return tuple(d for d, k in self.counts for _ in range(k))

    def __len__(self) -> int:
        return sum(k for _, k in self.counts)

    def sum_of_squares(self) -> int:
        return sum(d * d * k for d, k in self.counts)

    def linear_count(self) -> int:
        return sum(k for d, k in self.counts if d == 1)

    def pprime_count(self, p: int) -> int:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return sum(k for d, k in self.counts if d % p != 0)


# ---------------------------------------------------------------------------
# construction

def group_from_elements(
    generators: Sequence,
    mul: Callable,
    identity,
    name: str = "",
    subgroup_index: int = 1,
) -> FiniteGroup:
    """Close a generating set under an associative composition callback.

    Elements are numbered in breadth-first order from the identity.  The
    products x * g the closure computes anyway are kept as integer tables,
    and the callback is not used once the closure is done: inverses come
    from the tables too.  The closure stops at the engine's order bound.
    A subgroup of known index k in a group held to that bound is refused
    past bound // k elements, with the larger group's message: its order
    is then at least k (bound // k + 1) > bound.
    """
    limit = check_order()
    most = limit // subgroup_index
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
                if len(elements) >= most:
                    check_order(limit + 1, f"at least {limit + 1}")
                y_idx = index[y] = len(elements)
                elements.append(y)
                words.append(words[x_idx] + (t,))
            right[t].append(y_idx)
    if not gen_elems:  # trivial group: the identity is its one generator
        right = [[0]]
    return FiniteGroup(
        elements=elements,
        identity=0,
        inverse=_inverse_table(right, words),
        generators=[index[g] for g in gen_elems] or [0],
        name=name,
        _right=right,
        _words=words,
    )


def _inverse_table(
    right: list[list[int]], words: list[tuple[int, ...]]
) -> list[int]:
    """x = e g_t1 ... g_tk along its word, so x^-1 = e g_tk^-1 ... g_t1^-1:
    the word walked backwards through the inverted right tables.  Whether
    x^-1 x = x x^-1 = e is left to `validate`."""
    n = len(words)
    inverted = []
    for right_t in right:
        inverted_t = [-1] * n
        for x, y in enumerate(right_t):
            inverted_t[y] = x
        if -1 in inverted_t:
            raise ConsistencyError(
                "products by a generator are not a bijection: the "
                "composition is not a group law"
            )
        inverted.append(inverted_t)
    out = []
    for word in words:
        x = 0
        for t in reversed(word):
            x = inverted[t][x]
        out.append(x)
    return out


def _compose_perms(a: tuple, b: tuple) -> tuple:
    """(a o b)(x) = a(b(x)); itemgetter returns a bare entry for degree 1."""
    return itemgetter(*b)(a) if len(b) > 1 else (a[b[0]],)


def group_from_permutations(
    perms: Sequence[Sequence[int]],
    name: str = "",
) -> FiniteGroup:
    """Group generated by permutations given in image notation (0-based),
    closed over the stabilizer H of a base point omega.

    The result is field for field the group that
    `group_from_elements(perms, _compose_perms, identity)` closes: the
    same numbering, words and tables, and elements equal entry by entry.
    But no element outside H is composed while the group is built, and
    only the Schreier generators and the elements of H are hashed.  With
    x * g = x o g, points are acted on from the right by
    delta . g = g^-1(delta).  omega is the smallest point of a largest
    orbit, and its orbit Delta is walked with a transversal u_omega = 1,
    u_(delta . g) = u_delta o g, so that omega . u_delta = delta.

    - Orbit-stabilizer: (h, delta) -> h o u_delta is a bijection from
      H x Delta onto G.  Its inverse sends x to (x o u_delta^-1, delta)
      with delta = omega . x, and x o u_delta^-1 fixes omega.  So
      |G| = |H| |Delta| is known, and held to the order bound, before
      any element outside H is built.
    - Schreier's lemma: the s(delta, g) = u_delta o g o u_(delta . g)^-1,
      over every delta in Delta and generator g, fix omega and generate
      H.  H is closed by `group_from_elements` from the distinct ones,
      each kept only if the closure of those kept before lacks it.  H has
      index |Delta| in G, so each closure stops past bound // |Delta|
      elements.
    - (h o u_delta) o g = (h o s(delta, g)) o u_(delta . g), so each
      product by a generator is one product in H's tables and one orbit
      step: G's right-multiplication tables are index arithmetic on the
      pairs (h, delta).  A breadth-first walk of them from the identity,
      generators in input order, gives the closure's numbering and words.
    - The elements are not built: `elements` keeps each one's pair code,
      H's elements and the transversal, and composes h o u_delta whenever
      element i is read.  Nothing downstream reads them; the engine works
      on the tables.
    """
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
    identity = tuple(range(degree))
    gens = list(dict.fromkeys(g for g in gens if g != identity))
    if not gens:
        return group_from_elements([], _compose_perms, identity, name=name)
    # a generator moves a point, so degree >= 2 and itemgetter(*x) of a
    # permutation x returns a tuple
    limit = check_order()
    omega, orbit_size = _base_point(gens, degree)
    check_order(orbit_size, f"at least {limit + 1}")

    # The orbit walk.  steps[t][d] = (e, s): the d-th orbit point times
    # g_t is the e-th, and the Schreier generator is the s-th of
    # `schreier`, which holds each distinct one once.
    inverses = [tuple(sorted(identity, key=g.__getitem__)) for g in gens]
    at_gens = [itemgetter(*g) for g in gens]
    position = [-1] * degree
    position[omega] = 0
    orbit, transversal = [omega], [identity]
    at_u_inverse = [itemgetter(*identity)]  # x -> x o u_delta^-1
    schreier = {identity: 0}
    steps = [[] for _ in gens]
    for d, delta in enumerate(orbit):
        u = transversal[d]
        for t, (g_inv, at_g) in enumerate(zip(inverses, at_gens)):
            u_g = at_g(u)
            image = g_inv[delta]
            e = position[image]
            if e < 0:  # a tree edge: u_(delta . g) = u_delta o g, so s = 1
                e = position[image] = len(orbit)
                orbit.append(image)
                transversal.append(u_g)
                # u_(delta . g)^-1 = g^-1 o u_delta^-1
                at_u_inverse.append(itemgetter(*at_u_inverse[d](g_inv)))
                s = 0
            else:
                s = schreier.setdefault(at_u_inverse[e](u_g), len(schreier))
            steps[t].append((e, s))
    del at_u_inverse  # |Delta| permutations, like the transversal

    stabilizer = group_from_elements([], _compose_perms, identity)
    members = {identity: 0}
    kept = []
    for s in schreier:
        if s not in members:
            kept.append(s)
            stabilizer = group_from_elements(
                kept, _compose_perms, identity, subgroup_index=len(orbit))
            members = {x: i for i, x in enumerate(stabilizer.elements)}
    m = stabilizer.order
    # x -> x s in H for each Schreier generator s
    rho = [stabilizer.right_regular(members[s]) for s in schreier]

    # pair (h, delta_d) is code d m + h; the identity is code 0
    order = m * len(orbit)
    pair_right = []
    for steps_t in steps:
        table = []
        for e, s in steps_t:
            table.extend(map((e * m).__add__, rho[s]))
        pair_right.append(table)
    new_index = [-1] * order
    new_index[0] = 0
    codes, words = [0], [()]
    right = [[] for _ in gens]
    for x, code in enumerate(codes):
        for t, (pair_right_t, right_t) in enumerate(zip(pair_right, right)):
            y = pair_right_t[code]
            j = new_index[y]
            if j < 0:
                j = new_index[y] = len(codes)
                codes.append(y)
                words.append(words[x] + (t,))
            right_t.append(j)
    del pair_right, new_index  # |G| (|S| + 1) ints, not needed past the walk
    if len(codes) != order:
        raise ConsistencyError(
            f"{len(codes)} elements reached, but |H| |Delta| = {order}"
        )

    elements = _PermutationElements(codes, stabilizer.elements, transversal)
    for t, g in enumerate(gens):
        if elements[right[t][0]] != g:
            raise ConsistencyError(
                f"the identity times generator {t} is not generator {t}"
            )
    return FiniteGroup(
        elements=elements,
        identity=0,
        inverse=_inverse_table(right, words),
        generators=[right_t[0] for right_t in right],
        name=name,
        _right=right,
        _words=words,
    )


class _PermutationElements(Sequence):
    """The elements of a permutation group closed over a point stabilizer
    H, read on demand: element i has pair code d |H| + h and is the
    permutation h o u_delta_d, composed each time it is read.  Indexing,
    iteration and `in` behave as on the list of the composed elements,
    which is never kept, and the sequence equals any sequence with the
    same entries in the same order."""

    def __init__(self, codes: list[int], h_elements: list[tuple],
                 transversal: list[tuple]):
        self._codes = codes
        self._h_elements = h_elements
        self._m = len(h_elements)
        # (h o u)(x) = h(u(x)): h read at the positions u
        self._at_u = [itemgetter(*u) for u in transversal]

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i: int) -> tuple:
        d, h = divmod(self._codes[i], self._m)
        return self._at_u[d](self._h_elements[h])

    def __iter__(self):
        at_u, h_elements, m = self._at_u, self._h_elements, self._m
        for code in self._codes:
            d, h = divmod(code, m)
            yield at_u[d](h_elements[h])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def _base_point(gens: list[tuple], degree: int) -> tuple[int, int]:
    """The smallest point of a largest orbit of <gens>, and the size of
    that orbit.  Orbits are walked from their smallest points in
    increasing order, and a later orbit replaces the best only if it is
    strictly larger."""
    seen = [False] * degree
    best, best_size = 0, 0
    for start in range(degree):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        if len(orbit) > best_size:
            best, best_size = start, len(orbit)
    return best, best_size


def group_from_table(table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Group from an explicit multiplication table (element indices)."""
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in table
    ):
        raise ValueError("multiplication table must be a list of rows")
    n = len(table)
    check_order(n)
    if any(len(row) != n for row in table):
        raise ValueError("multiplication table must be square")
    # exact type, so that 1.9, True and "1" are refused, not converted; the
    # types come first, since the set of values holds 1 and True as one key
    if set(map(type, chain.from_iterable(table))) - {int}:
        raise ValueError("table entries must be integers")
    values = set(chain.from_iterable(table))
    if values and (min(values) < 0 or max(values) >= n):
        raise ValueError(f"table entries must lie in 0..{n - 1}")
    # validate() proves associativity with one row composition per element
    # and a column check per pair of generators, n^2 + |S|^2 n lookups; the
    # tuples it compares mostly hold identical int objects, since the
    # group-file loader parses each distinct numeral into one shared object.
    # It also hands over tuple rows, which tuple() keeps without a copy.
    rows = [tuple(row) for row in table]
    identity_row = tuple(range(n))
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
        identity=identity,
        inverse=inverse,
        generators=[identity],
        name=name,
        _table=rows,
    )
    group.generators = _greedy_generators(group)
    group.validate()
    return group


def _greedy_generators(
    group: FiniteGroup, candidates: Sequence[int] | None = None
) -> list[int]:
    """A small generating set of the subgroup generated by `candidates`
    (all of the group by default): each candidate not yet generated is
    added.  Every new generator at least doubles the subgroup, so there are
    at most log2 |G| of them."""
    gens: list[int] = []
    members = {group.identity}
    for x in range(group.order) if candidates is None else candidates:
        if x not in members:
            gens.append(x)
            members = subgroup_closure(group, gens)
    return gens or [group.identity]


# ---------------------------------------------------------------------------
# builtin families

def cyclic_group(n: int) -> FiniteGroup:
    check_order(n)
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return group_from_permutations([(0,)], name="C1")
    shift = tuple((i + 1) % n for i in range(n))
    return group_from_permutations([shift], name=f"C{n}")


def dihedral_group(order: int) -> FiniteGroup:
    check_order(order)
    if order % 2 or order < 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2
    if n == 1:
        return group_from_permutations([(1, 0)], name="D2")
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return group_from_permutations([rot, flip], name=f"D{order}")


def _check_factorial_order(n: int, halved: bool) -> None:
    """Refuse S_n (order n!) or, halved, A_n (order n!/2) past the bound,
    multiplying n! out only as far as the bound."""
    order = 1
    for k in range(2, n + 1):
        order *= k
        check_order(order >> halved,
                    "" if k == n else f"{n}!/2" if halved else f"{n}!")


def symmetric_group(n: int) -> FiniteGroup:
    _check_factorial_order(n, False)
    if n < 2:
        return cyclic_group(1)
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    return group_from_permutations([cycle, swap], name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    _check_factorial_order(n, True)
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

def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
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


def _class_matrices(
    group: FiniteGroup, cc: ConjugacyClasses
) -> list[list[tuple[int, int, int]]]:
    """Structure constants a_ijk with K_i K_j = sum_k a_ijk K_k, as one
    list per class i of its nonzero (j, k, a_ijk).  a_ijk counts the x in
    K_i with x^-1 z_k in K_j; under x = y^-1 these are the y with y^-1 in
    K_i and y z_k in K_j.  So the right-regular map y -> y z_k, read
    through class_of by one itemgetter call, gives the classes of y z_k,
    and Counter counts the codes i c + j, with i from `inverse_class`.

    Only one class k of each inverse pair {k, k*} is counted, since
    a_{i*j*k*} = a_ijk.  Proof: with z_k^-1 for the representative of
    K_{k*}, a_{i*j*k*} counts the x in K_{i*} with x^-1 z_k^-1 in K_{j*}.
    Put u = x^-1.  Then u is in K_i, and z_k u^-1, the inverse of
    x^-1 z_k^-1, is in K_j; z_k u^-1 is conjugate to u^-1 z_k, so these
    are the u that a_ijk counts.  Each (j, k, a) counted for class i is
    also listed as (j*, k*, a) for class i* when k* != k.  Of each pair
    the class with the shorter representative word is counted, the lower
    index on a tie (a table group has no words, so the lower index).

    A table group reads each map as a table column.  A closure-built group
    visits the counted representatives in sorted word order, so that a
    word comes after its prefixes, and keeps on a stack the maps y -> y w
    of the proper prefixes w of the word in hand: each distinct proper
    prefix costs one composition, and no more maps are alive at once than
    the longest word has letters.  The last letter t is folded into the
    classes of y g_t, one itemgetter call per generator.  Needs |G| > 1,
    since itemgetter of one index returns a bare entry."""
    c = len(cc.reps)
    class_of, inverse_class = cc.class_of, cc.inverse_class
    # the code of the class of y^-1 for each y, one int object per class
    row_codes = itemgetter(*class_of)([i * c for i in inverse_class])
    triples: list[list[tuple[int, int, int]]] = [[] for _ in range(c)]

    def count(k: int, classes: tuple[int, ...]) -> None:
        counts = Counter(map(add, row_codes, classes)).items()
        for code, a in counts:
            i, j = divmod(code, c)
            triples[i].append((j, k, a))
        k_star = inverse_class[k]
        if k_star != k:
            for code, a in counts:
                i, j = divmod(code, c)
                triples[inverse_class[i]].append((inverse_class[j], k_star, a))

    if group._table is not None:
        for k, zk in enumerate(cc.reps):
            if k <= inverse_class[k]:
                count(k, itemgetter(*group.right_regular(zk))(class_of))
        return triples
    right, words = group._right, group._words
    cost = [(len(words[r]), k) for k, r in enumerate(cc.reps)]
    counted = [k for k in range(c) if cost[k] <= cost[inverse_class[k]]]
    times_generator = [itemgetter(*right_t)(class_of) for right_t in right]
    stack: list[tuple[int, Sequence[int]]] = []  # (w_n, y -> y w_0 ... w_n)
    for k in sorted(counted, key=lambda k: words[cc.reps[k]]):
        word = words[cc.reps[k]]
        if not word:
            count(k, class_of)
            continue
        n = 0
        while n < min(len(stack), len(word) - 1) and stack[n][0] == word[n]:
            n += 1
        del stack[n:]
        for t in word[n:-1]:
            stack.append(
                (t, itemgetter(*stack[-1][1])(right[t]) if stack else right[t]))
        last = times_generator[word[-1]]
        count(k, itemgetter(*stack[-1][1])(last) if stack else last)
    return triples


def _krylov_split(v: list[int], columns: list[int], L: int, rng) -> list[list[int]]:
    """Split a cluster vector v into its projections onto the eigenspaces
    of combo, one per eigenvalue that v sees.  combo comes as its columns
    packed by `modlinalg.krylov_columns`, once for every split of a round.

    With mu the minimal polynomial of v, of degree r, and z one of its r
    roots, q_z = mu / (x - z) kills every eigenspace but z's, so
    y_z = q_z(combo) v is q_z(z) times the projection of v onto z's.  y_z
    is formed from the stored powers combo^t v, packed (see
    `modlinalg.pack`): sum_t q_t combo^t v is r multiply-adds with slots
    below (r + 1) L^2.  Since
    (x - z) q_z = mu - mu(z), combo y_z - z y_z = mu(combo) v - mu(z) v:
    checking mu(combo) v = 0 on the stored powers once, and mu(z) = 0 as
    the remainder of each synthetic division, checks combo y_z = z y_z for
    every z, exactly.  Also checked: mu has r distinct roots, no y_z
    vanishes, and the projections sum to v.
    """
    mu, powers = krylov_minpoly_packed(columns, v, L)
    r = len(mu) - 1
    c = len(v)
    width = slot_width((r + 1) * L * L)
    packed = [pack(power, width) for power in powers]

    def applied(poly: list[int]) -> list[int]:
        """sum_t poly[t] combo^t v mod L, for len(poly) <= r + 1."""
        combined = sum(t * power for t, power in zip(poly, packed))
        return [x % L for x in unpack(combined, c, width)]

    if any(applied(mu)):
        raise ConsistencyError("mu(combo) v is not zero for the minimal polynomial")
    roots = distinct_roots(mu, L, rng)
    if len(roots) != r:
        raise ConsistencyError(
            "minimal polynomial of a cluster vector has repeated or "
            "missing roots: the class algebra is not split over F_L"
        )
    pieces = []
    for z in roots:
        q = [1]  # mu / (x - z), from the top: mu is monic
        for coef in mu[r - 1:0:-1]:
            q.append((coef + z * q[-1]) % L)
        if (mu[0] + z * q[-1]) % L:
            raise ConsistencyError(f"{z} is not a root of the minimal polynomial")
        q_at_z = 0
        for coef in q:
            q_at_z = (q_at_z * z + coef) % L
        q.reverse()
        y = applied(q)  # q has r terms, so powers 0..r-1
        if not any(y):
            raise ConsistencyError("a projection of a cluster vector vanishes")
        scale = pow(q_at_z, -1, L)
        pieces.append([t * scale % L for t in y])
    if [sum(col) % L for col in zip(*pieces)] != powers[0]:
        raise ConsistencyError("projections of a cluster vector do not sum to it")
    return pieces


def _support_weights(
    mats: list[list[tuple[int, int, int]]], cc: ConjugacyClasses, L: int
) -> list[int]:
    """The weights t_j = tr(M_j) / |K_j| mod L, whose dot product with a
    cluster vector is the size of its support.

    A cluster is v = sum_{chi in S} beta_chi omega_chi (see
    `_identity_projections`), and |S| = sum_j v[j] t_j mod L.  Proof: the
    eigenvalues of M_j are the omega_psi(K_j) over all c characters psi,
    so its trace tr_j = sum_k a_jkk is sum_psi omega_psi(K_j), and

        sum_j v[j] tr_j / |K_j|
          = sum_{chi in S} beta_chi sum_psi
                sum_j omega_chi(K_j) omega_psi(K_j) / |K_j|
          = sum_{chi in S} beta_chi sum_psi 1 / (chi(1) psi(1))
                sum_j |K_j| chi(z_j) psi(z_j)
          = sum_{chi in S} beta_chi |G| / chi(1)^2 = |S|

    by first orthogonality: sum_j |K_j| chi(z_j) psi(z_j) is |G| when psi
    is the complex conjugate of chi, which has the same degree, and 0
    otherwise.  (tr_j = tr_{j*}, since conjugation permutes the psi.)
    Every denominator is a unit mod L, since L > |G|, and
    1 <= |S| <= c <= |G| < L, so the residue is the exact integer |S|.
    """
    traces = [sum(a for j, k, a in triples if j == k) for triples in mats]
    return [tr * pow(size, -1, L) % L for tr, size in zip(traces, cc.sizes)]


def _identity_projections(
    mats: list[list[tuple[int, int, int]]],
    cc: ConjugacyClasses,
    identity_class: int,
    L: int,
    rng,
    max_rounds: int,
) -> list[list[int]]:
    """The projections of the identity class onto the c central characters.

    Let e be the unit vector at the identity class and omega_chi the
    central character of chi, omega_chi(K_k) = |K_k| chi(z_k) / chi(1).
    M_i omega_chi = omega_chi(K_i) omega_chi for every class matrix, so a
    combination A = sum_i w_i M_i has omega_chi as an eigenvector, with
    eigenvalue sum_i w_i omega_chi(K_i).  Why the clusters end as the c
    vectors beta_chi omega_chi:

    - e = sum_chi beta_chi omega_chi with beta_chi = chi(1)^2 / |G|, by
      column orthogonality: sum_chi chi(1) chi(z_k) is |G| at the identity
      class and 0 at every other.  beta_chi is the identity-class
      coefficient of the central idempotent of chi, a unit mod L since
      L > |G|.
    - The omega_chi reduce mod L to a basis of F_L^c (Dixon), so a cluster
      sum_{chi in S} beta_chi omega_chi has a well-defined support S.  Its
      projection onto the z-eigenspace of A is the sum over the chi in S
      of eigenvalue z: it keeps exactly those chi, with their nonzero
      coefficients.
    - So the clusters always have disjoint nonempty supports, which cover
      every chi, and a cluster of support 1 is a single beta_chi omega_chi.

    |S| is read off exactly by `_support_weights`.  e starts as the one
    open cluster, of support c.  Each round draws one random combination
    A and splits every open cluster by `_krylov_split`; the pieces'
    supports must add up to their parent's, pieces of support 1 are
    settled, and the rest stay open.  Two chi stay together in a round
    only when their eigenvalues agree, which for distinct chi happens with
    chance 1/L.
    """
    c = len(mats)
    weights = _support_weights(mats, cc, L)
    settled = []
    unsettled = [([int(k == identity_class) for k in range(c)], c)]
    for _ in range(max_rounds):
        if not unsettled:
            break
        combo = [[0] * c for _ in range(c)]
        for triples in mats:
            w = rng.randrange(L)
            if w:
                for j, k, a in triples:
                    combo[j][k] += w * a
        columns = krylov_columns(combo, L)
        still_open = []
        for v, support in unsettled:
            pieces = _krylov_split(v, columns, L, rng)
            supports = [
                sum(x * t for x, t in zip(y, weights)) % L for y in pieces
            ]
            if 0 in supports or sum(supports) != support:
                raise ConsistencyError(
                    f"the supports {supports} of the pieces of a cluster do "
                    f"not add up to its support {support}"
                )
            for y, size in zip(pieces, supports):
                if size == 1:
                    settled.append(y)
                else:
                    still_open.append((y, size))
        unsettled = still_open
    if unsettled:
        raise EngineSplitError(
            f"{len(settled) + len(unsettled)} of {c} central characters "
            f"separated after {max_rounds} rounds"
        )
    return settled


def irreducible_degrees(
    group: FiniteGroup,
    seed: int = 0,
    max_rounds: int = 64,
) -> DegreeMultiset:
    """Exact irreducible character degree multiset of a finite group.  The
    group's constructor has already held it to the engine's order bound."""
    if group.order == 1:
        return DegreeMultiset(((1, 1),))
    cc = conjugacy_classes(group)
    c = len(cc.reps)
    if c > DEFAULT_CLASS_LIMIT:
        raise SizeLimitError(
            f"{c} classes exceeds engine bound {DEFAULT_CLASS_LIMIT}"
        )
    exponent = 1
    for rep in cc.reps:
        exponent = math.lcm(exponent, group.element_order(rep))
    L = _splitting_prime(group.order, exponent)
    identity_class = cc.class_of[group.identity]
    clusters = _identity_projections(
        _class_matrices(group, cc), cc, identity_class, L,
        random.Random(seed), max_rounds,
    )

    size_inv = [pow(sz, -1, L) for sz in cc.sizes]
    degrees = Counter()
    for w in clusters:
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
        if d_squared != group.order * w0 % L:
            # w = beta_chi omega_chi, and |G| beta_chi = chi(1)^2
            raise ConsistencyError(
                f"degree^2 = {d_squared} disagrees with the projection of "
                "the identity class"
            )
        d = math.isqrt(d_squared)
        if d * d != d_squared:
            raise ConsistencyError(f"degree^2 = {d_squared} is not a square")
        degrees[d] += 1
    result = DegreeMultiset.from_counter(degrees)
    if len(result) != c or result.sum_of_squares() != group.order:
        raise ConsistencyError("degree multiset fails the sum-of-squares check")
    return result
