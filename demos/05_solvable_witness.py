#!/usr/bin/env python3
"""A solvable group of order 3610 attaining the 2*sqrt(p-1) bound at p = 5.

Take the field V with 19^2 = 361 elements as a 2-dimensional space over
F_19.  Inside GammaL_1(361), the subgroup A generated by multiplication
with an element of order 5 and the 19-power Frobenius map is C_5 x| C_2,
and G = V x| A has exactly 4 = 2*sqrt(4) characters of 5'-degree.  The
construction works because ord_5(19) = 2: the Frobenius map then
centralizes nothing in the order-5 subgroup.  V is F_19[x] modulo a
quadratic factor of x^4 + x^3 + x^2 + x + 1, where x has order 5.

The degree multiset is computed twice: from dual orbits by Clifford
theory, and by the degree engine on the explicit order-3610 permutation
group.
"""

from collections import Counter

from ppchars.constructions import (
    build_gamma_l,
    clifford_pprime_count,
    engine_cross_check,
    find_construction_prime,
)


def monomial(c, i):
    power = "" if i == 0 else "x" if i == 1 else f"x^{i}"
    return power if c == 1 and i else f"{c} {power}".strip()


p = 5
r = find_construction_prime(p)
print(f"smallest usable construction prime for p = {p}: r = {r}"
      f"  (19 = 4 mod 5 has order 2)")

built = build_gamma_l(p, r)
terms = [monomial(c, i) for i, c in enumerate(built.modulus) if c]
print(f"field modulus over F_{r}: {' + '.join(reversed(terms))}")
print(f"multiplication-by-zeta matrix: {built.mult_matrix}")
print(f"Frobenius matrix:              {built.frobenius_matrix}")
print("construction invariants verified: fixed-point-free order-5 action,")
print("Frobenius normalizes but does not centralize it, C_A(P) = P")
print()

result = clifford_pprime_count(built.action, p)
print(f"|V x| A| = {361 * 10}")
print("degree multiset by Clifford theory:", dict(result.degrees.counts))
print(f"sum of squared degrees: {result.degrees.sum_of_squares()}")
print(f"degrees coprime to {p}: {result.pprime_count}  (= 2*sqrt(p-1) = 4)")
sizes = Counter()
for row in result.orbit_rows:  # one row per inertia type
    sizes[row["orbit_size"]] += row["orbits"]
print(f"dual orbit sizes: {dict(sorted(sizes.items()))}")
print()

print("engine cross-check on the explicit order-3610 permutation group...")
report = engine_cross_check(built.action, p)
row = report.rows[0]
print(f"  status: {report.status}; {row['classes']} classes, "
      f"p'-count {row['pprime_count']}, sum d^2 = {row['sum_of_squares']}")
