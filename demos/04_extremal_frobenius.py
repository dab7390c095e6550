#!/usr/bin/env python3
"""The extremal Frobenius groups C_p x| C_sqrt(p-1).

For a prime p with p - 1 a perfect square, the Frobenius group whose
kernel has order p and whose cyclic complement has order m = sqrt(p-1)
has exactly m linear characters and (p-1)/m characters of degree m, all
of p'-degree: 2*sqrt(p-1) in total, meeting the general lower bound.
"""

import math

from ppchars.constructions import build_frobenius, frobenius_degree_multiset
from ppchars.engine import conjugacy_classes, irreducible_degrees
from ppchars.landau import landau_primes

print("primes p with sqrt(p - 1) an integer, up to 300:")
for lp in landau_primes(300):
    tag = "  (degenerate, excluded from the constructions)" if lp.degenerate else ""
    print(f"  p = {lp.p:4d} = {lp.m}^2 + 1{tag}")
print()

print(f"{'p':>5s} {'m':>3s} {'|H|':>6s} {'classes':>8s} {'p-count':>8s}  degrees")
for lp in landau_primes(300):
    if lp.degenerate:
        continue
    p, m = lp.p, lp.m
    group, params = build_frobenius(p, m)
    multiset = frobenius_degree_multiset(params)
    count = multiset.pprime_count(p)
    assert count == 2 * m
    classes = len(conjugacy_classes(group).reps)
    summary = f"{{1^{m}, {m}^{(p - 1) // m}}}"
    print(f"{p:5d} {m:3d} {group.order:6d} {classes:8d} {count:8d}  {summary}")
print()
print("class count = m + (p-1)/m = 2*sqrt(p-1) in every row.")
print()

print("independent engine confirmation for p = 5, 17, 37, 257:")
for p in (5, 17, 37, 257):
    m = math.isqrt(p - 1)
    group, params = build_frobenius(p, m)
    closed = frobenius_degree_multiset(params)
    eng = irreducible_degrees(group)
    print(f"  p = {p:4d}: engine degrees == closed form: {eng.degrees == closed.degrees}")
