"""ppchars: exact counting of p'-degree irreducible characters.

The library verifies, in exact integer arithmetic, counting formulas and
extremal constructions surrounding the lower bound |Irr_p'(G)| >= 2*sqrt(p-1)
for finite groups: partition combinatorics for symmetric groups, a generic
modular character-degree engine, the extremal Frobenius and solvable
witnesses, inequality grids for groups of Lie type, and the Diophantine
classification sweep for self-centralizing tori of prime order.
"""

# set before the submodules load: report.py reads it at import time
__version__ = "0.1.0"

from .engine import (
    DegreeMultiset,
    FiniteGroup,
    alternating_group,
    conjugacy_classes,
    cyclic_group,
    derived_subgroup_index,
    dihedral_group,
    group_from_elements,
    group_from_permutations,
    group_from_table,
    irreducible_degrees,
    symmetric_group,
)
from .landau import LandauPrime, is_prime, landau_primes, multiplicative_order, prime_powers
from .partitions import partition_count, split_count, split_count_naive
from .symmetric import (
    hook_degree,
    irr_pprime_count_alt_oracle,
    irr_pprime_count_sym_oracle,
    macdonald_count,
    p_adic_expansion,
    verify_symmetric_bounds,
)

__all__ = [
    "DegreeMultiset",
    "FiniteGroup",
    "LandauPrime",
    "alternating_group",
    "conjugacy_classes",
    "cyclic_group",
    "derived_subgroup_index",
    "dihedral_group",
    "group_from_elements",
    "group_from_permutations",
    "group_from_table",
    "hook_degree",
    "irr_pprime_count_alt_oracle",
    "irr_pprime_count_sym_oracle",
    "irreducible_degrees",
    "is_prime",
    "landau_primes",
    "macdonald_count",
    "multiplicative_order",
    "p_adic_expansion",
    "partition_count",
    "prime_powers",
    "split_count",
    "split_count_naive",
    "symmetric_group",
    "verify_symmetric_bounds",
    "__version__",
]
