"""branchkit: exact branching of irreducible sl_n representations to sl_2 subalgebras.

Subalgebra types are partitions of n (Jordan block sizes of the nilpotent
element); restrictions decompose as sparse {j: multiplicity} maps over the
sl_2 irreducibles F_j.  Fundamental representations branch by a subset-sum
dynamic program for the wedge-power weight multiset, with closed-form
cross-checks; arbitrary highest weights branch by a memoized
Pieri/Clebsch-Gordan recursion; an independent semistandard tableau oracle
recomputes everything from first principles.
"""

from .branching import (
    BranchEngine,
    branch,
    clear_cache,
    principal_highest_component,
    select_pivot,
)
from .fundamental import (
    CorruptMultisetError,
    branching_hook,
    branching_k2_general,
    branching_two_blocks,
    fundamental_branching,
    mult_cayley_sylvester,
    mult_from_multiset,
    mult_macdonald,
    mult_strict_count,
    wedge_weight_multiset,
)
from .oracle import BudgetExceededError, oracle_branch, ssyt_count, tableau_weight_multiset
from .pieri import lex_max_member, pieri_set
from .qcomb import gaussian_binomial, p_k_n, pi, qpoly_str
from .sl2 import (
    InternalConsistencyError,
    cg_convolve,
    highest_component,
    lowest_component,
    rep_dimension,
)
from .subalgebra import SubalgebraType, all_types, build_triple, h_diagonal, is_principal
from .weights import (
    DominantWeight,
    canonical_partition,
    dim_irrep,
    dual_weight,
    iter_dominant_weights,
    iter_partitions,
    lex_compare,
    omega_to_partition,
    padded_partition,
    partition_to_omega,
)

__version__ = "0.1.0"

__all__ = [
    "BranchEngine",
    "BudgetExceededError",
    "CorruptMultisetError",
    "DominantWeight",
    "InternalConsistencyError",
    "SubalgebraType",
    "all_types",
    "branch",
    "branching_hook",
    "branching_k2_general",
    "branching_two_blocks",
    "build_triple",
    "canonical_partition",
    "cg_convolve",
    "clear_cache",
    "dim_irrep",
    "dual_weight",
    "fundamental_branching",
    "gaussian_binomial",
    "h_diagonal",
    "highest_component",
    "is_principal",
    "iter_dominant_weights",
    "iter_partitions",
    "lex_compare",
    "lex_max_member",
    "lowest_component",
    "mult_cayley_sylvester",
    "mult_from_multiset",
    "mult_macdonald",
    "mult_strict_count",
    "omega_to_partition",
    "oracle_branch",
    "p_k_n",
    "padded_partition",
    "partition_to_omega",
    "pi",
    "pieri_set",
    "principal_highest_component",
    "qpoly_str",
    "rep_dimension",
    "select_pivot",
    "ssyt_count",
    "tableau_weight_multiset",
    "wedge_weight_multiset",
]
