"""branchkit: exact branching of irreducible sl_n representations to sl_2 subalgebras.

Subalgebra types are partitions of n (Jordan block sizes of the nilpotent
element); restrictions decompose as sparse {j: multiplicity} maps over the
sl_2 irreducibles F_j.  Fundamental representations branch by the
wedge-power weight multiset e_k(q^{h_1}, ..., q^{h_n}), computed on integers
at q = 256**w (qcomb.digits decodes), with closed-form cross-checks;
arbitrary highest weights branch by a memoized Pieri/Clebsch-Gordan
recursion; an independent semistandard tableau oracle recomputes everything
from first principles, counting tableaux by weight as chains of horizontal
strips in one loop over the entries, with no recursion.

The top level exports what the README, the demos and the benchmark use, plus
the exception types.  Helpers such as the hook and two-block closed forms, the
partition utilities and the tableau enumerator stay importable from their
modules.  The oracle's names load the oracle on first use, so that importing
the package, or running `branchkit branch`, does not.
"""

from .branching import (
    BranchEngine,
    branch,
    clear_cache,
    principal_highest_component,
    select_pivot,
)
from .fundamental import (
    ClosedFormMismatchError,
    fundamental_branching,
    mult_cayley_sylvester,
    mult_macdonald,
    mult_strict_count,
    wedge_weight_multiset,
)
from .pieri import lex_max_member, pieri_set
from .qcomb import gaussian_binomial, p_k_n, pi, qpoly_str
from .sl2 import (
    BudgetExceededError,
    CorruptMultisetError,
    InternalConsistencyError,
    cg_convolve,
    highest_component,
    lowest_component,
    rep_dimension,
)
from .subalgebra import SubalgebraType, all_types, build_triple, h_diagonal
from .weights import (
    DominantWeight,
    dim_irrep,
    iter_dominant_weights,
    omega_to_partition,
    padded_partition,
    partition_to_omega,
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("oracle_branch", "ssyt_count"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BranchEngine",
    "BudgetExceededError",
    "ClosedFormMismatchError",
    "CorruptMultisetError",
    "DominantWeight",
    "InternalConsistencyError",
    "SubalgebraType",
    "all_types",
    "branch",
    "build_triple",
    "cg_convolve",
    "clear_cache",
    "dim_irrep",
    "fundamental_branching",
    "gaussian_binomial",
    "h_diagonal",
    "highest_component",
    "iter_dominant_weights",
    "lex_max_member",
    "lowest_component",
    "mult_cayley_sylvester",
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
    "wedge_weight_multiset",
]
