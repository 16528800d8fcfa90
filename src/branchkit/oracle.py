"""Brute-force branching oracle via semistandard tableau enumeration.

Semistandard Young tableaux of shape lambda with entries in 1..n index a
weight basis of L(lambda); a tableau's H-eigenvalue is the sum of
h_diagonal[entry - 1] over its boxes.  Enumerating all of them and applying
dim V_j - dim V_{j+2} reproduces any branching from first principles.

Deliberately independent of the recursion and the closed forms: it imports
nothing from fundamental or branching, only h_diagonal from subalgebra, the
partition dictionary from weights, and the dim-difference arithmetic
(mult_from_multiset) from sl2.
"""

from collections import Counter

from .sl2 import MultVector, mult_from_multiset
from .subalgebra import SubalgebraType, h_diagonal
from .weights import DominantWeight, Partition, canonical_partition, omega_to_partition

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Tableau enumeration passed the configured cap."""


def tableau_weight_multiset(shape, values, budget: int | None = None) -> Counter:
    """Multiset of sum-of-values weights over all SSYT of the shape.

    values[i] is the contribution of entry i + 1; entries run over
    1..len(values).  Fills cells in row-major order by backtracking: each
    cell's entry must weakly exceed its left neighbor and strictly exceed the
    one above.
    """
    shape = canonical_partition(shape)
    n = len(values)
    if len(shape) > n:
        return Counter()
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    grid = [[0] * width for width in shape]
    out: Counter = Counter()
    seen = 0

    def fill(idx, acc):
        nonlocal seen
        if idx == len(cells):
            seen += 1
            if budget is not None and seen > budget:
                raise BudgetExceededError(
                    f"more than {budget} tableaux of shape {shape} with entries <= {n}"
                )
            out[acc] += 1
            return
        r, c = cells[idx]
        lo = grid[r][c - 1] if c else 1
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n + 1):
            grid[r][c] = v
            fill(idx + 1, acc + values[v - 1])

    fill(0, 0)
    return out


def ssyt_count(shape: Partition, n: int) -> int:
    """Number of semistandard tableaux of the shape with entries at most n."""
    return sum(tableau_weight_multiset(shape, (0,) * n).values())


def oracle_branch(
    t: SubalgebraType, w: DominantWeight, budget: int = DEFAULT_BUDGET
) -> MultVector:
    """Branching of L(w) computed from scratch by full tableau enumeration."""
    if w.rank != t.n:
        raise ValueError(f"weight rank {w.rank} does not match type {t} of sl_{t.n}")
    ms = tableau_weight_multiset(omega_to_partition(w), h_diagonal(t), budget=budget)
    return mult_from_multiset(ms)
