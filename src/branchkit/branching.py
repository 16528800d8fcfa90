"""Branching of arbitrary irreducibles L(lambda) by memoized recursion.

For lambda = lambda' + w_k the tensor product L(lambda') (x) L(w_k) restricts
in two ways: by the Pieri rule it is the sum of L(mu) over mu in
P(lambda', k), and block by block it is the Clebsch-Gordan convolution of
Res L(lambda') with Res L(w_k).  Equating the two and moving the lower Pieri
terms across gives every multiplicity of Res L(lambda).

All mu != lambda in P(lambda', k) are strictly lower in the lexicographic
order on partitions with a bounded first row, so the recursion bottoms out at
the fundamental representations and the trivial weight.
"""

from .fundamental import _FUND_CACHE, fundamental_branching
from .pieri import pieri_set
from .sl2 import (
    MultVector,
    cg_convolve,
    highest_component,
    lowest_component,
    mv_subtract,
)
from .subalgebra import SubalgebraType
from .weights import DominantWeight, omega_to_partition, partition_to_omega

__all__ = [
    "BranchEngine",
    "branch",
    "clear_cache",
    "select_pivot",
    "principal_highest_component",
    "cg_convolve",
    "highest_component",
    "lowest_component",
]


def select_pivot(w: DominantWeight) -> int:
    """Largest k with a_k > 0, so that w - w_k stays dominant."""
    for k in range(w.rank - 1, 0, -1):
        if w.coeffs[k - 1] > 0:
            return k
    raise ValueError("zero weight has no pivot")


class BranchEngine:
    """Memoized branching calculator.

    Entries are keyed by (n, blocks, lambda-partition) so every weight ever
    requested shares subproblems.  `pivot` selects which w_k is split off at
    each step ("largest" or "smallest" coefficient index); the result is the
    same either way, which the test suite checks, but distinct engines keep
    distinct caches so the comparison is honest.
    """

    def __init__(self, pivot: str = "largest", cache: dict | None = None):
        if pivot not in ("largest", "smallest"):
            raise ValueError(f"unknown pivot rule {pivot!r}")
        self.pivot = pivot
        self.cache: dict[tuple, MultVector] = {} if cache is None else cache
        self.stats = {"computed": 0, "hits": 0}

    def branch(self, t: SubalgebraType, w: DominantWeight) -> MultVector:
        """Multiplicity vector of Res L(w) restricted to the subalgebra of type t."""
        if w.rank != t.n:
            raise ValueError(f"weight rank {w.rank} does not match type {t} of sl_{t.n}")
        return dict(self._branch(t, omega_to_partition(w)))

    def _branch(self, t, lam):
        key = (t.n, t.blocks, lam)
        hit = self.cache.get(key)
        if hit is not None:
            self.stats["hits"] += 1
            return hit
        self.stats["computed"] += 1
        result = self._compute(t, lam)
        self.cache[key] = result
        return result

    def _compute(self, t, lam):
        n = t.n
        if not lam:
            return {0: 1}
        w = partition_to_omega(lam, n)
        support = [k for k in range(1, n) if w.coeffs[k - 1]]
        if len(support) == 1 and w.coeffs[support[0] - 1] == 1:
            return fundamental_branching(t, support[0])
        k = support[-1] if self.pivot == "largest" else support[0]
        prev_coeffs = list(w.coeffs)
        prev_coeffs[k - 1] -= 1
        prev = DominantWeight(n, tuple(prev_coeffs))
        result = cg_convolve(self._branch(t, omega_to_partition(prev)), fundamental_branching(t, k))
        for mu in pieri_set(prev, k):
            mu_lam = omega_to_partition(mu)
            if mu_lam == lam:
                continue
            result = mv_subtract(
                result, self._branch(t, mu_lam), context=f"branch({t}, {lam})"
            )
        return dict(sorted(result.items()))


_DEFAULT_ENGINE = BranchEngine()


def branch(t: SubalgebraType, w: DominantWeight) -> MultVector:
    """Res L(w) to the subalgebra of type t, via the shared process-wide cache."""
    return _DEFAULT_ENGINE.branch(t, w)


def clear_cache():
    """Forget every memoized branching: the shared engine's and the fundamentals'."""
    _DEFAULT_ENGINE.cache.clear()
    _FUND_CACHE.clear()


def principal_highest_component(w: DominantWeight) -> int:
    """Top component of Res L(w) to the principal subalgebra, in closed form.

    Summing lambda(H_alpha) over the positive roots gives
    sum_{i<j} (lambda_i - lambda_j) with lambda_n = 0.
    """
    n = w.rank
    lam = omega_to_partition(w)
    padded = list(lam) + [0] * (n - len(lam))
    return sum(padded[i] - padded[j] for i in range(n) for j in range(i + 1, n))
