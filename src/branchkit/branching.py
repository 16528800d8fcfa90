"""Branching of arbitrary irreducibles L(lambda) by memoized recursion.

For lambda = lambda' + w_k the tensor product L(lambda') (x) L(w_k) restricts
in two ways: by the Pieri rule it is the sum of L(mu) over mu in
P(lambda', k), and block by block it is the Clebsch-Gordan convolution of
Res L(lambda') with Res L(w_k).  Equating the two and moving the lower Pieri
terms across gives every multiplicity of Res L(lambda).

All mu != lambda in P(lambda', k) are strictly lower in the lexicographic
order on partitions with a bounded first row, so the recursion bottoms out at
the fundamental representations and the trivial weight.  The engine works on
padded partitions (`weights.padded_partition`); DominantWeight appears only in
the public entry points.
"""

from .fundamental import _fundamental, fundamental_branching
from .pieri import pieri_set
from .sl2 import InternalConsistencyError, MultVector, cg_convolve, mv_subtract
from .subalgebra import SubalgebraType
from .weights import DominantWeight, Partition, padded_partition

__all__ = [
    "BranchEngine",
    "branch",
    "clear_cache",
    "select_pivot",
    "principal_highest_component",
]


def select_pivot(lam: Partition, largest: bool = True) -> int:
    """Largest (its row count) or smallest (its first descent) k with a_k > 0 in padded lam."""
    if not lam[0]:
        raise ValueError("zero weight has no pivot")
    if largest:
        return lam.index(0)
    return next(k for k in range(1, len(lam)) if lam[k - 1] > lam[k])


class BranchEngine:
    """Memoized branching calculator.

    Entries are keyed by (n, blocks, lambda-partition without trailing zeros),
    the form cache files store, so every weight ever requested shares
    subproblems.  `pivot` selects which w_k is split off at each step
    ("largest" or "smallest" coefficient index); the result is the same
    either way, which the test suite checks, but distinct engines keep
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
        return dict(self._branch(t, padded_partition(w)))

    def _branch(self, t, lam):
        key = (t.n, t.blocks, lam[: lam.index(0)])
        hit = self.cache.get(key)
        if hit is not None:
            self.stats["hits"] += 1
            return hit
        self.stats["computed"] += 1
        result = self._compute(t, lam)
        self.cache[key] = result
        return result

    def _compute(self, t, lam):
        if lam[0] == 0:
            return {0: 1}
        if lam[0] == 1:
            return fundamental_branching(t, lam.index(0))
        k = select_pivot(lam, largest=self.pivot == "largest")
        prev = tuple(x - 1 for x in lam[:k]) + lam[k:]
        product = cg_convolve(self._branch(t, prev), fundamental_branching(t, k))
        # every lower member is nonnegative, so subtracting their sum fails
        # exactly when subtracting them one by one would
        lower: MultVector = {}
        for mu in pieri_set(prev, k):
            if mu != lam:
                for j, m in self._branch(t, mu).items():
                    lower[j] = lower.get(j, 0) + m
        try:
            return mv_subtract(product, lower)
        except InternalConsistencyError as err:
            raise InternalConsistencyError(f"{err} in branch({t}, {lam[: lam.index(0)]})") from None


_DEFAULT_ENGINE = BranchEngine()


def branch(t: SubalgebraType, w: DominantWeight) -> MultVector:
    """Res L(w) to the subalgebra of type t, via the shared process-wide cache."""
    return _DEFAULT_ENGINE.branch(t, w)


def clear_cache():
    """Forget every memoized branching: the shared engine's and the fundamentals'."""
    _DEFAULT_ENGINE.cache.clear()
    _fundamental.cache_clear()


def principal_highest_component(w: DominantWeight) -> int:
    """Top component of Res L(w) to the principal subalgebra, in closed form.

    Summing lambda(H_alpha) over the positive roots gives
    sum_{i<j} (lambda_i - lambda_j) with lambda_n = 0.  Row i (from 0) is
    added for the n - 1 - i rows below it and subtracted for the i above, so
    the sum is sum_i lambda_i (n - 1 - 2i), linear in n.
    """
    n = w.rank
    return sum(x * (n - 1 - 2 * i) for i, x in enumerate(padded_partition(w)))
