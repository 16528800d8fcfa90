"""Brute-force branching oracle: semistandard tableaux counted as chains of strips.

Semistandard Young tableaux of shape lambda with entries in 1..n index a
weight basis of L(lambda); a tableau's H-eigenvalue is the sum of
h_diagonal[entry - 1] over its boxes.  Counting all of them by weight and
applying dim V_j - dim V_{j+2} reproduces any branching from first
principles.  A tableau is a chain of horizontal strips, one per entry, so the
count runs as one loop over the entries that groups the tableaux by the
shape their smaller entries fill; nothing recurses and no tableau is built.

Deliberately independent of the recursion and the closed forms: it imports
nothing from fundamental or branching, only h_diagonal from subalgebra, the
partition dictionary from weights, and the dim-difference arithmetic
(mult_from_multiset) from sl2.
"""

from collections import Counter
from itertools import product

from .sl2 import MultVector, mult_from_multiset
from .subalgebra import SubalgebraType, h_diagonal
from .weights import DominantWeight, Partition, canonical_partition, omega_to_partition

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Tableau enumeration passed the configured cap."""


def tableau_weight_multiset(shape, values, budget: int | None = None) -> Counter:
    """Multiset of sum-of-values weights over all SSYT of the shape.

    values[i] is the contribution of entry i + 1; entries run over
    1..len(values).  A tableau is a chain of partitions nu(0) = () <= nu(1)
    <= ... <= nu(n) = shape, nu(v) holding its entries <= v, each step a
    horizontal strip (Macdonald I.(5.11)).  One pass per entry v maps each
    partial shape to {weight: number of partial tableaux}.  With rows counted
    from 0, a step mu -> nu keeps mu_i <= nu_i <= mu_{i-1} (the strip; rows
    from v on stay empty) and nu_i >= shape_{i+n-v}, so that every column of
    shape/nu still has room for the n - v larger entries.  Each kept state
    completes, so a level's partial count never exceeds the final count, and
    checking it against the budget raises exactly when the shape has more
    than `budget` tableaux.
    """
    shape = canonical_partition(shape)
    n, rows = len(values), len(shape)
    if rows > n:
        return Counter()
    lam = shape + (0,) * n
    states: dict = {(0,) * rows: {0: 1}}
    for v, h in enumerate(values, 1):
        live, pad, below = min(v, rows), (0,) * max(rows - v, 0), n - v
        moves, seen = [], 0
        for mu, weights in states.items():
            ranges = [
                range(max(mu[i], lam[i + below]), min(lam[i], mu[i - 1] if i else lam[0]) + 1)
                for i in range(live)
            ]
            moves.append((sum(mu), weights, ranges))
            if budget is not None:
                fan = sum(weights.values())
                for r in ranges:
                    fan *= len(r)
                seen += fan
        # seen is this level's partial count, known before its work is done
        if budget is not None and seen > budget:
            raise BudgetExceededError(
                f"more than {budget} tableaux of shape {shape} with entries <= {n}"
            )
        states = {}
        for size, weights, ranges in moves:
            for nu in product(*ranges):
                shift = h * (sum(nu) - size)
                nu += pad
                target = states.get(nu)
                if target is None:
                    states[nu] = {x + shift: c for x, c in weights.items()}
                else:
                    for x, c in weights.items():
                        target[x + shift] = target.get(x + shift, 0) + c
    return Counter(states.get(shape, {}))


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
