"""Vertical-strip Pieri sets on padded partitions.

Tensoring L(lambda) with the wedge power L(w_k) decomposes multiplicity-free
over the set P(lambda, k): add k boxes to the Young diagram of lambda, at
most one per row (rows 1..n, row n starting empty), keep the results that
are still diagrams, and remove the full column of height n whenever row n
received a box (the determinant twist e_1 + ... + e_n = 0).  Weights are
padded partitions (lambda_1, ..., lambda_n), lambda_n = 0, of length n.
The set is built row by row in one loop, so no rank is too deep for it, and
pieri_size counts it without building it.
"""

from itertools import accumulate, groupby

from .weights import Partition


def pieri_set(lam: Partition, k: int) -> set[Partition]:
    """All padded partitions obtained from lam by adding a k-box vertical strip.

    One pass over the rows extends every partial diagram of the rows above,
    each carried with the number of boxes still to place: the row keeps its
    length, or grows by one box if that does not pass the new length of the
    row above; a partial diagram with more boxes left than rows left is
    dropped.  Distinct strips give distinct reduced partitions, so the set
    size equals the number of strips.
    """
    n = len(lam)
    if not 1 <= k <= n - 1:
        raise ValueError(f"strip size {k} out of range for rank {n}")
    partial = [((), k)]
    for row, x in enumerate(lam):
        rows_left = n - 1 - row
        grown = []
        for acc, left in partial:
            if left <= rows_left:
                grown.append((acc + (x,), left))
            if left and (not acc or x < acc[-1]):
                grown.append((acc + (x + 1,), left - 1))
        partial = grown
    # row n got a box: full column of height n, subtract it off
    return {tuple(y - mu[-1] for y in mu) if mu[-1] else mu for mu, _ in partial}


def pieri_size(lam: Partition, k: int, cap: int) -> int:
    """|pieri_set(lam, k)| if it is at most cap, else cap + 1, without building the set.

    Row i may grow only if row i - 1 grew or lam_{i-1} > lam_i, so in a run of
    b equal rows the rows that grow are the run's top s, 0 <= s <= b.  A member
    is one such s per run, the s summing to k, so |P(lam, k)| is the
    coefficient of z^k in the product of 1 + z + ... + z^b over the runs.  The
    product is taken run by run from the top, keeping the coefficient of z^d
    only while d <= k and the rows below can still take the k - d boxes left.
    They can take each such number in at least one way, so |P(lam, k)| is at
    least the sum of the coefficients kept, and the count stops as soon as
    that sum passes cap.
    """
    n = len(lam)
    if not 1 <= k <= n - 1:
        raise ValueError(f"strip size {k} out of range for rank {n}")
    low, counts, below = 0, [1], n  # counts[i]: the ways the runs so far hold low + i boxes
    for _, run in groupby(lam):
        b = sum(1 for _ in run)
        below -= b
        sums = list(accumulate(counts, initial=0))
        start, end = max(low, k - below), min(low + len(counts) - 1 + b, k)
        counts = [sums[min(d - low + 1, len(counts))] - sums[max(d - low - b, 0)]
                  for d in range(start, end + 1)]
        low = start
        if sum(counts) > cap:
            return cap + 1
    return counts[0]


def lex_max_member(lam: Partition, k: int) -> Partition:
    """lambda + w_k: one box into each of rows 1..k, the lex maximum of the Pieri set."""
    n = len(lam)
    if not 1 <= k <= n - 1:
        raise ValueError(f"strip size {k} out of range for rank {n}")
    return tuple(x + 1 for x in lam[:k]) + lam[k:]
