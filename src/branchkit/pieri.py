"""Vertical-strip Pieri sets on padded partitions.

Tensoring L(lambda) with the wedge power L(w_k) decomposes multiplicity-free
over the set P(lambda, k): add k boxes to the Young diagram of lambda, at
most one per row (rows 1..n, row n starting empty), keep the results that
are still diagrams, and remove the full column of height n whenever row n
received a box (the determinant twist e_1 + ... + e_n = 0).  Weights are
padded partitions (lambda_1, ..., lambda_n), lambda_n = 0, of length n.
"""

from .weights import Partition


def pieri_set(lam: Partition, k: int) -> set[Partition]:
    """All padded partitions obtained from lam by adding a k-box vertical strip.

    Enumerates the row subsets receiving a box in row order, pruning choices
    that break weak decrease or cannot place the remaining boxes.  Distinct
    subsets give distinct reduced partitions, so the set size equals the
    number of valid subsets.
    """
    n = len(lam)
    if not 1 <= k <= n - 1:
        raise ValueError(f"strip size {k} out of range for rank {n}")

    out: set[Partition] = set()

    def place(row, prev, left, acc):
        if n - row < left:
            return
        if row == n:
            mu = acc
            if mu[-1]:
                # row n got a box: full column of height n, subtract it off
                mu = tuple(x - mu[-1] for x in mu)
            out.add(mu)
            return
        if lam[row] <= prev:
            place(row + 1, lam[row], left, acc + (lam[row],))
        if left and lam[row] + 1 <= prev:
            place(row + 1, lam[row] + 1, left - 1, acc + (lam[row] + 1,))

    place(0, lam[0] + 1, k, ())
    return out


def lex_max_member(lam: Partition, k: int) -> Partition:
    """lambda + w_k: one box into each of rows 1..k, the lex maximum of the Pieri set."""
    n = len(lam)
    if not 1 <= k <= n - 1:
        raise ValueError(f"strip size {k} out of range for rank {n}")
    return tuple(x + 1 for x in lam[:k]) + lam[k:]
