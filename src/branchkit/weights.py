"""Dominant weights of sl_n and the weight <-> partition dictionary.

A dominant integral weight lambda = a_1 w_1 + ... + a_{n-1} w_{n-1} (w_i the
fundamental weights, a_i >= 0) corresponds to the partition of suffix sums
lambda_i = a_i + a_{i+1} + ... + a_{n-1}.  Partitions are plain tuples in
canonical form (weakly decreasing, no trailing zeros), so one type serves as
Young diagram shape, highest weight, and Jordan type alike.  The recursion core
works on the padded form (lambda_1, ..., lambda_n), lambda_n = 0, instead; a
DominantWeight carries it, built once when the weight is made, and
padded_partition only reads it.

Everything here is pure and exact; dimensions use Python's arbitrary
precision integers.
"""

from itertools import accumulate
from math import prod
from operator import ge, index, mul, sub

Partition = tuple[int, ...]


def canonical_partition(parts) -> Partition:
    """Validate an iterable of integers as a partition and strip trailing zeros."""
    p = tuple(map(index, parts))
    if p and min(p) < 0:
        raise ValueError(f"partition parts must be nonnegative, got {p}")
    if not all(map(ge, p, p[1:])):
        raise ValueError(f"partition parts must be weakly decreasing, got {p}")
    return p[: p.index(0)] if p and not p[-1] else p


def _check_rank(rank: int) -> None:
    """ValueError unless sl_rank has a weight lattice to speak of (rank >= 2)."""
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")


class _Frozen:
    """Base of the value classes: an instance sets its slots once, through
    object.__setattr__, and assigning or deleting one raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DominantWeight(_Frozen):
    """A dominant integral weight of sl_n in fundamental-weight coordinates.

    Immutable; equal, hashed, shown and pickled by (rank, coeffs) alone.
    """

    __slots__ = ("rank", "coeffs", "_padded")
    rank: int
    coeffs: tuple[int, ...]

    def __init__(self, rank: int, coeffs: tuple[int, ...]):
        rank, coeffs = index(rank), tuple(map(index, coeffs))
        _check_rank(rank)
        if len(coeffs) != rank - 1:
            raise ValueError(
                f"need {rank - 1} coefficients for rank {rank}, got {len(coeffs)}"
            )
        if min(coeffs) < 0:
            raise ValueError(f"weight {coeffs} is not dominant")
        _set(self, rank, coeffs, tuple(accumulate(reversed(coeffs), initial=0))[::-1])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rank, self.coeffs) == (other.rank, other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, self.coeffs))

    def __repr__(self):
        return f"{type(self).__qualname__}(rank={self.rank!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return type(self), (self.rank, self.coeffs)

    @classmethod
    def zero(cls, rank: int) -> "DominantWeight":
        return cls(rank, (0,) * (rank - 1))

    @classmethod
    def omega(cls, rank: int, k: int) -> "DominantWeight":
        """The k-th fundamental weight, 1 <= k <= rank - 1."""
        if not 1 <= k <= rank - 1:
            raise ValueError(f"omega index {k} out of range for rank {rank}")
        return cls(rank, tuple(1 if i == k else 0 for i in range(1, rank)))

    def __str__(self):
        terms = []
        for i, a in enumerate(self.coeffs, start=1):
            if a == 1:
                terms.append(f"w{i}")
            elif a > 1:
                terms.append(f"{a}w{i}")
        return " + ".join(terms) if terms else "0"


def _set(w, rank, coeffs, padded):
    """Fill a weight's three slots, once; returns it."""
    object.__setattr__(w, "rank", rank)
    object.__setattr__(w, "coeffs", coeffs)
    object.__setattr__(w, "_padded", padded)
    return w


def padded_partition(w: DominantWeight) -> Partition:
    """(lambda_1, ..., lambda_n) with lambda_n = 0: the suffix sums of w.coeffs, then 0."""
    return w._padded


def omega_to_partition(w: DominantWeight) -> Partition:
    """Canonical partition of w: its padded partition without trailing zeros."""
    lam = w._padded
    return lam[: lam.index(0)]


def partition_to_omega(parts, rank: int) -> DominantWeight:
    """Inverse dictionary: a_i = lambda_i - lambda_{i+1}.

    Accepts trailing zeros; raises if the partition needs more than rank - 1
    nonzero parts.
    """
    p = canonical_partition(parts)
    if len(p) > rank - 1:
        raise ValueError(f"partition {p} has too many parts for rank {rank}")
    padded = p + (0,) * (rank - len(p))
    _check_rank(rank := index(rank))
    return _set(object.__new__(DominantWeight), rank, tuple(map(sub, padded, padded[1:])), padded)


def dual_weight(w: DominantWeight) -> DominantWeight:
    """Highest weight of the dual representation: reverse the coefficients."""
    return DominantWeight(w.rank, w.coeffs[::-1])


def dim_irrep(w: DominantWeight) -> int:
    """Dimension of L(w) by the Weyl product, as an exact integer.

    With l_i = lambda_i + n - i (lambda_n = 0), the dimension is
    prod_{i<j} (l_i - l_j) / (j - i).  A pair of equal rows has
    l_i - l_j = j - i and contributes 1, so the product runs only over the
    pairs of distinct rows, whose upper row is nonzero.  The quotient is
    taken once at the end so all arithmetic stays integral; each side is a
    balanced product tree down to a few factors, since folding O(n^2) factors
    one at a time into a growing product costs about n^4 at large n.
    """
    n, lam = w.rank, w._padded
    num, den = [], []
    for i in range(lam.index(0)):
        for j in range(i + 1, n):
            if lam[i] != lam[j]:
                num.append(lam[i] - lam[j] + j - i)
                den.append(j - i)
    return _tree_prod(num) // _tree_prod(den)


def _tree_prod(xs: list[int]) -> int:
    """Product of xs by rounds of pairwise products, so that operands stay alike in
    size, while more than 32 are left or they outgrow 64 bits; one fold
    (math.prod), several times faster on a few small factors, takes the rest."""
    while len(xs) > 32 or len(xs) > 1 and xs[0] >> 64:
        xs = [*map(mul, xs[0::2], xs[1::2]), *xs[len(xs) - len(xs) % 2:]]
    return prod(xs)


def iter_partitions(total: int, max_parts: int | None = None):
    """Yield the partitions of `total` into at most max_parts parts, lex-descending."""
    if total < 0:
        return

    def rec(remaining, bound, slots):
        if remaining == 0:
            yield ()
            return
        if slots <= 1:  # the last slot takes the remainder, if it fits
            if slots and remaining <= bound:
                yield (remaining,)
            return
        for first in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(total, total, total if max_parts is None else max_parts)


def iter_dominant_weights(rank: int, max_boxes: int):
    """All dominant weights of sl_rank whose partition has at most max_boxes boxes.

    Ordered by box count, then lex-descending within each count.
    """
    _check_rank(rank)
    for boxes in range(max_boxes + 1):
        for p in iter_partitions(boxes, max_parts=rank - 1):
            yield partition_to_omega(p, rank)
