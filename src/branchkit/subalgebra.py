"""sl_2 subalgebras of sl_n, classified by Jordan type.

Up to SL_n-conjugacy an sl_2 subalgebra is determined by the Jordan block
sizes [d_1 >= d_2 >= ... >= d_m] of its nilpotent element, a partition of n
with some d_i >= 2 (the all-ones partition is the zero nilpotent and gives no
subalgebra).  The semisimple generator H is block diagonal with block
diag(d-1, d-3, ..., -(d-1)); its diagonal is the only data the branching
engine consumes, but the full (H, X, Y) triple can be built for self tests
and export.
"""

from operator import index

from .weights import _Frozen, iter_partitions


class SubalgebraType(_Frozen):
    """Jordan type of an sl_2 subalgebra; blocks are stored canonically sorted.

    Immutable.  n, the rank sum(blocks), is stored once; it takes no part in
    equality, hashing, repr or pickling, which see the blocks alone.
    """

    __slots__ = ("blocks", "n")
    blocks: tuple[int, ...]
    n: int

    def __init__(self, blocks: tuple[int, ...]):
        b = tuple(sorted(map(index, blocks), reverse=True))
        if not b or b[-1] < 1:
            raise ValueError(f"block sizes must be positive integers, got {b}")
        if b[0] < 2:
            raise ValueError(
                f"type {list(b)} has only unit blocks (zero nilpotent); no sl_2 subalgebra"
            )
        object.__setattr__(self, "blocks", b)
        object.__setattr__(self, "n", sum(b))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.blocks == other.blocks
        return NotImplemented

    def __hash__(self):
        return hash((self.blocks,))

    def __repr__(self):
        return f"{type(self).__qualname__}(blocks={self.blocks!r})"

    def __getstate__(self):
        return {"blocks": self.blocks}

    def __setstate__(self, state):
        object.__setattr__(self, "blocks", state["blocks"])
        object.__setattr__(self, "n", sum(state["blocks"]))

    def __str__(self):
        return "[" + ",".join(str(d) for d in self.blocks) + "]"


def h_diagonal(t: SubalgebraType) -> tuple[int, ...]:
    """Diagonal of H: per block of size d the string d-1, d-3, ..., -(d-1)."""
    out = []
    for d in t.blocks:
        out.extend(range(d - 1, -d, -2))
    return tuple(out)


def build_triple(t: SubalgebraType) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Integer matrices (H, X, Y) generating the subalgebra, each a tuple of
    n rows, each row a tuple of n ints.

    Per block of size r: H_r = diag(r-1, r-3, ..., -(r-1)), X_r has ones on
    the superdiagonal, and Y_r has i(r-i) at subdiagonal position (i+1, i) --
    exactly the entries that make [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H hold.
    """
    n = t.n
    H = [[0] * n for _ in range(n)]
    X = [[0] * n for _ in range(n)]
    Y = [[0] * n for _ in range(n)]
    for i, h in enumerate(h_diagonal(t)):
        H[i][i] = h
    offset = 0
    for r in t.blocks:
        for i in range(1, r):
            X[offset + i - 1][offset + i] = 1
            Y[offset + i][offset + i - 1] = i * (r - i)
        offset += r
    return tuple(tuple(map(tuple, m)) for m in (H, X, Y))


def is_principal(t: SubalgebraType) -> bool:
    """True iff the nilpotent element is regular (a single Jordan block)."""
    return len(t.blocks) == 1


def all_types(n: int) -> list[SubalgebraType]:
    """Every sl_2 subalgebra type of sl_n, lex-descending ([n] first)."""
    return [
        SubalgebraType(p)
        for p in iter_partitions(n)
        if any(d >= 2 for d in p)
    ]
