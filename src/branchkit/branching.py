"""Branching of arbitrary irreducibles L(lambda) by memoized recursion.

For lambda = lambda' + w_k the tensor product L(lambda') (x) L(w_k) restricts
in two ways: by the Pieri rule it is the sum of L(mu) over mu in
P(lambda', k), and block by block it is the Clebsch-Gordan convolution of
Res L(lambda') with Res L(w_k).  Equating the two and moving the lower Pieri
terms across gives every multiplicity of Res L(lambda).

All mu != lambda in P(lambda', k) are strictly lower in the lexicographic
order on partitions with a bounded first row, so the recursion bottoms out at
the fundamentals and the trivial weight.  One loop runs it over suspended steps,
so `branch` has no depth limit.  The engine works on padded partitions;
DominantWeight appears only in the public entry points.

The memo holds each Res L(lambda) as a packed integer, the positive half of
its Weyl numerator (qcomb), so a step is one multiply by the character of w_k,
packed as the wedge recurrence leaves it, a few folded terms, and one checked
subtraction per lower member.
The dict Clebsch-Gordan product and subtraction of sl2 run only when a check
finds a negative multiplicity, to name it; entries cross the engine's edges
(`branch`, `BranchEngine.cache`, cache files) as {j: m_j} dicts.
"""

from math import comb

from .fundamental import _fundamental, fundamental_branching, wedge_character
from .pieri import pieri_set
from .qcomb import digits, fold, guard_mask, pack, width
from .sl2 import InternalConsistencyError, MultVector, cg_convolve, mv_subtract
from .subalgebra import SubalgebraType
from .weights import DominantWeight, Partition, dim_irrep, padded_partition

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


class _TooNarrow(Exception):
    """A packed value has no room at the engine's digit width."""


class BranchEngine:
    """Memoized branching calculator.

    Entries are keyed by (n, blocks, lambda-partition without trailing zeros),
    the form cache files store, so every weight ever requested shares
    subproblems.  `pivot` selects which w_k is split off at each step
    ("largest" or "smallest" coefficient index); the result is the same
    either way, which the test suite checks, but distinct engines keep
    distinct caches so the comparison is honest.

    Inside, a memo value is the packed Weyl numerator P = sum_j m_j Q^{j+1}
    of qcomb at one width per engine, whose every digit keeps its top bit
    clear.  The character of w_k comes packed from the wedge recurrence
    (fundamental.wedge_character), and L(w_k) is one fold of the trivial
    numerator Q by it.  A step multiplies P(lambda') by it (qcomb.fold) and
    subtracts the lower Pieri members one by one, each checked by a sign test
    and one AND against the digits' top bits.  Before the multiply one AND
    certifies that every digit of P(lambda') is below 2**(8w - 1 - b), b the
    bit length of C(n, k) = dim L(w_k), so that no product digit carries.  A
    value that does not fit repacks the memo at double the width and restarts
    the query; the width a query starts from, read off dim L(lambda), is only
    a first guess.  Dicts from cache= or `cache` are checked and packed on first
    use, the queried weight's own included.  `branch` keeps each answer it
    decoded beside the memo, so a repeat is a dict copy.
    """

    def __init__(self, pivot: str = "largest", cache: dict | None = None):
        if pivot not in ("largest", "smallest"):
            raise ValueError(f"unknown pivot rule {pivot!r}")
        self.pivot = pivot
        self.cache = {} if cache is None else cache
        self.stats = {"computed": 0, "hits": 0}

    @property
    def cache(self) -> dict[tuple, MultVector]:
        """A copy of the memo with every value a {j: m_j} dict; assign to replace it."""
        return {
            key: self._unpack(v) if isinstance(v, int) else dict(v) for key, v in self._memo.items()
        }

    @cache.setter
    def cache(self, entries: dict[tuple, MultVector]):
        self._memo: dict = dict(entries)  # packed values, and unchecked dicts from outside
        self._answers: dict = {}  # key -> the decoded answer `branch` returned for it
        self._w = 1
        self._chars: dict = {}  # (blocks, k) -> (packed character of w_k, its top, guard bits)
        self._masks: dict = {}  # guard bits -> guard_mask at width _w

    def branch(self, t: SubalgebraType, w: DominantWeight) -> MultVector:
        """Multiplicity vector of Res L(w) restricted to the subalgebra of type t."""
        if w.rank != t.n:
            raise ValueError(f"weight rank {w.rank} does not match type {t} of sl_{t.n}")
        lam = padded_partition(w)
        rows = lam.index(0)
        key = (t.n, t.blocks, lam[:rows])
        mv = self._answers.get(key)
        if mv is not None:
            self.stats["hits"] += 1
            return dict(mv)
        if key not in self._memo:
            self._widen(width(dim_irrep(w) * comb(t.n, min(rows, t.n - rows))))
        while True:
            try:
                p = self._solve(t, lam)
                break
            except _TooNarrow:  # suspended steps hold values at the old width
                self._widen(2 * self._w)
        mv = self._answers[key] = self._unpack(p)
        return dict(mv)

    def _solve(self, t, lam):
        p = self._get(t, lam)
        steps = [] if p is not None else [self._step(t, lam)]
        while steps:  # suspended steps on a list, not the call stack: no depth limit
            p = steps[-1].send(p)
            if isinstance(p, int):  # a step's last yield: its own value
                next(steps.pop(), None)  # finish it: closing a suspended one throws GeneratorExit
            else:  # a weight the memo lacks: start its step
                steps.append(self._step(t, p))
                p = None
        return p

    def _get(self, t, lam):
        key = (t.n, t.blocks, lam[: lam.index(0)])
        p = self._memo.get(key)
        self.stats["computed" if p is None else "hits"] += 1
        if p is not None and not isinstance(p, int):  # a {j: m_j} dict from cache=
            if not all(j >= 0 and isinstance(m, int) and m >= 1 for j, m in p.items()):
                raise ValueError(f"cache entry {key} is not a dict of j >= 0 to m_j >= 1: {p!r}")
            p = self._memo[key] = self._pack(p)
        return p

    def _step(self, t, lam):
        """Yields each weight it needs that the memo lacks, is sent its value, yields its own."""
        if lam[0] == 0:
            r = self._pack({0: 1})
        elif lam[0] == 1:  # L(w_k) is L(0) (x) L(w_k): no digit of Q carries
            c, top, _ = self._character(t, lam.index(0))
            r = fold(1 << 8 * self._w, c, top, self._w)
        else:
            k = select_pivot(lam, largest=self.pivot == "largest")
            prev = tuple(x - 1 for x in lam[:k]) + lam[k:]
            if (p := self._get(t, prev)) is None:
                p = yield prev
            lower = []
            for mu in pieri_set(prev, k):
                if mu != lam:
                    m = self._get(t, mu)
                    lower.append(m if m is not None else (yield mu))
            c, top, guard = self._character(t, k)
            if p & self._mask(guard, p.bit_length()):
                raise _TooNarrow
            r = fold(p, c, top, self._w)
            sign = self._mask(1, r.bit_length())
            # each member is nonnegative with its top bits clear, so r's digits
            # stay exact and a negative one shows at once; a sum of wrong cache
            # entries could carry across digits and hide it
            for m in lower:
                r -= m
                if r < 0 or r & sign:
                    r = self._by_dicts(t, lam, p, k, lower)
                    break
        self._memo[t.n, t.blocks, lam[: lam.index(0)]] = r
        yield r

    def _by_dicts(self, t, lam, p, k, lower):
        """The step on {j: m_j} dicts, which names the negative multiplicity."""
        total: MultVector = {}
        for m in lower:
            for j, x in self._unpack(m).items():
                total[j] = total.get(j, 0) + x
        product = cg_convolve(self._unpack(p), fundamental_branching(t, k))
        try:
            return self._pack(mv_subtract(product, total))
        except InternalConsistencyError as err:
            raise InternalConsistencyError(f"{err} in branch({t}, {lam[: lam.index(0)]})") from None

    def _character(self, t, k):
        key = (t.blocks, k)
        hit = self._chars.get(key)
        if hit is None:
            dim = comb(t.n, k)
            if width(dim) > self._w:
                raise _TooNarrow
            hit = self._chars[key] = (*wedge_character(t, k, self._w), dim.bit_length() + 1)
        return hit

    def _mask(self, bits, length):
        mask = self._masks.get(bits, 0)
        if mask.bit_length() < length:
            mask = self._masks[bits] = guard_mask(self._w, bits, 2 * length)
        return mask

    def _pack(self, mv):
        if width(max(mv.values(), default=0)) > self._w:
            raise _TooNarrow
        return pack(mv, self._w, 1)

    def _unpack(self, p):
        return {j: m for j, m in enumerate(digits(p, self._w), -1) if m}

    def _widen(self, w):
        """Repack every packed memo value at width w, if that is wider."""
        if w <= self._w:
            return
        unpacked = {key: self._unpack(v) for key, v in self._memo.items() if isinstance(v, int)}
        self._w = w
        self._chars.clear()
        self._masks.clear()
        for key, mv in unpacked.items():
            self._memo[key] = self._pack(mv)


_DEFAULT_ENGINE = BranchEngine()


def branch(t: SubalgebraType, w: DominantWeight) -> MultVector:
    """Res L(w) to the subalgebra of type t, via the shared process-wide cache."""
    return _DEFAULT_ENGINE.branch(t, w)


def clear_cache():
    """Forget every memoized branching: the shared engine's and the fundamentals'."""
    _DEFAULT_ENGINE.cache = {}
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
