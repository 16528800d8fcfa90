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

The memo is one dict per type, keyed by the padded partition, and holds each
Res L(lambda) as a packed integer, the positive half of its Weyl numerator
(qcomb).  A lookup that misses the trivial weight or a fundamental computes it
at once; any other weight takes a step: one multiply by the character of w_k,
packed as the wedge recurrence leaves it, a few folded terms, and one checked
subtraction per lower member.  Which k, lambda' and lower members a step uses
depends on lambda and the pivot rule alone, so a step reads them with one
dict.get from the process-wide shape table of its pivot rule (_shapes), keyed
by the padded lambda.  A step that misses builds them: select_pivot, lambda
minus the column, and the lower members from the process-wide strip table
(_strips, read through _lower_strips), keyed by k and the equal adjacent rows
of lambda', so pieri_set runs once per such pattern, not once per step or
engine; a query stops adding shapes once those it added pass a quarter of its
table's bound, so a query too big to fit neither churns the table nor keeps
its shapes alive.  The character, its top weight and guard bits come from the
table _characters, keyed by (blocks, k, width), and the guard masks from
_guard_masks, keyed by (width, guard bits, a power of two of length), so
wedge_character runs once per key in the process, not once per engine.
All five tables are one class, _Table: bounded in bytes, oldest value dropped
first, nothing over a quarter of the bound kept.  Every engine may share them,
since an entry is fixed by its key (width included) and holds no answer.
The dict Clebsch-Gordan product and subtraction of sl2 run only when a check
finds a negative multiplicity, to name it; entries cross the engine's edges
(`branch`, `BranchEngine.cache`, cache files) as {j: m_j} dicts, checked by _admit.
"""

from collections import deque
from itertools import accumulate
from math import comb
from operator import add, eq, sub
from sys import getsizeof

from .fundamental import _fundamental, fundamental_branching, wedge_character
from .pieri import lex_max_member, pieri_set
from .qcomb import digits, fold, guard_mask, pack, width
from .sl2 import InternalConsistencyError, MultVector, cg_convolve, mv_subtract
from .subalgebra import SubalgebraType
from .weights import DominantWeight, Partition, canonical_partition, dim_irrep, padded_partition

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

    The memo holds one dict per type (n, blocks), keyed by the padded
    partition lambda, so every weight ever requested shares subproblems and a
    lookup is one dict.get.  At the edges (`branch`'s answers, `cache`, cache
    files) an entry is keyed (n, blocks, lambda without trailing zeros).
    `pivot` selects which w_k is split off at each step ("largest" or
    "smallest" coefficient index); the result is the same either way, which
    the test suite checks, but distinct engines keep distinct caches so the
    comparison is honest.

    Inside, a memo value is the packed Weyl numerator P = sum_j m_j Q^{j+1}
    of qcomb at one width per engine, whose every digit keeps its top bit
    clear.  The character of w_k comes packed from the wedge recurrence
    (fundamental.wedge_character), and L(w_k) is one fold of the trivial
    numerator Q by it; a lookup that misses a leaf (lambda_1 <= 1) computes
    it on the spot, so only lambda_1 >= 2 takes a step.  A step multiplies
    P(lambda') by the character (qcomb.fold) and subtracts the lower Pieri
    members one by one, each checked by a sign test and one AND against the
    digits' top bits.  k, lambda' and the members come from the process-wide
    shape table of the engine's pivot rule (_shapes), and a step that misses
    it builds them from the strip table (_strips); both hold only the Pieri
    rule, no answer, so every engine shares them.  The character and the
    guard masks come from the process-wide tables _characters and
    _guard_masks once per engine and width (the engine keeps what it read in
    _chars and _masks until it widens): an entry is fixed by its key, width
    included, and holds no answer, so every engine shares them too.  All of
    these tables are bounded in bytes (see _Table).  Before the multiply one
    AND certifies that every digit of P(lambda') is below 2**(8w - 1 - b), b
    the bit length of C(n, k) = dim L(w_k), so that no product digit carries.
    A value that does not fit repacks the memo at double the width and
    restarts the query; the width a query starts from, read off dim
    L(lambda), is only a first guess.  Assigning cache= or `cache` checks
    every entry at once (see _admit), so that a rejected assignment leaves
    the engine as it was; each dict is copied, and packed when a query first
    uses it.  `branch` keeps each answer it decoded beside the memo, so a
    repeat is a dict copy.
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
            (n, blocks, lam[: lam.index(0)]): self._unpack(v) if isinstance(v, int) else dict(v)
            for (n, blocks), memo in self._memos.items()
            for lam, v in memo.items()
        }

    @cache.setter
    def cache(self, entries: dict[tuple, MultVector]):
        memos: dict = {}  # (n, blocks) -> padded lambda -> packed value, or checked dict
        for key, mv in entries.items():
            memo, lam = _admit(memos, key, mv)
            memo[lam] = dict(mv)
        self._memos = memos
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
        memo = self._memos.setdefault(key[:2], {})
        if lam not in memo:
            self._widen(width(dim_irrep(w) * comb(t.n, min(rows, t.n - rows))))
        self._room = _shapes[self.pivot].bound // 4  # bytes of shapes this query may still add
        while True:
            try:
                p = self._solve(t, memo, lam)
                break
            except _TooNarrow:  # suspended steps hold values at the old width
                self._widen(2 * self._w)
        mv = self._answers[key] = self._unpack(p)
        return dict(mv)

    def _solve(self, t, memo, lam):
        p = self._get(t, memo, lam)
        if p is not None:
            return p
        shapes = _shapes[self.pivot]
        steps = [self._step(t, memo, shapes, lam)]
        while steps:  # suspended steps on a list, not the call stack: no depth limit
            p = steps[-1].send(p)
            if isinstance(p, int):  # a step's last yield: its own value
                next(steps.pop(), None)  # finish it: closing a suspended one throws GeneratorExit
            else:  # a weight the memo lacks: start its step
                steps.append(self._step(t, memo, shapes, p))
                p = None
        return p

    def _get(self, t, memo, lam):
        """The packed value of lam, or None if it takes a step; a leaf is computed here."""
        p = memo.get(lam)
        if p is None:
            self.stats["computed"] += 1
            if lam[0] > 1:
                return None
            p = 1 << 8 * self._w  # Q, the numerator of L(0)
            if lam[0]:  # L(w_k) is L(0) (x) L(w_k): no digit of Q carries
                c, top, _ = self._character(t, lam.index(0))
                p = fold(p, c, top, self._w)
            memo[lam] = p
            return p
        self.stats["hits"] += 1
        if not isinstance(p, int):  # a {j: m_j} dict from cache=, checked when assigned
            p = memo[lam] = self._pack(p)
        return p

    def _step(self, t, memo, shapes, lam):
        """Yields each weight it needs that the memo lacks, is sent its value, yields its own."""
        shape = shapes.entries.get(lam)
        if shape is None:
            shapes.misses += 1
            k = select_pivot(lam, largest=self.pivot == "largest")
            prev = tuple(map(sub, lam, (1,) * k + (0,) * (len(lam) - k)))
            members = self._add_shape(shapes, lam, k, prev) if self._room >= 0 else None
        else:
            k, prev, members = shape
        if (p := self._get(t, memo, prev)) is None:
            p = yield prev
        # past the query's room the step reads the strips and forms each member
        # when it is needed: a tuple of members formed up front, or a generator
        # or map over the strips, would outlive the steps below, and each object
        # that does brings the next garbage collection nearer
        strips = members is None
        if strips:
            members = _lower_strips(k, *map(eq, prev, prev[1:]))
        lower = []
        for mu in members:
            if strips:
                mu = tuple(map(add, prev, mu))
            m = self._get(t, memo, mu)
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
        memo[lam] = r
        yield r

    def _add_shape(self, shapes, lam, k, prev):
        """The members of P(prev, k) but lam, as padded partitions: (k, prev,
        members) goes to shapes, and its size off the query's room.  The size
        is what sys.getsizeof counts: lam, prev and each member are tuples as
        long as lam, and their parts are at most lam_1 + 1, so once lam_1
        passes CPython's cached small ints each part is counted as one more
        int that large."""
        strips = _lower_strips(k, *map(eq, prev, prev[1:]))
        members = tuple([tuple(map(add, prev, d)) for d in strips])
        part = getsizeof(lam[0] + 1) if lam[0] > 255 else 0
        row = getsizeof(lam) + len(lam) * part
        size = _SHAPE_SLOT + getsizeof(members) + (2 + len(members)) * row
        self._room -= size
        shapes.put(lam, size, (k, prev, members))
        return members

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
            hit = self._chars[key] = _shared_character(t, k, self._w, dim)
        return hit

    def _mask(self, bits, length):
        mask = self._masks.get(bits, 0)
        if mask.bit_length() < length:
            mask = self._masks[bits] = _shared_mask(self._w, bits, length)
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
        unpacked = [
            (memo, lam, self._unpack(v))
            for memo in self._memos.values()
            for lam, v in memo.items()
            if isinstance(v, int)
        ]
        self._w = w
        self._chars.clear()
        self._masks.clear()
        for memo, lam, mv in unpacked:
            memo[lam] = self._pack(mv)


class _Table:
    """Values by key, at most `bound` bytes in all as their callers size them,
    the oldest value dropped first; a value of more than a quarter of the bound
    is not kept, and a key keeps the value it holds.  Hot readers take
    entries.get and count their own misses; get counts hits and misses for the
    others.  evictions counts the values dropped.  The tableau oracle's plan
    table is its own class, since the oracle that checks the recursion shares
    no code with it."""

    def __init__(self, bound: int):
        self.bound, self.size, self.entries = bound, 0, {}
        self.order = deque()  # (key, size), oldest first
        self.hits = self.misses = self.evictions = 0

    def get(self, key):
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, size: int, value):
        """value, kept under key if it is small enough and key holds none."""
        if size <= self.bound // 4 and key not in self.entries:
            self.entries[key] = value
            self.order.append((key, size))
            self.size += size
            while self.size > self.bound:
                dropped, dropped_size = self.order.popleft()
                del self.entries[dropped]
                self.size -= dropped_size
                self.evictions += 1
        return value


# Every table holds structure that engines of every type and width share, no
# answer.  A 20 s run of the recursion benchmark (seed 7, 2520 fresh engines)
# fills them with 847 characters (21 KB), 135 masks (60 KB), 3919 shapes of
# the largest pivot (2.7 MB) and 273 strip patterns (161 KB), and drops
# nothing.  Principal sl_300's w_150 alone takes 1.7 MB, and is not kept;
# principal sl_3 (600, 300) takes 68k steps, and adds shapes only until they
# fill a quarter of the bound.  sl_13 [6, 4, 2, 1] (20, 15, 10, 5, 3, 1) reads
# 207 strip patterns, 330 KB; one pattern of sl_14 with all rows distinct
# takes about 550 KB, and still fits.
_characters = _Table(2**20)
_guard_masks = _Table(2**20)
_shapes = {"largest": _Table(3 * 2**20), "smallest": _Table(3 * 2**20)}
_strips = _Table(2**22)

# per shape, besides its tuples of parts: its dict slot and (key, size) entry
# in the table's order (at most 120 bytes at any fill, churn included, by
# tracemalloc), the (k, lambda', members) tuple and the size
_SHAPE_SLOT = 120 + getsizeof((0, 0, 0)) + getsizeof(2**20)


def _shared_character(t, k, w, dim):
    """(packed character of w_k at width w, its top, guard bits): wedge_character
    plus the bit length of dim = C(n, k), from the process-wide table."""
    key = (t.blocks, k, w)
    hit = _characters.get(key)
    if hit is None:
        c, top = wedge_character(t, k, w)
        hit = _characters.put(key, c.bit_length() // 8, (c, top, dim.bit_length() + 1))
    return hit


def _shared_mask(w, bits, length):
    """guard_mask(w, bits, .) over at least twice length bits, from the
    process-wide table: one mask per power of two of length, so no key's mask
    ever grows."""
    key = (w, bits, length.bit_length())
    mask = _guard_masks.get(key)
    if mask is None:
        mask = guard_mask(w, bits, 2 << key[2])
        _guard_masks.put(key, mask.bit_length() // 8, mask)
    return mask


def _lower_strips(k: int, *eqs: bool) -> tuple[tuple[int, ...], ...]:
    """mu - lambda' for each mu in P(lambda', k) but lambda' + w_k, where eqs
    tells which adjacent rows of the padded lambda' are equal, from the
    process-wide table.

    A vertical strip puts a box in row i > 0 only where lambda'_{i-1} >
    lambda'_i or row i - 1 gets one too, and a box in row n takes off the full
    column, so these differences depend on lambda' only through k and eqs: they
    are read off a representative whose row i counts the unequal adjacent
    pairs below it.  Tuples, since every engine shares each entry.
    """
    key = k, eqs
    strips = _strips.get(key)
    if strips is None:
        rep = tuple(accumulate((not e for e in reversed(eqs)), initial=0))[::-1]
        top = lex_max_member(rep, k)
        strips = tuple(tuple(map(sub, mu, rep)) for mu in pieri_set(rep, k) if mu != top)
        _strips.put(key, getsizeof(key) + getsizeof(eqs) + getsizeof(strips)
                    + sum(map(getsizeof, strips)), strips)
    return strips


def _admit(memos, key, mv):
    """The memo of key's type in memos, made on first use, and key's lambda padded
    to n rows.  ValueError names the key unless it is (n, blocks, lambda) as
    `branch` looks it up (blocks a type of sl_n, lambda a partition of fewer than
    n parts without trailing zeros) and mv a non-empty dict of int j >= 0 to int m_j >= 1."""
    try:
        n, blocks, lam = key
        memo = memos.get((n, blocks))
        if memo is None:  # once per type
            t = SubalgebraType(blocks)
            if t.blocks != blocks or t.n != n:
                raise ValueError(f"{blocks} does not name a type of sl_{n} as {t}")
            memo = memos[t.n, t.blocks] = {}
        part = canonical_partition(lam)
        if part != lam or len(part) >= n:
            raise ValueError(f"{lam} needs fewer than {n} parts, none zero")
        lam = part + (0,) * (n - len(part))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cache entry {key!r} is not keyed (n, blocks, lambda) as "
                         f"branch looks it up: {exc}") from None
    if not (isinstance(mv, dict) and set(map(type, mv)) == {int} == set(map(type, mv.values()))
            and min(mv) >= 0 and min(mv.values()) >= 1):
        raise ValueError(f"cache entry {key!r} is not a non-empty dict of j >= 0 to m_j >= 1: "
                         f"{mv!r}")
    return memo, lam


_DEFAULT_ENGINE = BranchEngine()


def branch(t: SubalgebraType, w: DominantWeight) -> MultVector:
    """Res L(w) to the subalgebra of type t, via the shared process-wide cache."""
    return _DEFAULT_ENGINE.branch(t, w)


def clear_cache():
    """Forget every memoized branching: the shared engine's and the fundamentals'.

    The process-wide tables of branching (_shapes, _strips, _characters,
    _guard_masks), each bounded in bytes, and the tableau oracle's plan table
    stay: they hold the Pieri rule or an entry fixed by its key, not an
    answer, and no cache= or cache file writes to them.
    """
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
