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
depends on lambda alone, so a step reads them with one dict.get from the
process-wide shape table (_shapes), keyed by the padded lambda.  A step that
misses builds them: k = lambda's row count, lambda minus the column, and the lower
members from the process-wide strip table (_strips, read through
_lower_strips), keyed by k and the equal adjacent rows of lambda', so
pieri_set runs once per such pattern, not once per step or
engine; a query stops adding shapes once those it added pass its table's
limit, so a query too big to fit neither churns the table nor keeps its
shapes alive.  The character, its top weight and guard bits come from the
table _characters, keyed by (blocks, k, width), so wedge_character runs once
per key in the process, not once per engine; no engine keeps a copy, so one
over the table's limit is built at each use.  All three tables are
tables.Table, the class of the oracle's plan table too: bounded in bytes by
tables.footprint, oldest value dropped first, nothing over the limit kept.
Every engine may share them, since an entry is fixed by its key (width
included) and holds no answer.  The guard masks are the engine's own.
Only when a check finds a negative multiplicity does a step read its digits
into {j: m_j} dicts, to name it; entries cross the engine's edges (`branch`,
`BranchEngine.cache`, cache files) as {j: m_j} dicts, checked by _admit.

Every sl_2 module is self-dual, so Res L(lambda*) = Res L(lambda), where
lambda* = (lambda_1 - lambda_n, ..., lambda_1 - lambda_1) has n lambda_1 -
|lambda| boxes: `branch` solves whichever of the two has fewer boxes.
"""

from itertools import accumulate
from math import comb
from operator import add, eq, mul, sub

from .fundamental import _fundamental, wedge_character
from .pieri import lex_max_member, pieri_set
from .qcomb import digits, fold, guard_mask, pack, width
from .sl2 import InternalConsistencyError, MultVector
from .subalgebra import SubalgebraType, h_diagonal
from .tables import Table, footprint
from .weights import DominantWeight, canonical_partition, dim_irrep, padded_partition

__all__ = [
    "BranchEngine",
    "branch",
    "clear_cache",
    "principal_highest_component",
]


class _TooNarrow(Exception):
    """A packed value has no room at the engine's digit width."""


class BranchEngine:
    """Memoized branching calculator.

    The memo holds one dict per type (n, blocks), keyed by the padded
    partition lambda, so every weight ever requested shares subproblems and a
    lookup is one dict.get.  At the edges (`branch`'s answers, `cache`, cache
    files) an entry is keyed (n, blocks, lambda without trailing zeros).
    Each step splits off w_k for the largest k with a_k > 0, lambda's row count,
    and a query on lambda solves lambda* instead when that has fewer boxes:
    the memo holds the weights solved, `branch`'s answers the weights asked.

    Inside, a memo value is the packed Weyl numerator P = sum_j m_j Q^{j+1}
    of qcomb at one width per engine, whose every digit keeps its top bit
    clear.  The character of w_k comes packed from the wedge recurrence
    (fundamental.wedge_character), and L(w_k) is one fold of the trivial
    numerator Q by it; a lookup that misses a leaf (lambda_1 <= 1) computes
    it on the spot, so only lambda_1 >= 2 takes a step.  A step multiplies
    P(lambda') by the character (qcomb.fold) and subtracts the lower Pieri
    members one by one, each checked by a sign test and one AND against the
    digits' top bits.  k, lambda' and the members come from the process-wide
    shape table (_shapes), and a step that misses it builds them from the
    strip table (_strips); both hold only the Pieri rule, no answer, so every
    engine shares them.  The character comes from
    _characters at every step, or is built when the table lacks it: an entry
    is fixed by its key, width included, and holds no answer, so all share
    them.  These tables are bounded in bytes (see tables).  Each guard mask
    is built by the engine, as long as lambda's top weight bounds, at most
    once per query, and kept in _masks until the engine widens.  Before the
    multiply one AND certifies that every digit of P(lambda') is below
    2**(8w - 1 - b), b the bit length of C(n, k) = dim L(w_k), so that no
    product digit carries.
    A value that does not fit repacks the memo at double the width and
    restarts the query; the width a query starts from, read off dim
    L(lambda), is only a first guess.  Assigning cache= or `cache` checks
    every entry at once (see _admit), so that a rejected assignment leaves
    the engine as it was; each dict is copied, and packed when a query first
    uses it.  `branch` keeps each answer it decoded beside the memo, so a
    repeat is a dict copy.
    """

    def __init__(self, cache: dict | None = None):
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
        heights: dict = {}  # (n, blocks) -> h_diagonal sorted descending
        for key, mv in entries.items():
            _admit(memos, heights, key, mv)
        self._memos = memos
        self._answers: dict = {}  # (blocks, padded lambda) -> the answer `branch` decoded
        self._w = 1
        self._digits = 0  # at most this many digits in any value of the current query
        self._masks: dict = {}  # guard bits -> guard_mask at width _w

    def __len__(self) -> int:
        """len(self.cache), counted without decoding an entry."""
        return sum(map(len, self._memos.values()))

    def branch(self, t: SubalgebraType, w: DominantWeight) -> MultVector:
        """Multiplicity vector of Res L(w) restricted to the subalgebra of type t."""
        if w.rank != t.n:
            raise ValueError(f"weight rank {w.rank} does not match type {t} of sl_{t.n}")
        lam = padded_partition(w)
        key = (t.blocks, lam)
        mv = self._answers.get(key)
        if mv is not None:
            self.stats["hits"] += 1
            return dict(mv)
        if t.n * lam[0] < 2 * sum(lam):  # lambda* has fewer boxes, and Res L(lambda*) = Res L(lambda)
            lam = tuple(lam[0] - x for x in reversed(lam))
        memo = self._memos.setdefault((t.n, t.blocks), {})
        if lam not in memo:
            rows = lam.index(0)
            self._widen(width(dim_irrep(w) * comb(t.n, min(rows, t.n - rows))))
            # the query's weights lie below lam: 2 + lam's top weight digits bound its values
            self._digits = 2 + sum(map(mul, lam, sorted(h_diagonal(t), reverse=True)))
        self._room = _shapes.limit  # bytes of shapes this query may still add
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
        steps = [self._step(t, memo, lam)]
        while steps:  # suspended steps on a list, not the call stack: no depth limit
            p = steps[-1].send(p)
            if isinstance(p, int):  # a step's last yield: its own value
                next(steps.pop(), None)  # finish it: closing a suspended one throws GeneratorExit
            else:  # a weight the memo lacks: start its step
                steps.append(self._step(t, memo, p))
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

    def _step(self, t, memo, lam):
        """Yields each weight it needs that the memo lacks, is sent its value, yields its own."""
        k, prev, members = _shapes.entries.get(lam) or self._add_shape(lam)
        if (p := self._get(t, memo, prev)) is None:
            p = yield prev
        lower = []
        for mu in members:
            m = self._get(t, memo, mu)
            lower.append(m if m is not None else (yield mu))
        c, top, guard = self._character(t, k)
        if p & self._mask(guard, p.bit_length()):
            raise _TooNarrow
        r = product = fold(p, c, top, self._w)
        sign = self._mask(1, r.bit_length())
        # each member is nonnegative with its top bits clear, so r's digits
        # stay exact and a negative one shows at once; a sum of wrong cache
        # entries could carry across digits and hide it
        for m in lower:
            r -= m
            if r < 0 or r & sign:
                r = self._by_dicts(t, lam, product, lower)
                break
        memo[lam] = r
        yield r

    def _add_shape(self, lam):
        """(k, lam', the members of P(lam', k) but lam) for a step that missed
        _shapes, lam' being lam less the column of w_k, all padded partitions;
        while the query has room, it goes to _shapes and its footprint off the
        room."""
        _shapes.misses += 1
        k = lam.index(0)
        prev = tuple(map(sub, lam, (1,) * k + (0,) * (len(lam) - k)))
        strips = _lower_strips(k, *map(eq, prev, prev[1:]))
        shape = k, prev, tuple([tuple(map(add, prev, d)) for d in strips])
        if self._room >= 0:
            size = footprint(lam, shape)
            self._room -= size
            _shapes.put(lam, size, shape)
        return shape

    def _by_dicts(self, t, lam, product, lower):
        """The step's value from the digits of the folded product less those of
        the lower members; InternalConsistencyError names the lowest j whose
        multiplicity went negative."""
        mv: MultVector = self._unpack(product)
        for m in lower:
            for j, x in self._unpack(m).items():
                mv[j] = mv.get(j, 0) - x
        negative = [j for j, m in mv.items() if m < 0]
        if negative:
            j = min(negative)
            raise InternalConsistencyError(f"multiplicity of F_{j} went negative ({mv[j]}) "
                                           f"in branch({t}, {lam[: lam.index(0)]})")
        return self._pack({j: m for j, m in mv.items() if m})

    def _character(self, t, k):
        """(packed character of w_k at the engine's width, its top, guard bits),
        from the process-wide table, or built and offered to it."""
        key = (t.blocks, k, self._w)
        hit = _characters.entries.get(key)
        if hit is None:
            dim = comb(t.n, k)
            if width(dim) > self._w:
                raise _TooNarrow
            _characters.misses += 1
            hit = *wedge_character(t, k, self._w), dim.bit_length() + 1
            _characters.put(key, footprint(key, hit), hit)
        return hit

    def _mask(self, bits, length):
        mask = self._masks.get(bits, 0)
        if mask.bit_length() < length:  # as long as any value of the query can be
            mask = self._masks[bits] = guard_mask(self._w, bits, max(length, 8 * self._w * self._digits))
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
        self._masks.clear()
        for memo, lam, mv in unpacked:
            memo[lam] = self._pack(mv)


# Every table holds structure that engines of every type and width share, no
# answer.  A 20 s run of the recursion benchmark (seed 7, 2520 fresh engines)
# fills them with 832 characters (349 KB), 3816 shapes (2.6 MB) and 241 strip
# patterns (187 KB), and drops nothing.  Principal sl_300's w_150 alone
# takes 1.8 MB, and is not kept; principal sl_3 (600, 300) takes 68k steps,
# and adds shapes only until they fill the limit.  sl_13 [6, 4, 2, 1]
# (20, 15, 10, 5, 3, 1) reads 207 strip patterns, 330 KB; one pattern of
# sl_14 with all rows distinct takes about 550 KB, and still fits.
_characters = Table(2**20)
_shapes = Table(3 * 2**20)
_strips = Table(2**22)


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
        _strips.put(key, footprint(key, strips), strips)
    return strips


def _admit(memos, heights, key, mv):
    """A copy of mv into the memo of key's type in memos, under key's lambda padded
    to n rows; the memo and the type's entry of heights are made on first use.
    ValueError names the key unless it is (n, blocks, lambda) as `branch` looks it
    up (blocks a type of sl_n, lambda a partition of fewer than n parts without
    trailing zeros) and mv a non-empty dict of int j >= 0 to int m_j >= 1, none
    above lambda's top weight, which bounds `branch`'s values: packing a j takes
    bytes in proportion to it."""
    try:
        n, blocks, lam = key
        memo = memos.get((n, blocks))
        if memo is None:  # once per type
            t = SubalgebraType(blocks)
            if t.blocks != blocks or t.n != n:
                raise ValueError(f"{blocks} does not name a type of sl_{n} as {t}")
            memo = memos[t.n, t.blocks] = {}
            heights[t.n, t.blocks] = sorted(h_diagonal(t), reverse=True)
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
    if max(mv) > (top := sum(map(mul, lam, heights[n, blocks]))):
        raise ValueError(f"cache entry {key!r} has j = {max(mv)}, above the top weight {top}")
    memo[lam] = dict(mv)


_DEFAULT_ENGINE = BranchEngine()


def branch(t: SubalgebraType, w: DominantWeight) -> MultVector:
    """Res L(w) to the subalgebra of type t, via the shared process-wide cache."""
    return _DEFAULT_ENGINE.branch(t, w)


def clear_cache():
    """Forget every memoized branching: the shared engine's and the fundamentals'.

    The process-wide tables of branching (_shapes, _strips, _characters) and
    qcomb's packed q-binomial rows (_spread_rows), each bounded in bytes, and
    the tableau oracle's plan table stay: all five are tables.Table, they hold
    the Pieri rule or an entry fixed by its key, not an answer, and no cache=
    or cache file writes to them.
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
