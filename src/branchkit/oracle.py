"""Brute-force branching oracle: semistandard tableaux counted as chains of strips.

Semistandard Young tableaux of shape lambda with entries in 1..n index a
weight basis of L(lambda); a tableau's H-eigenvalue is the sum of
h_diagonal[entry - 1] over its boxes.  Counting all of them by weight and
applying dim V_j - dim V_{j+2} reproduces any branching from first
principles.  A tableau is a chain of horizontal strips, one per entry, so the
count runs as one loop over the entries that groups the tableaux by the
shape their smaller entries fill; nothing recurses and no tableau is built.
Each partial shape is coded as one integer, its row lengths the digits of a
mixed radix, and its counts by weight are packed into another, one digit per
weight.  A strip is added one row at a time, so that the shapes that differ
only in that row share one running sum, and a state is freed once the one sum
it feeds has read it.  The number of tableaux is known up front from the
hook-content formula: it sizes the digits, sets off the budget before any
work, and must equal the sum of the digits read back.  One private core
(_weight_counts) packs the counts for tableau_weight_multiset, which decodes
them into a Counter, and for oracle_branch, which reads every m_j straight
off them by one shift and subtract.

Which state feeds which running sum, and which states a pass keeps, depends
on the shape and n alone, so it is kept apart from the arithmetic: a
generator (_passes) yields it pass by pass, codes only, and one routine
(_sum_pass) runs the sums of every pass, of a first count and a replay
alike.  The first count of a (shape, n) records the passes as its plan, and
later counts, whatever their values, replay only the sums.  The plans share
one process-wide table (_plans) of at most 2**14 slots, a slot being one
source index or one group, the oldest plan dropped first; it is a
tables.Table, the class of the recursion's Pieri tables, and clear_cache
leaves it, as it leaves them, since a plan holds the structure of the chains
and no answer.

Deliberately independent of the recursion and the closed forms: it imports
nothing from fundamental or branching, only h_diagonal from subalgebra, the
partition dictionary from weights, InternalConsistencyError, DEFAULT_BUDGET,
BudgetExceededError and the MultVector alias from sl2, and the table class,
which holds no arithmetic, from tables.  It applies the dim-difference rule
itself, to its own packed counts.
"""

import sys
from collections import Counter
from struct import calcsize

from .sl2 import DEFAULT_BUDGET, BudgetExceededError, InternalConsistencyError, MultVector
from .subalgebra import SubalgebraType, h_diagonal
from .tables import Table
from .weights import DominantWeight, Partition, canonical_partition, omega_to_partition


def _tableau_count(shape: Partition, n: int) -> int:
    """SSYT of the shape with entries <= n: prod (n + content) / prod hook over its boxes."""
    columns = [sum(r > j for r in shape) for j in range(max(shape, default=0))]
    top = bottom = 1
    for i, r in enumerate(shape):
        for j in range(r):
            top *= n + j - i
            bottom *= r - j + columns[j] - i - 1
    return top // bottom


def tableau_weight_multiset(shape, values, budget: int | None = None) -> Counter:
    """Multiset of sum-of-values weights over all SSYT of the shape.

    values[i] is the contribution of entry i + 1; entries run over
    1..len(values).  The counts come from _weight_counts, packed one digit
    per weight; the digits read back must sum to the hook-content count, or
    InternalConsistencyError.
    """
    shape = canonical_partition(shape)
    packed, count, size, base = _weight_counts(shape, values, budget)
    counts = _read_counts(packed, count, size, shape, len(values))
    return Counter({base + e: c for e, c in enumerate(counts) if c})


def _weight_counts(shape: Partition, values, budget: int | None) -> tuple[int, int, int, int]:
    """(packed, count, size, base) for the SSYT of the canonical shape with
    entries in 1..len(values): count tableaux by the hook-content formula,
    packed at Q = 256**size with the tableaux of weight base + e in the digit
    of Q^e.

    A tableau's weight depends only on how many of each entry it holds, and
    the number of tableaux with given such counts does not change when the
    entries are relabelled (Kostka numbers are symmetric in the content), so
    the entries are taken in ascending order of value.

    A tableau is then a chain of partitions nu(0) = () <= nu(1) <= ... <=
    nu(n) = shape, nu(v) holding its entries <= v, each step a horizontal
    strip (Macdonald I.(5.11)).  One pass per entry v maps each partial shape
    to its partial tableaux, counted by weight.  With rows counted from 0, a
    step mu -> nu keeps mu_i <= nu_i <= mu_{i-1} (the strip; rows from v on
    stay empty) and nu_i >= shape_{i+n-v}, so that every column of shape/nu
    still has room for the n - v larger entries; so every kept state
    completes.  The pass chooses nu_i row by row from the bottom, where row
    i - 1 still holds mu_{i-1}, so the states that differ only in row i share
    one running sum over x, the new length of row i:
    acc(x) = acc(x - 1) * Q^(value - min) + (the integer of mu with mu_i = x).

    A state nu is coded as the integer sum of nu_i * R_i, with R_0 = 1 and
    R_{i+1} = R_i * (shape_i + 1), so the full shape is R_rows - 1.  A pass
    over row i reads nu_i as code // R_i % (shape_i + 1) and groups the
    states by key = code - nu_i * R_i, each group the indices of its states
    by nu_i up to the strip's bound; the sum at x becomes the state
    key + x * R_i.  One loop runs every pass through _sum_pass, which frees
    each state once the one sum it feeds has read it, so a pass frees the
    level below as it goes, on a first call and a replay alike.

    The grouping depends on (shape, n) alone.  So the first call for it takes
    the groups from _passes, which records them pass by pass; that plan goes
    to the process-wide table _plans, and a later call with any values takes
    its groups from the plan and runs only the sums.  The table holds at most
    2**14 slots, a slot being one source index or one group, and drops the
    oldest plan first.  It takes no plan over its limit, a quarter of that: a
    larger shape stops recording at the pass that outgrows the limit and sums
    on just the same.  branching.clear_cache leaves the table, which holds no
    answer, only how the strips of a shape chain together.

    A state's counts are packed into one integer: the partial tableaux of
    shape nu and weight min(values) * |nu| + e make up the digit of Q^e,
    so adding a box of entry v multiplies by Q^(value - min), a shift.  The
    hook-content count of the shape, which no digit can exceed, sizes the
    digits; it raises BudgetExceededError before any state is built when it
    is above `budget`.
    """
    n = len(values)
    if len(shape) > n:
        return 0, 0, 1, 0
    count = _tableau_count(shape, n)
    if budget is not None and count > budget:
        raise BudgetExceededError(
            f"more than {budget} tableaux of shape {shape} with entries <= {n}"
        )
    values = sorted(values)
    low = values[0] if values else 0
    size = -(-count.bit_length() // 8)  # bytes per digit
    steps = [8 * size * (h - low) for h in values]
    plan = _plans.get((shape, n))
    states = [0, 1]
    for v, groups in _passes(shape, n) if plan is None else plan:
        states = _sum_pass(states, groups, steps[v - 1])
    return states[-1], count, size, low * sum(shape)


# unsigned machine integer formats by size in bytes, for digits
_MACHINE = {calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def _digits(x: int, size: int) -> list[int]:
    """The digits of x >= 0 at Q = 256**size from Q^0 up to its top nonzero one:
    one array read where a machine integer has the digit's size, else one
    from_bytes a digit."""
    raw = x.to_bytes(-(-x.bit_length() // (8 * size)) * size, "little")
    if size in _MACHINE:
        return memoryview(raw).cast(_MACHINE[size]).tolist()
    return [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]


def _read_counts(packed: int, count: int, size: int, shape: Partition, n: int) -> list[int]:
    """The digits of packed, which must sum to count, the number of tableaux."""
    counts = _digits(packed, size)
    if sum(counts) != count:
        raise InternalConsistencyError(
            f"{sum(counts)} tableaux of shape {shape} with entries <= {n} read back "
            f"from {size}-byte digits, {count} by the hook-content formula"
        )
    return counts


# A slot is one source index or one group, about 60 bytes, so a full table
# holds about 1 MiB.  Every shape of the sl_7 sweep up to 7 boxes takes 7834
# slots in all, so they fit together; the largest shape of the sl_3 sweep up
# to 60 boxes takes 1926.
_plans = Table(2**14)


def _sum_pass(states: list, groups, step: int) -> list:
    """One pass's running sums over a list of packed counts, index 0 holding 0.

    Each group is (pre, post), the indices of the states that feed its
    positions in order; the sums at post's positions are kept, in order.  A
    state feeds one sum, so each is set to 0 once that sum has read it, and a
    pass frees the level below as it builds the next.
    """
    new = [0]
    append = new.append
    for pre, post in groups:
        acc = 0
        if pre:
            for j in pre:
                acc = (acc << step) + states[j]
                states[j] = 0
        for j in post:
            acc = (acc << step) + states[j]
            states[j] = 0
            append(acc)
    return new


def _passes(shape, n):
    """Yields (v, groups) for each pass of the strips of (shape, n), groups as
    _sum_pass takes them, and then offers them to _plans as the plan of (shape, n)."""
    lam = shape + (0,) * n
    radix = [1]  # the place value of each row's length in a state's code
    for r in shape:
        radix.append(radix[-1] * (r + 1))
    codes = [0]  # state j (from 1) has code codes[j - 1]
    plan, slots = [], 0
    for v in range(1, n + 1):
        below = n - v
        for i in reversed(range(min(v, len(shape)))):
            lo, top = lam[i + below], lam[i]
            if lam[i + below + 1] == top:
                continue  # row i was full before entry v
            place, width = radix[i], top + 1
            # a group lists, by row i's new length, the indices of its states
            by_key: dict = {}
            for j, code in enumerate(codes, 1):
                x = code // place % width
                key = code - x * place
                src = by_key.get(key)
                if src is None:
                    # the strip's bound: row i - 1 as it was before entry v
                    end = min(top, key % place // radix[i - 1]) if i else top
                    src = by_key[key] = [0] * (end + 1)
                src[x] = j
            groups, codes = [], []
            append, extend = groups.append, codes.extend
            for key, src in by_key.items():
                # the sum starts at the group's first state; x < lo feeds it but is not kept
                first = 0 if src[0] else src.index(next(filter(None, src)))
                cut = lo if lo > first else first
                append((src[first:cut] if cut > first else (), src[cut:] if cut else src))
                extend(range(key + cut * place, key + len(src) * place, place))
                slots += len(src) - first + 1
            if slots <= _plans.limit:  # the most that put keeps: record no more
                plan.append((v, groups))
            yield v, groups
    _plans.put((shape, n), slots, plan)


def ssyt_count(shape: Partition, n: int) -> int:
    """Number of semistandard tableaux of the shape with entries at most n."""
    return sum(tableau_weight_multiset(shape, (0,) * n).values())


def oracle_branch(
    t: SubalgebraType, w: DominantWeight, budget: int | None = DEFAULT_BUDGET
) -> MultVector:
    """Branching of L(w) computed from scratch by counting its tableaux by weight.

    budget caps the number of tableaux; None lifts the cap.  The multiplicities
    are read off the packed counts: one read of every digit checks that they
    are symmetric under negation of the weight and sum to the hook-content
    count; then, with c the counts of weights 0, 1, ..., the digit j of
    c - (c >> 2 digits) is m_j = c_j - c_{j+2}.  That difference is never
    negative, but a c_j < c_{j+2} would borrow from the digit above; a borrow
    adds Q (j + 1) - (j + 2) > 0 to sum_j m_j (j + 1), which without one is
    c_0 + 2 (c_1 + c_2 + ...), the count, for symmetric counts.  So that sum
    must equal the count, or InternalConsistencyError.
    """
    if w.rank != t.n:
        raise ValueError(f"weight rank {w.rank} does not match type {t} of sl_{t.n}")
    shape = omega_to_partition(w)
    packed, count, size, base = _weight_counts(shape, h_diagonal(t), budget)
    counts = _read_counts(packed, count, size, shape, t.n)
    # the digit of weight 0 is -base, and weight e sits as far above it as -e below
    top = -base
    full = counts + [0] * (2 * top + 1 - len(counts))
    if len(full) != 2 * top + 1 or full != full[::-1]:
        raise InternalConsistencyError(
            f"tableaux of shape {shape} with entries <= {t.n} not symmetric under "
            "negation of the weight"
        )
    c = packed >> 8 * size * top
    out = {j: m for j, m in enumerate(_digits(c - (c >> 16 * size), size)) if m}
    if sum(m * (j + 1) for j, m in out.items()) != count:
        raise InternalConsistencyError(
            f"tableaux of shape {shape} with entries <= {t.n}: some dim V_j < dim V_(j+2)"
        )
    return out
