import contextlib
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from test_branching import frame_depth

from branchkit import (
    BranchEngine,
    BudgetExceededError,
    DominantWeight,
    InternalConsistencyError,
    SubalgebraType,
    all_types,
    dim_irrep,
    h_diagonal,
    fundamental_branching,
    oracle_branch,
    partition_to_omega,
    ssyt_count,
)
from branchkit import oracle
from branchkit.oracle import tableau_weight_multiset
from branchkit.tables import Table
from branchkit.weights import canonical_partition, iter_partitions


def reference_multiset(shape, values) -> Counter:
    """Every SSYT one at a time: backtrack over the cells in row-major order.

    Each cell's entry weakly exceeds its left neighbour and strictly exceeds
    the one above; recurses once per cell, so keep the shapes small.
    """
    shape = canonical_partition(shape)
    n = len(values)
    if len(shape) > n:
        return Counter()
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    grid = [[0] * width for width in shape]
    out: Counter = Counter()

    def fill(idx, acc):
        if idx == len(cells):
            out[acc] += 1
            return
        r, c = cells[idx]
        lo = grid[r][c - 1] if c else 1
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n + 1):
            grid[r][c] = v
            fill(idx + 1, acc + values[v - 1])

    fill(0, 0)
    return out


@st.composite
def shapes_and_values(draw):
    """A shape of at most 8 boxes and at most n rows, and n values in [-5, 5], n <= 7."""
    n = draw(st.integers(1, 7))
    boxes = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(list(iter_partitions(boxes, max_parts=n))))
    values = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return shape, values


def test_ssyt_count_small_shapes():
    assert ssyt_count((1, 1), 4) == 6
    for n in range(1, 8):
        assert ssyt_count((1,), n) == n
    assert ssyt_count((3, 1, 1), 5) == 126
    assert ssyt_count((), 5) == 1
    assert ssyt_count((1, 1, 1), 2) == 0  # column taller than the alphabet


def test_ssyt_count_matches_weyl_dimension():
    for n in range(2, 8):
        for boxes in range(0, 9):
            for shape in iter_partitions(boxes, max_parts=n - 1):
                w = partition_to_omega(shape, n)
                assert ssyt_count(shape, n) == dim_irrep(w), (shape, n)


def test_tableau_weight_multiset_is_symmetric():
    for t in (SubalgebraType((4,)), SubalgebraType((3, 2)), SubalgebraType((2, 2, 1))):
        ms = tableau_weight_multiset((2, 1), h_diagonal(t))
        assert all(ms[-w] == c for w, c in ms.items()), t


def test_oracle_examples():
    assert oracle_branch(SubalgebraType((4,)), DominantWeight.omega(4, 2)) == {0: 1, 4: 1}
    assert oracle_branch(SubalgebraType((4, 3)), DominantWeight.omega(7, 3)) == {
        0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1
    }
    assert oracle_branch(SubalgebraType((5,)), DominantWeight(5, (2, 0, 0, 0))) == {
        0: 1, 4: 1, 8: 1
    }


def test_oracle_matches_fundamental_for_all_small_types():
    for n in range(2, 9):
        for t in all_types(n):
            for k in range(1, n):
                w = DominantWeight.omega(n, k)
                assert oracle_branch(t, w) == fundamental_branching(t, k), (t, k)


def test_oracle_budget():
    t = SubalgebraType((3, 1))
    w = DominantWeight(4, (1, 1, 0))
    with pytest.raises(BudgetExceededError):
        oracle_branch(t, w, budget=3)
    # and the same computation passes with room to spare
    assert oracle_branch(t, w, budget=10**4)


def test_oracle_rank_mismatch():
    with pytest.raises(ValueError):
        oracle_branch(SubalgebraType((3, 2)), DominantWeight(4, (1, 0, 0)))


def test_budget_counts_tableaux_not_weights():
    # dim of (1,1) under sl_4 is 6; a budget of exactly 6 must succeed
    ms = tableau_weight_multiset((1, 1), h_diagonal(SubalgebraType((4,))), budget=6)
    assert sum(ms.values()) == 6
    with pytest.raises(BudgetExceededError):
        tableau_weight_multiset((1, 1), h_diagonal(SubalgebraType((4,))), budget=5)


def test_multiset_matches_the_reference_on_every_small_type_and_shape():
    for n in range(2, 8):
        for t in all_types(n):
            values = h_diagonal(t)
            for boxes in range(0, 8):
                for shape in iter_partitions(boxes, max_parts=n):
                    assert tableau_weight_multiset(shape, values) == reference_multiset(
                        shape, values
                    ), (t, shape)


@settings(max_examples=200, deadline=None)
@given(shapes_and_values())
def test_multiset_matches_the_reference_for_any_values(case):
    shape, values = case
    assert tableau_weight_multiset(shape, values) == reference_multiset(shape, values)


@settings(max_examples=100, deadline=None)
@given(shapes_and_values())
def test_budget_raises_exactly_past_the_tableau_count(case):
    shape, values = case
    count = sum(reference_multiset(shape, values).values())
    assert sum(tableau_weight_multiset(shape, values, budget=count).values()) == count
    with pytest.raises(BudgetExceededError):
        tableau_weight_multiset(shape, values, budget=count - 1)


class Watched(tuple):
    """Values that record each read; len() is free."""

    def __new__(cls, values):
        self = super().__new__(cls, values)
        self.reads = 0
        return self

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_budget_raises_before_any_strip_state_is_built():
    # sl_3 (600, 300): 2.7e7 tableaux.  No strip state can be built without
    # the values, so the budget has to go off on the shape and the alphabet
    # size alone; the traced peak bounds whatever was held before it did.
    values = Watched((1, 0, -1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            tableau_weight_multiset((600, 300), values, budget=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.reads == 0
    assert peak < 2**20, f"{peak} bytes traced"
    # the watch sees the reads of a run that goes through
    assert sum(tableau_weight_multiset((2, 1), values, budget=8).values()) == 8
    assert values.reads > 0


@pytest.mark.parametrize(
    "wrong", [lambda count: 255, lambda count: count + 1],
    ids=["digits-too-narrow", "count-off-by-one"],
)
def test_a_wrong_tableau_count_raises_instead_of_answering(monkeypatch, wrong):
    # (30, 15) has 4224 tableaux with entries <= 3, all of weight 0 here: a
    # count below 256 packs them in one-byte digits, which carry
    true_count = oracle._tableau_count
    monkeypatch.setattr(oracle, "_tableau_count", lambda shape, n: wrong(true_count(shape, n)))
    with pytest.raises(InternalConsistencyError):
        tableau_weight_multiset((30, 15), (0, 0, 0))
    with pytest.raises(InternalConsistencyError):
        oracle_branch(SubalgebraType((3,)), partition_to_omega((30, 15), 3), budget=None)


@pytest.mark.parametrize(
    "blocks, shape",
    [((5,), (40, 30, 20, 10)), ((2, 1), (200, 100)), ((35,), (3,) * 34)],
    # the last has 102 boxes in 34 rows: its state codes reach 4^34 = 2^68
    ids=["sl5-principal-40,30,20,10", "sl3-[2,1]-200,100", "sl35-principal-3^34"],
)
def test_oracle_reaches_weights_of_a_hundred_boxes_and_more(blocks, shape):
    t = SubalgebraType(blocks)
    w = partition_to_omega(shape, t.n)
    assert oracle_branch(t, w, budget=None) == BranchEngine().branch(t, w)


def test_oracle_memory_stays_put():
    # traced peaks of the last count, on CPython 3.11: a first count of sl_3
    # [2,1] (200, 100) takes 6.33 MiB, and 8.6 MiB if a pass keeps the level
    # below until it ends instead of setting each state to 0 once its sum has
    # read it; a replay of sl_3 [3] (60, 30) takes 0.22 MiB, and 0.34 MiB if
    # it keeps the level below
    cases = [((2, 1), (200, 100), 1, 6.9), ((3,), (60, 30), 2, 0.3)]
    for blocks, shape, counts, mib in cases:
        values = h_diagonal(SubalgebraType(blocks))
        with fresh_plan_table():
            for _ in range(counts - 1):
                tableau_weight_multiset(shape, values)
            tracemalloc.start()
            try:
                tableau_weight_multiset(shape, values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < mib * 2**20, f"{shape}: {peak / 2**20:.2f} MiB traced"


@st.composite
def types_and_weights(draw):
    """A type of sl_3..sl_6 and a weight of at most 20 boxes."""
    n = draw(st.integers(3, 6))
    t = draw(st.sampled_from(all_types(n)))
    boxes = draw(st.integers(0, 20))
    shape = draw(st.sampled_from(list(iter_partitions(boxes, max_parts=n - 1))))
    return t, partition_to_omega(shape, n)


@settings(max_examples=100, deadline=None)
@given(types_and_weights())
def test_oracle_matches_the_recursion_up_to_20_boxes(case):
    t, w = case
    assert oracle_branch(t, w, budget=None) == BranchEngine().branch(t, w)


def test_long_row_needs_no_recursion_limit():
    # one row of 995 cells: a cell-by-cell enumerator would recurse 995 deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        answer = oracle_branch(SubalgebraType((2,)), partition_to_omega((995,), 2))
    finally:
        sys.setrecursionlimit(limit)
    assert answer == {995: 1}


@contextlib.contextmanager
def fresh_plan_table(bound=None):
    """An empty strip plan table (of the usual bound by default), the process's own put back."""
    kept = oracle._plans
    oracle._plans = Table(kept.bound if bound is None else bound)
    try:
        yield oracle._plans
    finally:
        oracle._plans = kept


def test_plan_table_is_bounded():
    # every shape of sl_8 up to 8 boxes fits the per-plan limit, and all of
    # their plans together hold more slots than the table
    shapes = [s for boxes in range(9) for s in iter_partitions(boxes, max_parts=8)]
    values = h_diagonal(SubalgebraType((8,)))
    with fresh_plan_table() as table:
        put = table.put
        recorded = []
        table.put = lambda key, slots, passes: (recorded.append(slots), put(key, slots, passes))
        first = {shape: tableau_weight_multiset(shape, values) for shape in shapes}
        assert len(recorded) == len(shapes) and sum(recorded) > table.bound
        assert table.size == sum(slots for _, slots in table.order) <= table.bound
        # the plans kept are the latest ones, and they answer as the first calls did
        kept = list(table.entries)
        assert kept == [(s, 8) for s in shapes[-len(kept):]]
        for shape, _ in kept:
            assert tableau_weight_multiset(shape, values) == first[shape]


def test_plan_table_counts_its_hits_misses_and_evictions():
    # each shape of sl_4 up to 8 boxes counted twice in a row: the second count
    # replays the plan the first recorded, if the table kept it
    shapes = [s for boxes in range(9) for s in iter_partitions(boxes, max_parts=4)]
    with fresh_plan_table() as table:
        for shape in shapes:
            for _ in range(2):
                tableau_weight_multiset(shape, (0,) * 4)
        assert (table.hits, table.misses, table.evictions) == (len(shapes), len(shapes), 0)
    # a table of 256 slots keeps only the plans of up to 64, and drops the oldest
    with fresh_plan_table(256) as table:
        kept = 0
        for shape in shapes:
            tableau_weight_multiset(shape, (0,) * 4)
            kept += (shape, 4) in table.entries
            tableau_weight_multiset(shape, (0,) * 4)
        assert 0 < kept < len(shapes)
        assert (table.hits, table.misses) == (kept, 2 * len(shapes) - kept)
        assert table.evictions == kept - len(table.entries) > 0


def test_a_sweep_records_each_shape_once(monkeypatch):
    recorded = Counter()
    real = oracle._passes

    def counting(shape, n):
        recorded[shape, n] += 1
        return real(shape, n)

    monkeypatch.setattr(oracle, "_passes", counting)
    shapes = [s for boxes in range(7) for s in iter_partitions(boxes, max_parts=6)]
    with fresh_plan_table() as table:
        for t in all_types(6):
            values = h_diagonal(t)
            for shape in shapes:
                assert tableau_weight_multiset(shape, values) == reference_multiset(shape, values)
        assert recorded == Counter((s, 6) for s in shapes)
        assert set(table.entries) == set(recorded)


@pytest.mark.parametrize("bound", [64, 256])
def test_a_plan_past_the_limit_is_not_kept(bound):
    # a plan may take a quarter of the table: 16 slots, which most shapes of
    # sl_4 and sl_5 up to 8 boxes outgrow in their second to fifth row pass,
    # or 64, which some outgrow in their fourth to tenth
    shapes = {n: [s for boxes in range(9) for s in iter_partitions(boxes, max_parts=n)]
              for n in (4, 5)}
    with fresh_plan_table() as table:
        for n, shapes_n in shapes.items():
            for shape in shapes_n:
                tableau_weight_multiset(shape, (0,) * n)
        slots = dict(table.order)
    assert len(slots) == sum(map(len, shapes.values()))
    seen = set()
    with fresh_plan_table(bound) as table:
        for n, shapes_n in shapes.items():
            a, b = h_diagonal(SubalgebraType((n,))), (3, -2, 0, 5, -1)[:n]
            for shape in shapes_n:
                want_a, want_b = reference_multiset(shape, a), reference_multiset(shape, b)
                for values, want in ((a, want_a), (b, want_b), (a, want_a)):
                    assert tableau_weight_multiset(shape, values) == want, (shape, values)
                fits = slots[shape, n] <= bound // 4
                assert ((shape, n) in table.entries) == fits, shape
                assert table.size == sum(slots[key] for key in table.entries)
                seen.add(fits)
    assert seen == {True, False}


@st.composite
def shapes_and_two_values(draw):
    """A case of shapes_and_values and a second value vector of the same length."""
    shape, values = draw(shapes_and_values())
    other = draw(st.lists(st.integers(-5, 5), min_size=len(values), max_size=len(values)))
    return shape, values, other


@settings(max_examples=150, deadline=None)
@given(shapes_and_two_values())
def test_a_plan_serves_any_values(case):
    # the first call records the plan, the next two replay it: one with other
    # values, one with the first values again
    shape, a, b = case
    with fresh_plan_table():
        for values in (a, b, a):
            assert tableau_weight_multiset(shape, values) == reference_multiset(shape, values)
