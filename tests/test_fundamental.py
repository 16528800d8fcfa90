from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from branchkit import (
    SubalgebraType,
    all_types,
    fundamental_branching,
    h_diagonal,
    mult_cayley_sylvester,
    mult_macdonald,
    mult_strict_count,
    rep_dimension,
    wedge_weight_multiset,
)
from branchkit import fundamental
from branchkit.fundamental import (
    ClosedFormMismatchError,
    branching_by_blocks,
    wedge_character,
)
from branchkit.qcomb import digits, width
from branchkit.sl2 import CorruptMultisetError, cg_convolve, mult_from_multiset
from test_branching import fresh_tables

# weight multiset of the third wedge power for type [4,3], written out in full
LAMBDA3_43 = Counter(
    [3, 1, 6, 4, 2, -1, 4, 2, 0, 2, 0, -2, 5, 3, 1, -3, 2, 0, -2,
     0, -2, -4, 3, 1, -1, -2, -4, -6, 1, -1, -3, -1, -3, -5, 0]
)

FUND_43_K3 = {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1}


def test_wedge_weight_multiset_43():
    ms = wedge_weight_multiset(SubalgebraType((4, 3)), 3)
    assert sum(ms.values()) == comb(7, 3) == 35
    assert ms == LAMBDA3_43


def test_wedge_weight_multiset_principal_sl5():
    ms = wedge_weight_multiset(SubalgebraType((5,)), 2)
    assert ms == Counter([6, 4, 2, 0, 2, 0, -2, -2, -4, -6])


def test_wedge_weight_multiset_smallest_case():
    assert wedge_weight_multiset(SubalgebraType((2,)), 1) == Counter([1, -1])


def brute_force_multiset(t, k):
    """Reference: list every k-subset of the H diagonal and sum it."""
    return Counter(sum(c) for c in combinations(h_diagonal(t), k))


def test_wedge_weight_multiset_matches_brute_force():
    for n in range(2, 11):
        for t in all_types(n):
            for k in range(1, n):
                assert wedge_weight_multiset(t, k) == brute_force_multiset(t, k), (t, k)


def test_fundamental_decode_matches_the_reference_rule():
    # the memoized route reads the packed character by one shift and
    # subtract; the reference decodes it into a Counter first
    for n in range(2, 13):
        for t in all_types(n):
            for k in range(1, n):
                want = mult_from_multiset(wedge_weight_multiset(t, k))
                assert fundamental._fundamental.__wrapped__(t, k) == want, (t, k)


@pytest.mark.parametrize("blocks", [(2,), (5,), (4, 3), (3, 2, 2), (6, 1, 1), (2, 2, 2, 2), (9,)])
def test_wedge_character_at_two_widths(blocks):
    t = SubalgebraType(blocks)
    n, h = t.n, sorted(h_diagonal(t), reverse=True)
    for k in range(1, n):
        narrow = width(comb(n, k))
        for w in (narrow, narrow + 2):
            c, top = wedge_character(t, k, w)
            d = digits(c, w)
            assert sum(d) == comb(n, k) and d == d[::-1] and d[0], (t, k, w)
            assert top == sum(h[:k]) and len(d) == 2 * top + 1, (t, k, w)
            assert Counter({e - top: m for e, m in enumerate(d) if m}) == brute_force_multiset(t, k)
            assert wedge_character(t, n - k, w) == (c, top), (t, k, w)


@st.composite
def types_and_k(draw, max_rank=14):
    n = draw(st.integers(min_value=2, max_value=max_rank))
    first = draw(st.integers(min_value=2, max_value=n))
    blocks = [first]
    while sum(blocks) < n:
        blocks.append(draw(st.integers(min_value=1, max_value=min(first, n - sum(blocks)))))
    return SubalgebraType(tuple(blocks)), draw(st.integers(min_value=1, max_value=n - 1))


@settings(max_examples=60, deadline=None)
@given(types_and_k())
def test_wedge_weight_multiset_matches_brute_force_random(case):
    t, k = case
    assert wedge_weight_multiset(t, k) == brute_force_multiset(t, k)


def test_wedge_weight_multiset_range_and_rank_40():
    t = SubalgebraType((3, 2))
    with pytest.raises(ValueError):
        wedge_weight_multiset(t, 0)
    with pytest.raises(ValueError):
        wedge_weight_multiset(t, 5)
    # fundamental_branching leaves the check to the DP: a bad k is never cached
    for k in (0, t.n):
        for verify in (False, True):
            with pytest.raises(ValueError, match="out of range"):
                fundamental_branching(t, k, verify=verify)
    # well past the old n <= 30 enumeration cap
    for blocks, k in (((40,), 20), ((40,), 13), ((20, 12, 8), 15)):
        t = SubalgebraType(blocks)
        mv = fundamental_branching(t, k, verify=True)
        assert rep_dimension(mv) == comb(40, k)
        # Hermite reciprocity: L(w_k) and L(w_{n-k}) are dual, and sl_2
        # modules are self-dual
        assert fundamental_branching(t, 40 - k) == mv


def test_fundamental_branching_with_digits_wider_than_64_bits():
    # C(70, 35) > 2**64, so e_35 packs 9-byte coefficients, and so does the
    # Gaussian-binomial row (35, 35) that strict-count and Cayley-Sylvester read
    assert comb(70, 35) > 2**64
    mv = fundamental_branching(SubalgebraType((70,)), 35, verify=True)
    assert rep_dimension(mv) == comb(70, 35)


def test_mult_from_multiset_examples():
    assert mult_from_multiset(Counter([6, 4, 2, 0, 2, 0, -2, -2, -4, -6])) == {2: 1, 6: 1}
    assert mult_from_multiset(LAMBDA3_43) == FUND_43_K3
    assert mult_from_multiset(Counter([1, -1])) == {1: 1}
    assert mult_from_multiset(Counter()) == {}


def test_mult_from_multiset_rejects_garbage():
    with pytest.raises(CorruptMultisetError):
        mult_from_multiset(Counter([1, 1, -1]))  # asymmetric
    with pytest.raises(CorruptMultisetError):
        mult_from_multiset(Counter({2: 2, 0: 1, -2: 2}))  # dim V_0 < dim V_2


def test_mult_strict_count_examples():
    assert mult_strict_count(5, 2, 2) == 1
    assert mult_strict_count(5, 2, 4) == 0
    assert mult_strict_count(5, 1, 4) == 1
    assert mult_strict_count(5, 2, 3) == 0  # parity


def test_mult_cayley_sylvester_examples():
    assert mult_cayley_sylvester(5, 2, 6) == 1
    assert mult_cayley_sylvester(5, 2, 0) == 0
    assert mult_cayley_sylvester(7, 1, 6) == 1
    assert mult_cayley_sylvester(7, 1, 4) == 0
    assert mult_cayley_sylvester(5, 2, 7) == 0  # above the top component


def test_mult_macdonald_examples():
    assert mult_macdonald(5, 2, 2) == 1
    assert mult_macdonald(5, 2, 4) == 0
    assert mult_macdonald(5, 2, 6) == 1
    assert mult_macdonald(4, 3, 3) == 1
    with pytest.raises(ValueError):
        mult_macdonald(6, 4, 2)


def test_closed_forms_agree_with_multiset_principal():
    for n in range(2, 11):
        for k in range(1, n):
            reference = fundamental_branching(SubalgebraType((n,)), k)
            top = k * (n - k)
            for j in range(0, top + 3):
                want = reference.get(j, 0)
                assert mult_strict_count(n, k, j) == want, (n, k, j)
                assert mult_cayley_sylvester(n, k, j) == want, (n, k, j)
                if k in (2, 3):
                    assert mult_macdonald(n, k, j) == want, (n, k, j)


def test_fundamental_branching_examples():
    assert fundamental_branching(SubalgebraType((3, 2)), 2) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert fundamental_branching(SubalgebraType((3, 2)), 1) == {1: 1, 2: 1}
    assert fundamental_branching(SubalgebraType((4, 3)), 3) == FUND_43_K3
    for n in range(2, 9):
        assert fundamental_branching(SubalgebraType((n,)), 1) == {n - 1: 1}


def test_fundamental_branching_returns_a_copy_of_its_memo():
    t = SubalgebraType((5,))
    fundamental_branching(t, 2)[2] = 99
    assert fundamental_branching(t, 2) == {2: 1, 6: 1}


def test_fundamental_branching_k_range():
    with pytest.raises(ValueError):
        fundamental_branching(SubalgebraType((3, 2)), 0)
    with pytest.raises(ValueError):
        fundamental_branching(SubalgebraType((3, 2)), 5)


def test_fundamental_branching_verify_mode_runs_all_closed_forms():
    for t in (SubalgebraType((6,)), SubalgebraType((4, 3)), SubalgebraType((3, 1, 1)),
              SubalgebraType((2, 2, 1))):
        for k in range(1, min(t.n - 1, t.n // 2) + 1):
            fundamental_branching(t, k, verify=True)


def recorded_block_checks(monkeypatch):
    """The (blocks, k) of every branching_by_blocks call that verify makes, in order."""
    calls = []

    def recorded(t, k):
        calls.append((t.blocks, k))
        return branching_by_blocks(t, k)

    monkeypatch.setattr(fundamental, "branching_by_blocks", recorded)
    return calls


def test_verify_skips_self_comparisons_on_one_block(monkeypatch):
    # on a single block the product over the blocks is the one q-binomial
    # that the principal checks read, and at k = 2 it is Lambda^2 F_{n-1} =
    # F_{2n-4} + F_{2n-8} + ..., Macdonald's k = 2 formula, so verify leaves
    # it to types with more than one block
    calls = recorded_block_checks(monkeypatch)
    for n in range(2, 11):
        for k in range(1, n):
            fundamental_branching(SubalgebraType((n,)), k, verify=True)
    assert calls == []
    fundamental_branching(SubalgebraType((4, 1, 1)), 1, verify=True)
    assert calls == [((4, 1, 1), 1)]


def test_verify_checks_the_same_pairs_as_the_three_forms_it_replaced(monkeypatch):
    # k = 2 on any type, and k <= n/2 on [r, 1, ..., 1] and [r, s]: 514 of the
    # 2243 non-principal (type, k) of sl_3..sl_12, since checking them all
    # would double the median check's time
    calls = recorded_block_checks(monkeypatch)
    want = []
    for n in range(3, 13):
        for t in all_types(n)[1:]:
            hook, two_blocks = all(d == 1 for d in t.blocks[1:]), len(t.blocks) == 2
            for k in range(1, n):
                fundamental_branching(t, k, verify=True)
                if k == 2 or k <= n // 2 and (hook or two_blocks):
                    want.append((t.blocks, k))
    assert calls == want
    assert len(want) == 514


@pytest.mark.parametrize("bound", [None, 64], ids=["emptied", "below-one-row"])
def test_the_block_check_holds_however_the_row_table_is_filled(bound):
    # the 514 checked (type, k) of sl_3..sl_12, with qcomb's row table emptied
    # at its own bound, or shrunk below one row so that it keeps none
    with fresh_tables(bound) as tables:
        rows = tables["spread_rows"]
        for n in range(3, 13):
            for t in all_types(n)[1:]:
                for k in range(1, n):
                    fundamental_branching(t, k, verify=True)
        assert rows.misses > 0 and rows.evictions == 0
        assert len(rows.entries) == (0 if bound else rows.misses)


def test_the_block_check_reads_each_row_it_uses_once(monkeypatch):
    reads = []
    real = fundamental.spread_row
    monkeypatch.setattr(fundamental, "spread_row",
                        lambda n, k, w: reads.append((n, k, w)) or real(n, k, w))
    # [2, 2, 1, 1] at k = 2: the DP's (s, m) pairs take 9 rows, 3 of them
    # distinct, and each block reads its 3 once
    branching_by_blocks(SubalgebraType((2, 2, 1, 1)), 2)
    assert reads == [(2, 0, 1), (1, 1, 1), (0, 2, 1)] * 2
    # [5, 2] at k = 3: the 5-block gives at least one box, the 2-block takes
    # what is left; [5, 1] at k = 2: the unit block leaves at least one box to the 5
    reads.clear()
    branching_by_blocks(SubalgebraType((5, 2)), 3)
    assert reads == [(4, 1, 1), (3, 2, 1), (2, 3, 1), (2, 0, 1), (1, 1, 1), (0, 2, 1)]
    reads.clear()
    branching_by_blocks(SubalgebraType((5, 1)), 2)
    assert reads == [(4, 1, 1), (3, 2, 1)]


def test_branching_k2_general():
    assert branching_by_blocks(SubalgebraType((3, 2)), 2) == {0: 1, 1: 1, 2: 1, 3: 1}
    # [2,2]: two internal pairs give 2F_0, the cross pair F_1(x)F_1 = F_0 + F_2,
    # total dimension C(4,2) = 6
    expected = {0: 3, 2: 1}
    assert branching_by_blocks(SubalgebraType((2, 2)), 2) == expected
    assert rep_dimension(expected) == comb(4, 2)
    for n in range(3, 10):
        assert branching_by_blocks(SubalgebraType((n,)), 2) == fundamental_branching(
            SubalgebraType((n,)), 2
        )


def no_weight_multisets(monkeypatch):
    """Make every route to the weight multiset, memoized or not, raise."""
    def weight_multiset_route(*args):
        raise AssertionError(f"the block-product closed form read the weight multiset: {args}")

    for name in ("_fundamental", "fundamental_branching", "wedge_weight_multiset",
                 "wedge_character"):
        monkeypatch.setattr(fundamental, name, weight_multiset_route)


def test_branching_k2_general_matches_multiset_everywhere(monkeypatch):
    # every k, not only 2; the answers come first, then every route to them raises
    cases = [(t, k) for n in range(2, 13) for t in all_types(n) for k in range(1, n)]
    assert len(cases) == 2309
    want = [fundamental_branching(t, k) for t, k in cases]
    no_weight_multisets(monkeypatch)
    for (t, k), mv in zip(cases, want):
        assert branching_by_blocks(t, k) == mv, (t, k)


@st.composite
def types_of_sl15_to_sl40(draw):
    n = draw(st.integers(min_value=15, max_value=40))
    blocks = [draw(st.integers(min_value=2, max_value=n))]
    while (left := n - sum(blocks)) > 0:
        blocks.append(draw(st.integers(min_value=1, max_value=left)))
    return SubalgebraType(tuple(blocks))


@settings(max_examples=40, deadline=None)
@given(types_of_sl15_to_sl40())
def test_branching_k2_general_matches_the_weight_multiset_up_to_sl40(t):
    want = fundamental_branching(t, 2)
    with pytest.MonkeyPatch.context() as monkeypatch:
        no_weight_multisets(monkeypatch)
        assert branching_by_blocks(t, 2) == want, t


def test_branching_k2_general_leaves_the_fundamental_memo_alone():
    for blocks in ((3, 2), (4, 3, 1), (5, 5), (7, 2, 2, 1), (6,) * 3):
        before = fundamental._fundamental.cache_info()
        branching_by_blocks(SubalgebraType(blocks), 2)
        assert fundamental._fundamental.cache_info() == before, blocks


def test_branching_hook():
    assert branching_by_blocks(SubalgebraType((3, 1, 1)), 2) == {0: 1, 2: 3}
    # degenerate hook: a single block is just the principal branching
    for r in range(2, 8):
        for k in range(1, r):
            assert branching_by_blocks(SubalgebraType((r,)), k) == fundamental_branching(
                SubalgebraType((r,)), k
            )


def test_branching_hook_matches_multiset():
    for n in range(3, 10):
        for t in all_types(n):
            if any(d != 1 for d in t.blocks[1:]):
                continue
            for k in range(1, n // 2 + 1):
                assert branching_by_blocks(t, k) == fundamental_branching(t, k), (t, k)


def test_branching_two_blocks():
    assert branching_by_blocks(SubalgebraType((4, 3)), 3) == FUND_43_K3
    for r in range(2, 7):
        t = SubalgebraType((r, 1))
        assert branching_by_blocks(t, 1) == {r - 1: 1, 0: 1}
    assert branching_by_blocks(SubalgebraType((3, 2)), 2) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_branching_two_blocks_matches_multiset():
    for n in range(3, 10):
        for t in all_types(n):
            if len(t.blocks) != 2:
                continue
            for k in range(1, n // 2 + 1):
                assert branching_by_blocks(t, k) == fundamental_branching(t, k), (t, k)


def test_dimension_and_summand_count():
    for n in range(2, 9):
        for t in all_types(n):
            for k in range(1, n):
                ms = wedge_weight_multiset(t, k)
                mv = fundamental_branching(t, k)
                assert rep_dimension(mv) == comb(n, k)
                assert sum(mv.values()) == ms.get(0, 0) + ms.get(1, 0)


def test_hermite_reciprocity_principal():
    for n in range(2, 11):
        t = SubalgebraType((n,))
        for k in range(1, n):
            assert fundamental_branching(t, k) == fundamental_branching(t, n - k)


def test_fundamental_branchings_pairwise_distinct_principal():
    for n in range(2, 13):
        t = SubalgebraType((n,))
        seen = {}
        for k in range(1, n // 2 + 1):
            key = tuple(sorted(fundamental_branching(t, k).items()))
            assert key not in seen, (n, k, seen.get(key))
            seen[key] = k


def test_multiset_symmetry_invariant():
    for n in range(2, 9):
        for t in all_types(n):
            for k in range(1, n):
                ms = wedge_weight_multiset(t, k)
                assert all(ms[-w] == c for w, c in ms.items())


def test_verify_principal_above_half_rank_up_to_60():
    # the kernel runs at n - k; strict-count and Cayley-Sylvester read k itself
    for n in range(3, 61):
        for k in sorted({n // 2 + 1, n - 3, n - 2, n - 1}):
            if 2 * k > n:
                mv = fundamental_branching(SubalgebraType((n,)), k, verify=True)
                assert rep_dimension(mv) == comb(n, k), (n, k)


def reference_factor(r, m):
    """Principal Res L(w_m) of sl_r from the memoized weight multiset, w_0 and
    w_r read as F_0."""
    return {0: 1} if m in (0, r) else fundamental._fundamental(SubalgebraType((r,)), m)


def reference_hook(t, k):
    """sum_j C(n - r, j) Res_[r] L(w_{k-j}), the hook form as dict arithmetic."""
    r, ones = t.blocks[0], t.n - t.blocks[0]
    acc = Counter()
    for j in range(max(0, k - r), min(k, ones) + 1):
        for d, m in reference_factor(r, k - j).items():
            acc[d] += comb(ones, j) * m
    return dict(sorted(acc.items()))


def reference_two_blocks(t, k):
    """sum_j Res_[r] L(w_{k-j}) (x) Res_[s] L(w_j) by Clebsch-Gordan products."""
    r, s = t.blocks
    acc = Counter()
    for j in range(min(k, s) + 1):
        acc.update(cg_convolve(reference_factor(r, k - j), reference_factor(s, j)))
    return dict(sorted(acc.items()))


def reference_k2(t):
    """Res L(w_2): each block's own pairs, then one product per straddling pair."""
    acc = Counter()
    for d in t.blocks:
        if d >= 3:
            acc.update(reference_factor(d, 2))
        elif d == 2:
            acc[0] += 1
    for i, di in enumerate(t.blocks):
        for dj in t.blocks[i + 1:]:
            acc.update(cg_convolve({di - 1: 1}, {dj - 1: 1}))
    return dict(sorted(acc.items()))


def assert_closed_forms_match_the_reference(t, k):
    # items, not dicts, so that the keys must also ascend
    got = list(branching_by_blocks(t, k).items())
    if all(d == 1 for d in t.blocks[1:]):
        assert got == list(reference_hook(t, k).items()), (t, k)
    if len(t.blocks) == 2:
        assert got == list(reference_two_blocks(t, k).items()), (t, k)


def test_packed_closed_forms_match_dict_products_up_to_sl14():
    for n in range(3, 15):
        for t in all_types(n):
            assert list(branching_by_blocks(t, 2).items()) == list(reference_k2(t).items()), t
            for k in range(1, n // 2 + 1):
                assert_closed_forms_match_the_reference(t, k)


@st.composite
def hooks_and_two_blocks(draw):
    n = draw(st.integers(min_value=15, max_value=40))
    if draw(st.booleans()):
        r = draw(st.integers(min_value=2, max_value=n))
        t = SubalgebraType((r,) + (1,) * (n - r))
    else:
        s = draw(st.integers(min_value=1, max_value=n // 2))
        t = SubalgebraType((n - s, s))
    return t, draw(st.integers(min_value=1, max_value=n // 2))


@settings(max_examples=30, deadline=None)
@given(hooks_and_two_blocks())
def test_packed_closed_forms_match_dict_products_up_to_sl40(case):
    t, k = case
    assert_closed_forms_match_the_reference(t, k)
    if k == 2:
        assert list(branching_by_blocks(t, 2).items()) == list(reference_k2(t).items()), t


@pytest.mark.parametrize(
    "blocks", [(40, 30), (40,) + (1,) * 30, (20, 15, 10, 10, 5, 3, 2) + (1,) * 5]
)
def test_packed_closed_forms_match_dict_products_wider_than_64_bits(blocks):
    # C(70, 35) > 2**64: the rows are spread at 9 bytes a digit, and the
    # seven-block type runs the DP through six blocks before the last
    assert width(comb(70, 35)) == 9
    t = SubalgebraType(blocks)
    assert_closed_forms_match_the_reference(t, 35)
    assert branching_by_blocks(t, 35) == fundamental_branching(t, 35)


def move_one_multiplicity(monkeypatch, t, k):
    """Make the memoized Res L(w_k) of t move one copy of its top F_j up to F_{j+1}."""
    real = fundamental._fundamental

    def moved(u, m):
        result = dict(real(u, m))
        if (u, m) == (t, k):
            top = max(result)
            result[top] -= 1
            result[top + 1] = 1
        return {j: c for j, c in sorted(result.items()) if c}

    monkeypatch.setattr(fundamental, "_fundamental", moved)


@pytest.mark.parametrize("blocks, k, family", [
    ((5, 1, 1, 1), 3, "hook"),
    ((2, 1, 1), 1, "hook"),
    ((5, 3), 3, "two-blocks"),
    ((4, 4), 1, "two-blocks"),
])
def test_a_moved_multiplicity_fails_its_closed_form(monkeypatch, blocks, k, family):
    # every family of types goes to the one block-product form
    t = SubalgebraType(blocks)
    fundamental_branching(t, k, verify=True)
    move_one_multiplicity(monkeypatch, t, k)
    with pytest.raises(ClosedFormMismatchError, match="closed form blocks disagrees"):
        fundamental_branching(t, k, verify=True)
