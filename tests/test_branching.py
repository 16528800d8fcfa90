import contextlib
import re
import sys
from itertools import combinations_with_replacement, product
from math import comb
from operator import add, eq

import pytest
from hypothesis import example, given, settings, strategies as st

from branchkit import (
    BranchEngine,
    DominantWeight,
    InternalConsistencyError,
    SubalgebraType,
    all_types,
    branch,
    cg_convolve,
    clear_cache,
    dim_irrep,
    highest_component,
    iter_dominant_weights,
    lex_max_member,
    lowest_component,
    oracle_branch,
    partition_to_omega,
    principal_highest_component,
    rep_dimension,
)
from branchkit import branching, fundamental, pieri_set, qcomb
from branchkit.fundamental import fundamental_branching, wedge_character
from branchkit.qcomb import _row, pack, spread_row, width
from branchkit.sl2 import mv_subtract
from branchkit.tables import Table, footprint
from branchkit.weights import dual_weight, iter_partitions, padded_partition
from test_qcomb import principal_by_hook_content


def test_cg_convolve_spin_halves():
    assert cg_convolve({1: 1}, {1: 1}) == {0: 1, 2: 1}


def test_cg_convolve_identity():
    v = {0: 2, 3: 1, 7: 4}
    assert cg_convolve({0: 1}, v) == v
    assert cg_convolve(v, {0: 1}) == v


def test_cg_convolve_square_of_f2_plus_f6():
    v = {2: 1, 6: 1}
    assert cg_convolve(v, v) == {0: 2, 2: 2, 4: 4, 6: 3, 8: 3, 10: 1, 12: 1}


def test_cg_convolve_dimension_multiplicative():
    a = {1: 2, 4: 1}
    b = {0: 1, 3: 3, 5: 1}
    assert rep_dimension(cg_convolve(a, b)) == rep_dimension(a) * rep_dimension(b)


def cg_by_triple_loop(a, b):
    """Reference: every F_d of every run F_|j-j'| + ... + F_{j+j'}, one at a time."""
    out = {}
    for j, mj in a.items():
        for jp, mp in b.items():
            for d in range(abs(j - jp), j + jp + 1, 2):
                out[d] = out.get(d, 0) + mj * mp
    return out


sparse_vectors = st.dictionaries(st.integers(0, 80), st.integers(1, 5), max_size=6)


@settings(max_examples=300, deadline=None)
@given(sparse_vectors, sparse_vectors)
@example({}, {})
@example({}, {3: 1})
@example({500: 1}, {1: 1})
@example({1: 1}, {500: 1})
@example({500: 2, 3: 1}, {499: 1, 0: 4})
@example({0: 1, 1: 2, 2: 3, 7: 1}, {1: 1, 4: 2})
def test_cg_convolve_matches_the_triple_loop(a, b):
    got = cg_convolve(a, b)
    assert got == cg_by_triple_loop(a, b)
    assert list(got) == sorted(got)
    assert rep_dimension(got) == rep_dimension(a) * rep_dimension(b)


def test_mv_subtract_raises_on_negative():
    with pytest.raises(InternalConsistencyError):
        mv_subtract({2: 1}, {2: 2})
    with pytest.raises(InternalConsistencyError):
        mv_subtract({2: 1}, {4: 1})
    assert mv_subtract({2: 3, 4: 1}, {2: 3}) == {4: 1}
    assert list(mv_subtract({0: 1, 2: 3, 4: 1, 6: 2}, {4: 1, 2: 1})) == [0, 2, 6]


def test_branch_principal_sl5_spot_values():
    t = SubalgebraType((5,))
    assert branch(t, DominantWeight(5, (2, 0, 0, 0))) == {0: 1, 4: 1, 8: 1}
    assert branch(t, DominantWeight(5, (1, 0, 0, 1))).get(0, 0) == 0
    assert branch(t, DominantWeight(5, (2, 0, 1, 0))).get(0, 0) == 0


def test_branch_type_32_spot_values():
    t = SubalgebraType((3, 2))
    assert branch(t, DominantWeight(5, (1, 0, 0, 1))).get(1, 0) == 2
    assert branch(t, DominantWeight(5, (2, 0, 0, 0))) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    full = branch(t, DominantWeight(5, (2, 0, 1, 0)))
    assert full[1] == 5
    # full vector frozen from the tableau oracle; dimension 126
    assert full == {0: 3, 1: 5, 2: 6, 3: 6, 4: 5, 5: 4, 6: 2, 7: 1}
    assert rep_dimension(full) == 126


def test_branch_base_cases():
    t = SubalgebraType((4, 2))
    assert branch(t, DominantWeight.zero(6)) == {0: 1}
    assert branch(t, DominantWeight.omega(6, 2)) == oracle_branch(t, DominantWeight.omega(6, 2))


def test_branch_rank_mismatch():
    with pytest.raises(ValueError):
        branch(SubalgebraType((3, 2)), DominantWeight(4, (1, 0, 0)))


def test_highest_lowest_component():
    assert highest_component({2: 1, 6: 1}) == 6
    assert lowest_component({2: 1, 6: 1}) == 2
    assert highest_component({0: 1}) == lowest_component({0: 1}) == 0
    assert lowest_component({0: 1, 1: 1, 2: 1, 3: 1}) == 0
    with pytest.raises(ValueError):
        highest_component({})
    with pytest.raises(ValueError):
        lowest_component({})


def test_principal_highest_component_examples():
    assert principal_highest_component(DominantWeight.omega(5, 1)) == 4
    assert principal_highest_component(DominantWeight.omega(5, 2)) == 6
    assert principal_highest_component(DominantWeight(5, (2, 0, 1, 0))) == 14


def test_principal_highest_and_lowest_on_grid():
    for n in (3, 4, 5):
        t = SubalgebraType((n,))
        engine = BranchEngine()
        for w in iter_dominant_weights(n, 6):
            v = engine.branch(t, w)
            assert highest_component(v) == principal_highest_component(w), w
            assert lowest_component(v) < n, w


def test_oracle_equivalence_small_grid():
    for n in (3, 4):
        for t in all_types(n):
            engine = BranchEngine()
            for w in iter_dominant_weights(n, 5):
                assert engine.branch(t, w) == oracle_branch(t, w), (t, w)


def test_pivot_rules_agree():
    # splitting off the smallest k on lambda takes the steps of the largest k
    # on lambda*: the dict recursion on both sides runs both rules' trees
    engine = BranchEngine()
    for n in (3, 4):
        for t in all_types(n):
            for w in iter_dominant_weights(n, 5):
                lam = padded_partition(w)
                want = branch_by_dicts(t, lam, {})
                assert branch_by_dicts(t, dual_partition(lam), {}) == want, (t, w)
                assert engine.branch(t, w) == want, (t, w)


def test_branch_self_dual():
    for n in (3, 4, 5):
        for t in all_types(n):
            for w in iter_dominant_weights(n, 6):
                assert branch(t, w) == branch(t, dual_weight(w)), (t, w)


@st.composite
def any_type_small_weight(draw):
    rank = draw(st.integers(3, 7))
    t = draw(st.sampled_from(all_types(rank)))
    coeffs = draw(st.lists(st.integers(0, 2), min_size=rank - 1, max_size=rank - 1))
    return t, DominantWeight(rank, tuple(coeffs))


@settings(max_examples=40, deadline=None)
@given(any_type_small_weight())
def test_branch_dimension_matches_weyl(case):
    t, w = case
    assert rep_dimension(branch(t, w)) == dim_irrep(w)


@settings(max_examples=40, deadline=None)
@given(any_type_small_weight())
def test_dual_weight_branches_alike(case):
    # L(w)* has highest weight dual_weight(w), and sl_2 modules are self-dual
    t, w = case
    assert branch(t, w) == branch(t, dual_weight(w))


@st.composite
def small_type_and_weight(draw):
    n = draw(st.integers(3, 5))
    t = draw(st.sampled_from(all_types(n)))
    w = draw(st.sampled_from(list(iter_dominant_weights(n, 6))))
    return t, w


@settings(max_examples=60, deadline=None)
@given(small_type_and_weight())
def test_both_pivots_match_oracle(case):
    t, w = case
    lam = padded_partition(w)
    want = oracle_branch(t, w)
    assert BranchEngine().branch(t, w) == want
    assert branch_by_dicts(t, lam, {}) == branch_by_dicts(t, dual_partition(lam), {}) == want


def test_engine_cache_statistics():
    engine = BranchEngine()
    t = SubalgebraType((3, 2))
    w = DominantWeight(5, (2, 0, 1, 0))
    engine.branch(t, w)
    computed_cold = engine.stats["computed"]
    assert computed_cold > 0
    engine.stats = {"computed": 0, "hits": 0}
    engine.branch(t, w)
    assert engine.stats["computed"] == 0  # fully warm: one top-level hit, no recursion
    assert engine.stats["hits"] == 1


def test_warm_cache_can_be_transplanted():
    donor = BranchEngine()
    t = SubalgebraType((4, 1))
    w = DominantWeight(5, (1, 1, 0, 0))
    expected = donor.branch(t, w)
    recipient = BranchEngine(cache=dict(donor.cache))
    assert recipient.branch(t, w) == expected
    assert recipient.stats["computed"] == 0


def test_inconsistency_names_the_type_and_weight():
    # principal sl_3: lambda = (2) = (1) + w_1, and Res L(1) (x) Res L(w_1) =
    # F_2 (x) F_2 is Res L(2) = F_0 + F_4 plus the lower Pieri member
    # Res L(1, 1) = F_2; doubling that member's entry drives F_2 to -1
    t = SubalgebraType((3,))
    w = partition_to_omega((2,), 3)
    engine = BranchEngine()
    assert engine.branch(t, DominantWeight.omega(3, 2)) == {2: 1}
    # `cache` hands out a decoded copy of the memo; assigning replaces the memo
    engine.cache = {**engine.cache, (3, (3,), (1, 1)): {2: 2}}
    with pytest.raises(InternalConsistencyError) as info:
        engine.branch(t, w)
    assert str(info.value) == "multiplicity of F_2 went negative (-1) in branch([3], (2,))"


def test_principal_sl300_of_two_rows():
    # a few Clebsch-Gordan products of long vectors (top component 1788):
    # one difference-array step per pair of components keeps this well
    # under a second (one step per component of every run: 19-23 s, 2-vCPU VM)
    n = 300
    w = partition_to_omega((3, 3), n)
    v = BranchEngine().branch(SubalgebraType((n,)), w)
    assert rep_dimension(v) == dim_irrep(w)
    assert highest_component(v) == principal_highest_component(w)


@pytest.mark.parametrize("half", ["largest", "smallest"])
def test_fresh_engine_reads_every_fundamental_off_its_wedge_character(half):
    # the smallest k <= n / 2 are solved as asked; w_k for the largest k, past
    # n / 2, is the dual of w_{n-k}, of fewer boxes: that is solved
    for n in range(2, 10):
        ks = range(1, n // 2 + 1) if half == "smallest" else range(n // 2 + 1, n)
        for t in all_types(n):
            for k in ks:
                engine = BranchEngine()
                got = engine.branch(t, DominantWeight.omega(n, k))
                assert got == fundamental_branching(t, k), (t, k)
                assert list(engine.cache) == [(n, t.blocks, (1,) * min(k, n - k))], (t, k)


def test_clear_cache_forgets_fundamentals(monkeypatch):
    t = SubalgebraType((5,))
    w = DominantWeight(5, (0, 1, 0, 0))
    assert branch(t, w) == fundamental_branching(t, 2) == {2: 1, 6: 1}
    clear_cache()
    stats = branching._DEFAULT_ENGINE.stats
    computed = stats["computed"]
    assert branch(t, w) == {2: 1, 6: 1}
    assert stats["computed"] == computed + 1  # the shared engine did not serve it
    calls = []
    real = fundamental.wedge_character

    def counting(t, k, w):
        calls.append(k)
        return real(t, k, w)

    monkeypatch.setattr(fundamental, "wedge_character", counting)
    assert fundamental_branching(t, 2) == {2: 1, 6: 1}
    assert calls == [2]  # nor did the fundamental memo


def dual_partition(lam):
    """The padded lambda* of padded lambda, the highest weight of L(lambda)*."""
    return tuple(lam[0] - x for x in reversed(lam))


def branch_by_dicts(t, lam, memo):
    """Reference: the recursion on {j: m_j} dicts over memo, as the engine ran
    it before its memo held packed numerators, splitting off the largest k and
    never swapping lam for its dual."""
    key = (t.n, t.blocks, lam[: lam.index(0)])
    if key not in memo:
        k = lam.index(0)
        if lam[0] <= 1:
            memo[key] = fundamental_branching(t, k) if lam[0] else {0: 1}
        else:
            prev = tuple(x - 1 for x in lam[:k]) + lam[k:]
            lower = {}
            for mu in pieri_set(prev, k):
                if mu != lam:
                    for j, m in branch_by_dicts(t, mu, memo).items():
                        lower[j] = lower.get(j, 0) + m
            product = cg_convolve(branch_by_dicts(t, prev, memo), fundamental_branching(t, k))
            memo[key] = mv_subtract(product, lower)
    return memo[key]


def test_sl3_row_of_six_on_a_fresh_engine():
    # (6) = (5) + w_1 needs Res L(5, 1), whose dimension 35 exceeds dim L(6) = 28:
    # no bound read off the queried weight alone holds for every subproblem
    t = SubalgebraType((3,))
    w = partition_to_omega((6,), 3)
    assert BranchEngine().branch(t, w) == oracle_branch(t, w) == {12: 1, 8: 1, 4: 1, 0: 1}


def test_memo_transplanted_through_cache_packs_its_dicts_on_use():
    t = SubalgebraType((3, 2))
    donor = BranchEngine()
    donor.branch(t, partition_to_omega((3, 1), 5))
    handed = donor.cache
    assert handed and all(type(mv) is dict for mv in handed.values())
    recipient = BranchEngine(cache=handed)
    w = partition_to_omega((4, 2, 1), 5)
    assert recipient.branch(t, w) == BranchEngine().branch(t, w) == oracle_branch(t, w)
    assert recipient.stats["hits"] > 0
    # the recipient packed what it used, yet neither memo it handed out changed
    assert all(type(mv) is dict for mv in recipient.cache.values())
    assert handed == donor.cache


@pytest.mark.parametrize(
    "entry", [{0: -1}, {0: 1.5}, {-2: 1}, {}, {2: True}, {0: 1, 2: 0}, [3], {"0": 1}]
)
def test_a_malformed_entry_is_rejected_when_set(entry):
    # every entry is checked at assignment, before any query could answer from
    # it: an empty one would answer principal sl_3 omega_1 with {}
    memo = {(3, (3,), ()): {0: 1}, (3, (3,), (1,)): entry}
    named = r"cache entry \(3, \(3,\), \(1,\)\)"
    with pytest.raises(ValueError, match=named):
        BranchEngine(cache=memo)
    engine = BranchEngine()
    with pytest.raises(ValueError, match=named):
        engine.cache = memo
    assert engine.branch(SubalgebraType((3,)), DominantWeight.omega(3, 1)) == {2: 1}


def test_a_malformed_entry_of_the_queried_weight_is_rejected():
    # the entry would answer the query itself, with no step above it to check
    # it, so it is refused at assignment and the engine's empty memo stays
    engine = BranchEngine()
    with pytest.raises(ValueError, match=r"cache entry \(3, \(3,\), \(1,\)\)"):
        engine.cache = {(3, (3,), (1,)): {0: -1}}
    assert engine.cache == {}
    assert engine.branch(SubalgebraType((3,)), DominantWeight.omega(3, 1)) == {2: 1}


def test_branch_and_cache_hand_out_copies():
    engine = BranchEngine()
    t = SubalgebraType((4,))
    w = partition_to_omega((2, 1), 4)
    got = engine.branch(t, w)
    got[0] = 99
    engine.cache[(4, (4,), (2, 1))][0] = 99
    assert engine.branch(t, w) == oracle_branch(t, w)
    # and the setter keeps copies: a checked entry cannot be changed afterwards
    given = {(4, (4,), (1,)): {3: 1}}
    engine.cache = given
    given[4, (4,), (1,)][3] = -1
    assert engine.branch(t, w) == oracle_branch(t, w)


def test_a_repeat_query_decodes_nothing(monkeypatch):
    # branch stores its decoded answer back, so a repeat query is a dict copy
    engine = BranchEngine()
    t = SubalgebraType((3, 1))
    w = partition_to_omega((3, 2), 4)
    first = engine.branch(t, w)
    monkeypatch.setattr(branching, "digits", None)
    assert engine.branch(t, w) == first


@pytest.mark.parametrize("big", [2**13, 2**15 - 1, 2**31 - 1, 10**40])
def test_entries_wider_than_the_estimate_widen_the_memo(big):
    # a transplanted omega_1 entry of multiplicities big (wrong, but the
    # engine trusts entries that pass its checks) does not fit the width that
    # dim L(3) suggests, or leaves no room for the product by omega_1, where
    # two of its components meet in F_2: the engine repacks its memo at
    # doubled widths, restarts the query, and answers as the dict recursion does
    t, u = SubalgebraType((3,)), SubalgebraType((2, 1))
    memo = {(3, (3,), (1,)): {0: big, 2: big}}
    engine = BranchEngine(cache=memo)
    assert engine.branch(u, partition_to_omega((3, 1), 3)) == oracle_branch(
        u, partition_to_omega((3, 1), 3))
    got = engine.branch(t, partition_to_omega((3,), 3))
    assert got == branch_by_dicts(t, (3, 0, 0), dict(memo))
    assert got[6] == big
    # the entries of type u, packed at the narrow width, were repacked
    w = partition_to_omega((4, 2), 3)
    assert engine.branch(u, w) == BranchEngine().branch(u, w) == oracle_branch(u, w)


def test_the_product_is_certified_before_the_multiply():
    # in type [2,1,1,1], omega_1 = F_1 + 3 F_0, so an entry big F_0 times it has
    # a digit 3 big: at big = 30000 the entry fits two bytes with the top bit
    # clear, while 3 big wraps to 24464 and carries, every top bit still clear;
    # only the check before the multiply sees that the product has no room
    t = SubalgebraType((2, 1, 1, 1))
    memo = {(5, t.blocks, (1,)): {0: 30000}}
    got = BranchEngine(cache=memo).branch(t, partition_to_omega((2,), 5))
    assert got == branch_by_dicts(t, (2, 0, 0, 0, 0), dict(memo))


@st.composite
def query_sequences(draw):
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 8))
        t = draw(st.sampled_from(all_types(n)))
        boxes = draw(st.integers(0, 14 if n <= 4 else 7))
        lam = draw(st.sampled_from(list(iter_partitions(boxes, n - 1))))
        queries.append((t, partition_to_omega(lam, n)))
    return queries


@settings(max_examples=60, deadline=None)
@given(query_sequences())
def test_a_shared_engine_answers_as_fresh_ones(queries):
    # weights of growing dimension widen the shared memo, and a queried
    # weight's entry, stored back as a dict, is packed when a later query uses it
    shared = BranchEngine()
    for t, w in queries:
        got = shared.branch(t, w)
        assert got == BranchEngine().branch(t, w), (t, w)
        if dim_irrep(w) < 2000:
            assert got == oracle_branch(t, w), (t, w)
    assert shared.branch(*queries[0]) == BranchEngine().branch(*queries[0])


def frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_depth_does_not_need_the_recursion_limit():
    # principal sl_2 (m) is m steps deep, and they all run 50 frames above here
    t, engine = SubalgebraType((2,)), BranchEngine()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        answer = engine.branch(t, partition_to_omega((1000,), 2))
    finally:
        sys.setrecursionlimit(limit)
    assert answer == {1000: 1}
    assert engine.stats == {"computed": 1001, "hits": 998}


@pytest.mark.parametrize(
    "blocks, lam", [((3,), (600, 3)), ((2, 1), (600, 2)), ((2,), (1000,)), ((3,), (600,))]
)
def test_long_rows_under_a_raised_recursion_limit(blocks, lam):
    # 600 to 1000 steps deep, at the interpreter's default recursion limit
    t = SubalgebraType(blocks)
    w = partition_to_omega(lam, t.n)
    got = BranchEngine().branch(t, w)
    assert rep_dimension(got) == dim_irrep(w)
    if len(blocks) == 1:
        assert got == principal_by_hook_content(w)[0]


@pytest.mark.parametrize("key, entry", [
    ((3, (3,), (1, 0)), {0: 3}),  # a trailing zero, and wrong for omega_1
    ((3, (3,), (1, 1, 1)), {0: 1}),  # n parts
    ((4, (4,), (2, 0, 1)), {5: 1}),  # a zero inside
    ((3, (3,)), {0: 1}),
    ("3|3|1", {0: 3}),
    ((4, (3,), (1,)), {2: 1}),  # blocks of another rank
    ((6, (2, 4), (1,)), {1: 1, 3: 1}),  # blocks not sorted
])
def test_cache_rejects_keys_it_would_never_look_up(key, entry):
    # branch looks up (n, blocks, lambda) with blocks a type of sl_n and lambda
    # a partition of fewer than n parts without trailing zeros, and no other key
    named = "cache entry " + re.escape(repr(key))
    with pytest.raises(ValueError, match=named):
        BranchEngine(cache={key: entry})
    t, w = SubalgebraType((3,)), partition_to_omega((2,), 3)
    engine = BranchEngine()
    answer = engine.branch(t, w)
    before, stats = engine.cache, dict(engine.stats)
    with pytest.raises(ValueError, match=named):
        engine.cache = {**before, key: entry}
    # a rejected assignment leaves the memo, the counters and the answers kept
    assert engine.cache == before
    assert engine.stats == stats
    assert engine.branch(t, w) == answer
    assert engine.stats == {"computed": stats["computed"], "hits": stats["hits"] + 1}


def test_cache_rejects_a_j_above_the_top_weight():
    # lambda's top weight, sum lambda_i h_(i) with h sorted descending, is the
    # largest j of every true entry; packing {10**12: 1} for (2) of principal
    # sl_3, top weight 4, would take 10**12 bytes and more
    key = (3, (3,), (2,))
    with pytest.raises(ValueError, match=re.escape(f"cache entry {key!r} has j = 10")):
        BranchEngine(cache={key: {10**12: 1}})
    engine = BranchEngine()
    for t in all_types(4):
        for w in iter_dominant_weights(4, 4):
            engine.branch(t, w)
    entries = engine.cache
    for key, mv in entries.items():
        top = max(mv)
        above = re.escape(f"has j = {top + 1}, above the top weight {top}")
        with pytest.raises(ValueError, match=above):
            BranchEngine(cache={key: {**mv, top + 1: 1}})
    assert BranchEngine(cache=entries).cache == entries


@settings(max_examples=30, deadline=None)
@given(query_sequences())
def test_an_engine_takes_back_whatever_cache_hands_out(queries):
    # trivial keys (n, blocks, ()) and types with unit blocks included
    donor = BranchEngine()
    answers = [donor.branch(t, w) for t, w in queries]
    recipient = BranchEngine(cache=donor.cache)
    assert [recipient.branch(t, w) for t, w in queries] == answers
    assert recipient.stats["computed"] == 0
    assert recipient.cache == donor.cache


def test_the_strip_table_gives_every_lower_pieri_member():
    # every padded lambda' of sl_2..sl_9 with parts <= 5, and every k, from
    # the shared table: the differences mu - lambda' depend on lambda' only
    # through k and its equal adjacent rows
    cases = 0
    for n in range(2, 10):
        for rows in combinations_with_replacement(range(5, -1, -1), n - 1):
            prev = rows + (0,)
            for k in range(1, n):
                strips = branching._lower_strips(k, *map(eq, prev, prev[1:]))
                got = [tuple(map(add, prev, d)) for d in strips]
                assert len(got) == len(set(got)), (prev, k)
                assert set(got) == pieri_set(prev, k) - {lex_max_member(prev, k)}, (prev, k)
                cases += 1
    assert cases == 20592


# each process-wide table sized in bytes, by name, and the module that holds it
# as _<name>
TABLE_OWNERS = {"characters": branching, "shapes": branching, "strips": branching,
                "spread_rows": qcomb}


@contextlib.contextmanager
def fresh_tables(bound=None):
    """Every process-wide table of branching, and qcomb's row table, swapped
    for an empty one of `bound` bytes (of its own bound by default), the
    process's own put back.  Yields the new tables by name."""
    tables = {name: Table(getattr(owner, f"_{name}").bound if bound is None else bound)
              for name, owner in TABLE_OWNERS.items()}
    with pytest.MonkeyPatch.context() as mp:
        for name, owner in TABLE_OWNERS.items():
            mp.setattr(owner, f"_{name}", tables[name])
        yield tables


def assert_bounded(table):
    """table's size is the sum of the sizes it was given, within its bound, and
    it keeps no value over a quarter of that."""
    assert len(table.entries) == len(table.order)
    assert table.size == sum(size for _, size in table.order) <= table.bound
    assert all(size <= table.bound // 4 for _, size in table.order)


def counting_pieri_set(monkeypatch):
    """The patterns branching.pieri_set is called on."""
    calls = []
    real = branching.pieri_set

    def counting(prev, k):
        calls.append((k, *map(eq, prev, prev[1:])))
        return real(prev, k)

    monkeypatch.setattr(branching, "pieri_set", counting)
    return calls


def test_pieri_set_runs_once_per_pattern_of_the_process(monkeypatch):
    calls = counting_pieri_set(monkeypatch)
    queries = [(t, w) for t in all_types(6) for w in iter_dominant_weights(6, 6)]
    # an empty strip table, and an empty shape table in front of it: a shape
    # it holds calls nothing
    with fresh_tables() as tables:
        engine = BranchEngine()
        answers = [engine.branch(t, w) for t, w in queries]
        assert calls and len(calls) == len(set(calls))
        assert len(tables["strips"].entries) == tables["strips"].misses == len(calls)
        # the table outlives the engine and clear_cache: a fresh engine takes
        # every pattern from it
        calls.clear()
        clear_cache()
        fresh = BranchEngine()
        assert [fresh.branch(t, w) for t, w in queries] == answers
        assert calls == []


def test_strip_table_is_bounded():
    # the 2**11 patterns of k = 1 in sl_12 take more than a 64 KiB table
    with fresh_tables(2**16) as tables:
        strips = tables["strips"]
        for eqs in product((False, True), repeat=11):
            branching._lower_strips(1, *eqs)
        assert strips.misses == 2**11 and strips.evictions > 0
        assert_bounded(strips)
        assert strips.size == sum(footprint(key, strips.entries[key]) for key, _ in strips.order)
        # sl_13's k = 6 pattern with all rows distinct, 260 KB, is past a quarter
        # of the bound: it is returned, but not kept
        prev = tuple(range(12, -1, -1))
        eqs = tuple(map(eq, prev, prev[1:]))
        kept = list(strips.order)
        got = branching._lower_strips(6, *eqs)
        assert footprint((6, eqs), got) > 260000
        assert len(got) == 1715
        want = pieri_set(prev, 6) - {lex_max_member(prev, 6)}
        assert {tuple(map(add, prev, d)) for d in got} == want
        assert list(strips.order) == kept and (6, eqs) not in strips.entries


def test_row_table_is_bounded_and_counts_its_misses():
    # the rows (d - m, m) of every block up to 40 at width 5 take more than a
    # 64 KiB table; each is the packed row of its key
    keys = [(d - m, m, 5) for d in range(2, 41) for m in range(d + 1)]
    with fresh_tables(2**16) as tables:
        rows = tables["spread_rows"]
        for key in keys:
            spread_row(*key)
        assert rows.misses == len(keys) and rows.evictions > 0
        assert_bounded(rows)
        assert rows.size == sum(footprint(key, rows.entries[key]) for key, _ in rows.order)
        for (n, k, w), x in rows.entries.items():
            assert x == pack({2 * d: c for d, c in enumerate(_row(n, k))}, w), (n, k, w)
        # a kept row is read without a miss
        spread_row(*keys[-1])
        assert rows.misses == len(keys)
        # the row (40, 40) at width 9, 28 KB, is past a quarter of the bound:
        # it is returned, but not kept
        kept = list(rows.order)
        got = spread_row(40, 40, 9)
        assert footprint((40, 40, 9), got) > 2**16 // 4
        assert got == pack({2 * d: c for d, c in enumerate(_row(40, 40))}, 9)
        assert list(rows.order) == kept and rows.misses == len(keys) + 1


def test_the_row_table_outlives_clear_cache():
    # a packed row is fixed by its key and holds no answer
    pairs = [(t, k) for n in range(3, 9) for t in all_types(n)[1:] for k in range(1, n)]
    with fresh_tables() as tables:
        rows = tables["spread_rows"]
        answers = [fundamental_branching(t, k, verify=True) for t, k in pairs]
        kept = dict(rows.entries), rows.misses
        assert kept[1] == len(kept[0]) > 0
        clear_cache()
        assert [fundamental_branching(t, k, verify=True) for t, k in pairs] == answers
        assert (rows.entries, rows.misses, rows.evictions) == (*kept, 0)


def assert_tables_hold_what_they_are_keyed_by(tables):
    characters = tables["characters"]
    sizes = dict(characters.order)
    for (blocks, k, w), (c, top, guard) in characters.entries.items():
        t = SubalgebraType(blocks)
        assert (c, top) == wedge_character(t, k, w), (blocks, k, w)
        assert guard == comb(t.n, k).bit_length() + 1 and width(comb(t.n, k)) <= w
        assert sizes[blocks, k, w] == footprint((blocks, k, w), (c, top, guard))
    assert_bounded(characters)


def held_bytes(table):
    """What sys.getsizeof counts for table's dict and order and for every
    distinct object reachable from them through tuples, less the cached small
    ints and bools, which the interpreter holds whether or not the table does."""
    seen = {id(x) for x in (*range(-5, 257), True, False, None)}
    stack, total = [table.entries, table.order, *table.order, *table.entries.values()], 0
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            total += sys.getsizeof(x)
            if type(x) is tuple:
                stack.extend(x)
    return total


def test_each_table_counts_at_least_what_it_holds():
    # characters at several widths, strip patterns, and shapes with parts past
    # the small ints; the rows of the block-product check on sl_3..sl_12
    queries = [(t, w) for n in range(3, 7) for t in all_types(n) for w in iter_dominant_weights(n, 5)]
    queries += [(SubalgebraType((3,)), partition_to_omega((60, 30), 3)),
                (SubalgebraType((2, 1)), partition_to_omega((300,), 3)),
                (SubalgebraType((3,)), partition_to_omega((300, 290), 3))]
    with fresh_tables() as tables:
        for t, w in queries:
            BranchEngine().branch(t, w)
        for n in range(3, 13):
            for t in all_types(n)[1:]:
                for k in range(1, n):
                    fundamental_branching(t, k, verify=True)
        for name in ("characters", "strips", "shapes", "spread_rows"):
            table = tables[name]
            assert table.entries and table.evictions == 0, name
            assert table.size >= held_bytes(table), name
    # churned: tables of 20000 bytes that drop and add at their bound, whose
    # dicts stay larger than a growing table's; characters held 12792 bytes
    # against 19552 counted, shapes 17568 against 19920
    with fresh_tables(20000) as tables:
        for t, w in queries:
            BranchEngine().branch(t, w)
        for name in ("characters", "shapes"):
            table = tables[name]
            assert table.evictions > 0, name
            assert table.size >= held_bytes(table), name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_each_character_entry_is_the_wedge_character_at_its_width(data):
    with fresh_tables() as tables:
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(2, 8))
            t = data.draw(st.sampled_from(all_types(n)))
            k = data.draw(st.integers(1, n - 1))
            w = data.draw(st.integers(width(comb(n, k)), 9))
            engine = BranchEngine()
            engine._widen(w)
            got = engine._character(t, k)
            assert got == (*wedge_character(t, k, w), comb(n, k).bit_length() + 1)
            assert tables["characters"].entries[t.blocks, k, w] == got
        for t, w in data.draw(query_sequences()):
            BranchEngine().branch(t, w)
        assert_tables_hold_what_they_are_keyed_by(tables)


# wrong, but the engine trusts entries that pass its checks
WIDE_ENTRY = {(5, (5,), (1,)): {0: 2**31 - 1, 2: 2**31 - 1, 4: 2**31 - 1}}


def interleaved_answers(schedule, empty_between):
    """Each (engine index, query) of schedule on engines 0 (empty) and 1
    (holding a wide omega_1 entry of principal sl_5, so that its first query,
    (2) of that type, widens it to eight bytes and restarts), with the tables
    emptied before every query or not."""
    engines = [BranchEngine(), BranchEngine(cache=WIDE_ENTRY)]
    schedule = [(1, (SubalgebraType((5,)), partition_to_omega((2,), 5))), *schedule]
    answers = []
    for i, (t, w) in schedule:
        if empty_between:
            with fresh_tables():
                answers.append(engines[i].branch(t, w))
        else:
            answers.append(engines[i].branch(t, w))
    assert engines[1]._w == 8
    return answers


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(
    [(t, w) for n in (2, 3, 4) for t in all_types(n) for w in iter_dominant_weights(n, 9)])),
    min_size=1, max_size=8))
def test_engines_of_every_width_share_the_tables_as_if_each_had_its_own(schedule):
    # engine 0 works at one or two bytes and engine 1 at eight, on the same
    # types, so a character of the wrong width would show
    with fresh_tables() as tables:
        assert interleaved_answers(schedule, False) == interleaved_answers(schedule, True)
        assert {w for _, _, w in tables["characters"].entries} >= {8}
        assert_tables_hold_what_they_are_keyed_by(tables)


def test_a_small_table_keeps_its_bound_and_drops_the_oldest():
    table = Table(100)
    assert table.put("a", 25, "A") == "A"
    for key in "bcd":
        table.put(key, 25, key.upper())
    assert table.size == 100 and table.get("a") == "A"
    table.put("e", 25, "E")  # over the bound: a, the oldest, goes, though just read
    assert list(table.entries) == ["b", "c", "d", "e"] and table.size == 100
    assert table.get("a") is None
    assert (table.hits, table.misses, table.evictions) == (1, 1, 1)
    assert table.put("f", 26, "F") == "F"  # more than a quarter of the bound
    assert "f" not in table.entries and table.size == 100
    table.put("c", 10, "C2")  # a held key keeps its value and its size
    assert table.entries["c"] == "C" and table.size == 100
    assert list(table.order) == [("b", 25), ("c", 25), ("d", 25), ("e", 25)]
    # no read keeps a value: the oldest goes first, as in the oracle's plan table
    assert table.get("c") == "C" and table.get("b") == "B"
    table.put("g", 25, "G")  # b goes, though read last
    assert list(table.entries) == ["c", "d", "e", "g"] and table.get("b") is None
    assert (table.hits, table.misses, table.evictions) == (3, 2, 2)


def test_small_tables_never_exceed_their_bound():
    # every character takes more than a quarter of 256 bytes (principal
    # sl_9's omega_3 at width 2 takes 452), so none is kept: each is built
    # again at each use
    queries = [(t, w) for n in (6, 9) for t in all_types(n) for w in iter_dominant_weights(n, 3)]
    want = [BranchEngine().branch(t, w) for t, w in queries]
    with fresh_tables(256) as tables:
        sizes = []
        characters = tables["characters"]
        put = characters.put
        characters.put = lambda key, size, value: (sizes.append(size), put(key, size, value))[1]
        assert [BranchEngine().branch(t, w) for t, w in queries] == want
        assert sum(sizes) > 256 and max(sizes) > 256 // 4
        assert_tables_hold_what_they_are_keyed_by(tables)


def test_the_tables_outlive_their_engine_and_clear_cache(monkeypatch):
    calls = []
    real_character = branching.wedge_character
    monkeypatch.setattr(branching, "wedge_character",
                        lambda t, k, w: (calls.append((t.blocks, k, w)), real_character(t, k, w))[1])
    queries = [(t, w) for t in all_types(6) for w in iter_dominant_weights(6, 6)]
    with fresh_tables() as tables:
        answers = [BranchEngine().branch(t, w) for t, w in queries]
        assert calls
        assert len(set(calls)) == len(tables["characters"].entries)
        calls.clear()
        clear_cache()
        assert [BranchEngine().branch(t, w) for t, w in queries] == answers
        assert calls == []


@st.composite
def types_and_weights_to_ten_boxes(draw):
    n = draw(st.integers(3, 9))
    t = draw(st.sampled_from(all_types(n)))
    lam = draw(st.sampled_from(list(iter_partitions(draw(st.integers(0, 10)), n - 1))))
    return t, lam


@settings(max_examples=80, deadline=None)
@given(types_and_weights_to_ten_boxes())
def test_both_pivots_match_the_dict_recursion(case):
    t, lam = case
    lam += (0,) * (t.n - len(lam))
    want = branch_by_dicts(t, lam, {})
    assert BranchEngine().branch(t, partition_to_omega(lam, t.n)) == want
    assert branch_by_dicts(t, dual_partition(lam), {}) == want


@st.composite
def types_and_weights_to_sixteen_boxes(draw):
    n = draw(st.integers(2, 8))
    t = draw(st.sampled_from(all_types(n)))
    lam = draw(st.sampled_from(list(iter_partitions(draw(st.integers(0, 16)), n - 1))))
    return t, lam + (0,) * (n - len(lam))


@settings(max_examples=60, deadline=None)
@given(types_and_weights_to_sixteen_boxes())
@example((SubalgebraType((3, 2)), (4, 4, 1, 1, 0)))  # a tie: its dual (4, 3, 3) has 10 boxes too
def test_a_weight_and_its_dual_answer_as_the_dict_recursion_on_each(case):
    # the engine solves the side with fewer boxes, lambda on a tie, and keeps
    # the answer under the weight asked; the memo holds only the side solved
    t, lam = case
    dual = dual_partition(lam)
    solved, other = (dual, lam) if sum(dual) < sum(lam) else (lam, dual)
    engine = BranchEngine()
    for asked in (lam, dual):
        got = engine.branch(t, partition_to_omega(asked, t.n))
        assert got == branch_by_dicts(t, asked, {}), asked
        keys = engine.cache
        assert (t.n, t.blocks, solved[: solved.index(0)]) in keys
        assert sum(other) == sum(solved) or (t.n, t.blocks, other[: other.index(0)]) not in keys
    assert engine.stats["hits"] >= 1 and len(engine._answers) == len({lam, dual})


def assert_shapes_hold_the_pieri_rule(tables):
    table = tables["shapes"]
    assert_bounded(table)
    for lam, size in table.order:
        k, prev, members = table.entries[lam]
        assert k == lam.index(0), lam
        assert prev == tuple(x - (i < k) for i, x in enumerate(lam)), lam
        assert len(members) == len(set(members))
        assert set(members) == pieri_set(prev, k) - {lam}, lam
        assert size == footprint(lam, table.entries[lam]), lam


@st.composite
def shape_schedules(draw):
    """(engine index, type, weight) of sl_2..sl_8 for the engines of shape_runs;
    engine 1 takes no type of WIDE_ENTRY's, whose wrong entry may rightly make a
    multiplicity negative."""
    schedule = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 8))
        t = draw(st.sampled_from(all_types(n)))
        boxes = draw(st.integers(0, 12 if n <= 4 else 7))
        lam = draw(st.sampled_from(list(iter_partitions(boxes, n - 1))))
        engines = [0, 2] if (n, t.blocks) == (5, (5,)) else [0, 1, 2]
        schedule.append((draw(st.sampled_from(engines)), t, partition_to_omega(lam, n)))
    return schedule


def shape_runs(schedule, tables):
    """Answers, caches and stats of schedule on engines 0 (empty), 1
    (WIDE_ENTRY, widened by its first query) and 2 (cache= of principal sl_4's
    answers up to 4 boxes), with the process-wide tables shared ("shared"),
    emptied before each query ("emptied") or of `tables` bytes each (an int),
    small enough to evict."""
    donor = BranchEngine()
    for w in iter_dominant_weights(4, 4):
        donor.branch(SubalgebraType((4,)), w)
    engines = [BranchEngine(), BranchEngine(cache=WIDE_ENTRY), BranchEngine(cache=donor.cache)]
    schedule = [(1, SubalgebraType((5,)), partition_to_omega((2,), 5)), *schedule]
    answers = []
    with fresh_tables(None if isinstance(tables, str) else tables) as held:
        for i, t, w in schedule:
            if tables == "emptied":
                with fresh_tables() as held:
                    answers.append(engines[i].branch(t, w))
            else:
                answers.append(engines[i].branch(t, w))
        assert_shapes_hold_the_pieri_rule(held)
        assert_tables_hold_what_they_are_keyed_by(held)
        assert_bounded(held["strips"])
    assert engines[1]._w == 8
    return answers, [e.cache for e in engines], [e.stats for e in engines]


@settings(max_examples=40, deadline=None)
@given(shape_schedules())
def test_engines_answer_alike_however_the_shape_tables_are_shared(schedule):
    shared = shape_runs(schedule, "shared")
    assert shape_runs(schedule, "emptied") == shared
    # shrunk, every table (shapes, strips and characters) keeps a few
    # values (3000 bytes) or hardly any (300, less than one shape), dropping
    # the oldest
    assert shape_runs(schedule, 3000) == shared
    assert shape_runs(schedule, 300) == shared


def test_shape_tables_keep_their_bound_and_each_query_its_limit():
    queries = [(t, w) for n in (3, 5) for t in all_types(n) for w in iter_dominant_weights(n, 6)]
    # parts past CPython's small ints, and then a query far past its limit
    queries.append((SubalgebraType((2,)), partition_to_omega((300,), 2)))
    queries.append((SubalgebraType((3,)), partition_to_omega((60, 30), 3)))
    want = [BranchEngine().branch(t, w) for t, w in queries]
    with fresh_tables(20000) as tables:
        table = tables["shapes"]
        added = []
        real = table.put
        table.put = lambda lam, size, shape: added[-1].append(size) or real(lam, size, shape)
        got = []
        for t, w in queries:
            added.append([])
            misses = table.misses
            got.append(BranchEngine().branch(t, w))
        assert got == want
        assert table.evictions > 0
        assert_shapes_hold_the_pieri_rule(tables)
        # a query adds shapes until those it added pass a quarter of the bound
        for sizes in added:
            assert sum(sizes[:-1]) <= 20000 // 4
        # (60, 30) builds hundreds of shapes and keeps only the first few
        assert sum(added[-1]) > 20000 // 4 and table.misses - misses > 50 * len(added[-1])


def test_the_shape_tables_outlive_their_engine_and_clear_cache():
    queries = [(t, w) for t in all_types(6) for w in iter_dominant_weights(6, 6)]
    with fresh_tables() as tables:
        table = tables["shapes"]
        answers = [BranchEngine().branch(t, w) for t, w in queries]
        kept = dict(table.entries), table.misses
        assert kept[1]
        clear_cache()
        assert [BranchEngine().branch(t, w) for t, w in queries] == answers
        assert (table.entries, table.misses, table.evictions) == (*kept, 0)


def test_tables_count_their_hits_misses_and_evictions():
    table = Table(100)
    assert table.get("a") is None
    for key in "abcde":
        table.put(key, 25, key.upper())
    assert table.get("c") == "C" and table.get("c") == "C" and table.get("a") is None
    table.put("f", 26, "F")  # not kept, so nothing is dropped
    assert (table.hits, table.misses, table.evictions) == (2, 2, 1)
    # the shapes of sl_3 below take one member each, of small parts, so each
    # takes as much as (3)'s; a query may add two
    t, size = SubalgebraType((3,)), footprint((3, 0, 0), (1, (2, 0, 0), ((2, 1, 0),)))
    with fresh_tables(4 * size) as tables:
        shapes = tables["shapes"]
        BranchEngine().branch(t, partition_to_omega((3,), 3))  # steps on (3), (2), (2, 1)
        assert (shapes.misses, shapes.evictions) == (3, 0)
        assert list(shapes.entries) == [(3, 0, 0), (2, 0, 0)]
        BranchEngine().branch(t, partition_to_omega((2,), 3))  # a hit, uncounted
        assert (shapes.misses, shapes.evictions) == (3, 0)
        # (4) misses, (3) and (2) hit, (2, 1) misses, and so does (3, 1), past
        # the query's limit: the table is full
        BranchEngine().branch(t, partition_to_omega((4,), 3))
        assert (shapes.misses, shapes.evictions) == (6, 0)
        assert list(shapes.entries) == [(3, 0, 0), (2, 0, 0), (4, 0, 0), (2, 1, 0)]
        # (2, 2) has the 2 boxes of its dual (2) against its own 4: (2) is
        # solved, a hit
        BranchEngine().branch(t, partition_to_omega((2, 2), 3))
        assert (shapes.misses, shapes.evictions) == (6, 0)
        BranchEngine().branch(t, partition_to_omega((3, 1), 3))  # a miss, dropping (3)
        assert (shapes.misses, shapes.evictions) == (7, 1)
        assert list(shapes.entries) == [(2, 0, 0), (4, 0, 0), (2, 1, 0), (3, 1, 0)]
        assert shapes.size == 4 * size
