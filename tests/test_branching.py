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
    lowest_component,
    oracle_branch,
    partition_to_omega,
    principal_highest_component,
    rep_dimension,
    select_pivot,
)
from branchkit import fundamental
from branchkit.sl2 import mv_subtract
from branchkit.weights import dual_weight


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


def test_select_pivot():
    assert select_pivot((3, 1, 1, 0, 0)) == 3  # 2w1 + w3
    assert select_pivot((1, 1, 0, 0, 0)) == 2  # w2
    assert select_pivot((3, 0, 0, 0)) == 1  # 3w1
    with pytest.raises(ValueError):
        select_pivot((0, 0, 0, 0))
    assert select_pivot((3, 1, 1, 0, 0), largest=False) == 1
    assert select_pivot((2, 2, 1, 0), largest=False) == 2  # w2 + w3


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
    largest = BranchEngine(pivot="largest")
    smallest = BranchEngine(pivot="smallest")
    for n in (3, 4):
        for t in all_types(n):
            for w in iter_dominant_weights(n, 5):
                assert largest.branch(t, w) == smallest.branch(t, w), (t, w)
    with pytest.raises(ValueError):
        BranchEngine(pivot="median")


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
    want = oracle_branch(t, w)
    assert BranchEngine(pivot="largest").branch(t, w) == want
    assert BranchEngine(pivot="smallest").branch(t, w) == want


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
    engine.cache[(3, (3,), (1, 1))] = {2: 2}
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


def test_clear_cache_forgets_fundamentals(monkeypatch):
    t = SubalgebraType((5,))
    w = DominantWeight(5, (0, 1, 0, 0))
    assert branch(t, w) == {2: 1, 6: 1}
    clear_cache()
    calls = []
    real = fundamental.wedge_weight_multiset

    def counting(t, k):
        calls.append(k)
        return real(t, k)

    monkeypatch.setattr(fundamental, "wedge_weight_multiset", counting)
    assert branch(t, w) == {2: 1, 6: 1}
    assert calls == [2]  # neither the engine nor the fundamental memo served it
