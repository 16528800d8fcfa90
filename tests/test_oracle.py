import pytest

from branchkit import (
    BudgetExceededError,
    DominantWeight,
    SubalgebraType,
    all_types,
    dim_irrep,
    h_diagonal,
    fundamental_branching,
    oracle_branch,
    partition_to_omega,
    ssyt_count,
)
from branchkit.oracle import tableau_weight_multiset
from branchkit.weights import iter_partitions


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
