from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from branchkit import (
    dim_irrep,
    iter_dominant_weights,
    lex_max_member,
    padded_partition,
    partition_to_omega,
    pieri_set,
)
from branchkit.pieri import pieri_size


def strips_by_subset_enumeration(lam, k):
    """Independent route: try every k-subset of rows, keep valid diagrams."""
    n = len(lam)
    out = set()
    for rows in combinations(range(n), k):
        mu = list(lam)
        for r in rows:
            mu[r] += 1
        if all(mu[i] >= mu[i + 1] for i in range(n - 1)):
            if mu[-1]:
                mu = [x - mu[-1] for x in mu]
            out.add(tuple(mu))
    return out


def test_two_box_strip_example_sl4():
    w = (3, 3, 1, 0)  # 2w2 + w3
    expected = {
        (4, 4, 1, 0),  # 3w2 + w3
        (4, 3, 2, 0),  # w1 + w2 + 2w3
        (3, 2, 0, 0),  # w1 + 2w2
        (2, 2, 1, 0),  # w2 + w3
    }
    assert pieri_set(w, 2) == expected


def test_strip_examples_sl5():
    assert pieri_set((2, 0, 0, 0, 0), 3) == {
        (3, 1, 1, 0, 0),  # 2w1 + w3
        (2, 1, 1, 1, 0),  # w1 + w4
    }
    assert pieri_set((1, 0, 0, 0, 0), 4) == {
        (2, 1, 1, 1, 0),
        (0, 0, 0, 0, 0),
    }


def test_strip_size_out_of_range():
    w = (0, 0, 0, 0)
    with pytest.raises(ValueError):
        pieri_set(w, 0)
    with pytest.raises(ValueError):
        pieri_set(w, 4)
    with pytest.raises(ValueError):
        lex_max_member(w, 4)


def test_lex_max_member_examples():
    assert lex_max_member((3, 3, 1, 0), 2) == (4, 4, 1, 0)
    assert lex_max_member((0, 0, 0, 0, 0), 3) == (1, 1, 1, 0, 0)  # w3


def test_pieri_of_zero_weight():
    for n in range(2, 6):
        for k in range(1, n):
            assert pieri_set((0,) * n, k) == {(1,) * k + (0,) * (n - k)}


def sweep_weights():
    for n in range(2, 7):
        for w in iter_dominant_weights(n, 6):
            for k in range(1, n):
                yield n, padded_partition(w), k


def test_membership_and_lex_maximality():
    for n, w, k in sweep_weights():
        members = pieri_set(w, k)
        top = lex_max_member(w, k)
        assert top in members
        for m in members:
            if m != top:
                assert top > m, (w, k, m)


def test_matches_subset_enumeration_and_distinctness():
    for n, w, k in sweep_weights():
        members = pieri_set(w, k)
        assert members == strips_by_subset_enumeration(w, k)


def test_dimension_additivity():
    # the strip decomposition is multiplicity-free, so dimensions add up
    for n, w, k in sweep_weights():
        total = sum(dim_irrep(partition_to_omega(m, n)) for m in pieri_set(w, k))
        assert total == dim_irrep(partition_to_omega(w, n)) * comb(n, k), (w, k)


def test_first_row_grows_by_at_most_one():
    for n, w, k in sweep_weights():
        for mu in pieri_set(w, k):
            assert mu[0] <= w[0] + 1


@st.composite
def padded_partitions(draw):
    """lambda_1 >= ... >= lambda_n = 0 with n <= 10 and parts <= 8, drawn from a
    palette of at most three values, so equal parts come in long runs."""
    n = draw(st.integers(2, 10))
    palette = draw(st.lists(st.integers(0, 8), min_size=1, max_size=3))
    parts = draw(st.lists(st.sampled_from(palette), min_size=n - 1, max_size=n - 1))
    return tuple(sorted(parts, reverse=True)) + (0,)


@settings(max_examples=200, deadline=None)
@given(padded_partitions())
def test_matches_subset_enumeration_up_to_rank_10(lam):
    for k in range(1, len(lam)):
        members = pieri_set(lam, k)
        assert members == strips_by_subset_enumeration(lam, k), k
        # counted without the set: exactly up to the cap, cap + 1 past it
        size = len(members)
        assert pieri_size(lam, k, size) == size == pieri_size(lam, k, size - 1), k
        assert pieri_size(lam, k, 0) == 1, k


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=8), st.data())
def test_pieri_size_counts_the_set_of_any_rows(parts, data):
    lam = tuple(sorted(parts, reverse=True)) + (0,)
    k = data.draw(st.integers(1, len(lam) - 1))
    assert pieri_size(lam, k, 10**9) == len(pieri_set(lam, k))


def test_pieri_size_stops_past_its_cap_at_once():
    # C(65536, 32768) members: the runs stop as soon as their kept
    # coefficients pass the cap, long before the rows run out
    lam = tuple(range(65535, -1, -1))
    assert pieri_size(lam, 32768, 10**6) == 10**6 + 1
    with pytest.raises(ValueError, match="strip size"):
        pieri_size(lam, 65536, 10**6)


def test_rank_beyond_the_recursion_limit():
    # one loop over the rows: 1200 rows stack no frames
    assert pieri_set((2,) + (0,) * 1199, 1) == {(3,) + (0,) * 1199, (2, 1) + (0,) * 1198}
