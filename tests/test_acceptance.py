"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

from math import comb

import pytest

from branchkit import (
    BranchEngine,
    DominantWeight,
    SubalgebraType,
    all_types,
    branch,
    build_triple,
    dim_irrep,
    fundamental_branching,
    gaussian_binomial,
    highest_component,
    iter_dominant_weights,
    lowest_component,
    mult_cayley_sylvester,
    mult_macdonald,
    mult_strict_count,
    oracle_branch,
    padded_partition,
    partition_to_omega,
    pi,
    pieri_set,
    principal_highest_component,
    rep_dimension,
)
from branchkit.fundamental import branching_two_blocks
from test_branching import branch_by_dicts, dual_partition
from test_subalgebra import assert_sl2_brackets

# criterion-5 grid: (rank, max boxes, types or None for all)
GRIDS = [
    (3, 8, None),
    (4, 8, None),
    (5, 8, None),
    (6, 7, None),
    (7, 7, ((7,), (4, 3))),
]


def _passed(num, detail):
    print(f"criterion {num:2d}: PASS  ({detail})")


@pytest.fixture(scope="module")
def sweep():
    """Every (type, weight, branch vector) of the criterion-5 grid, one shared cache."""
    engine = BranchEngine()
    cases = []
    for n, max_boxes, blocks in GRIDS:
        types = all_types(n) if blocks is None else [SubalgebraType(b) for b in blocks]
        weights = list(iter_dominant_weights(n, max_boxes))
        for t in types:
            for w in weights:
                cases.append((t, w, engine.branch(t, w)))
    return cases


def test_criterion_1_pieri_example():
    got = pieri_set(padded_partition(DominantWeight(4, (0, 2, 1))), 2)
    expected = {
        DominantWeight(4, (0, 3, 1)),
        DominantWeight(4, (1, 1, 2)),
        DominantWeight(4, (1, 2, 0)),
        DominantWeight(4, (0, 1, 1)),
    }
    assert {partition_to_omega(mu, 4) for mu in got} == expected
    _passed(1, "P(2w2+w3, 2) in sl_4: exact four-element set")


def test_criterion_2_type_43_fundamental():
    t = SubalgebraType((4, 3))
    expected = {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1}
    assert fundamental_branching(t, 3) == expected
    assert branching_two_blocks(t, 3) == expected
    assert oracle_branch(t, DominantWeight.omega(7, 3)) == expected
    _passed(2, "[4,3] in sl_7, k=3: multiset = two-block formula = oracle")


def test_criterion_3_principal_sl5_examples():
    t = SubalgebraType((5,))
    assert fundamental_branching(t, 2) == {2: 1, 6: 1}
    assert branch(t, DominantWeight(5, (2, 0, 0, 0))) == {0: 1, 4: 1, 8: 1}
    assert branch(t, DominantWeight(5, (1, 0, 0, 1))).get(0, 0) == 0
    assert branch(t, DominantWeight(5, (2, 0, 1, 0))).get(0, 0) == 0
    _passed(3, "principal sl_5 spot values, exact")


def test_criterion_4_type_32_examples():
    t = SubalgebraType((3, 2))
    assert fundamental_branching(t, 1) == {1: 1, 2: 1}
    assert fundamental_branching(t, 2) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert branch(t, DominantWeight(5, (1, 0, 0, 1))).get(1, 0) == 2
    assert branch(t, DominantWeight(5, (2, 0, 0, 0))) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert branch(t, DominantWeight(5, (2, 0, 1, 0))).get(1, 0) == 5
    _passed(4, "type [3,2] in sl_5 spot values, exact")


def test_criterion_5_oracle_equivalence(sweep):
    mismatches = [
        (t, w) for t, w, vec in sweep if vec != oracle_branch(t, w)
    ]
    assert mismatches == []
    _passed(5, f"recursion = tableau oracle on {len(sweep)} grid points")


def test_criterion_6_closed_form_agreement():
    checked = 0
    for n in range(2, 11):
        t = SubalgebraType((n,))
        for k in range(1, n):
            reference = fundamental_branching(t, k)
            for j in range(0, k * (n - k) + 3):
                want = reference.get(j, 0)
                assert mult_strict_count(n, k, j) == want, (n, k, j)
                assert mult_cayley_sylvester(n, k, j) == want, (n, k, j)
                if k in (2, 3):
                    assert mult_macdonald(n, k, j) == want, (n, k, j)
                checked += 1
    _passed(6, f"strict-count = Cayley-Sylvester = multiset (+ Macdonald), {checked} values")


def test_criterion_7_structural_identities(sweep):
    # Hermite reciprocity, principal type, n <= 10
    for n in range(2, 11):
        t = SubalgebraType((n,))
        for k in range(1, n):
            assert fundamental_branching(t, k) == fundamental_branching(t, n - k)
    # pairwise distinct Gaussian binomials, n <= 12
    for n in range(2, 13):
        polys = [tuple(sorted(gaussian_binomial(n, i).items())) for i in range(1, n // 2 + 1)]
        assert len(set(polys)) == len(polys), n
    # pi symmetries and generating-function coefficients, n, k <= 7
    for n in range(0, 8):
        for k in range(0, 8):
            g = gaussian_binomial(n + k, k)
            for d in range(0, n * k + 1):
                assert pi(n, k, d) == pi(k, n, d) == pi(n, k, n * k - d)
                assert g.get(d, 0) == pi(n, k, d)
    # dimension additivity over every Pieri set of the criterion-5 sweep
    seen = set()
    for _, w, _ in sweep:
        if w in seen:
            continue
        seen.add(w)
        for k in range(1, w.rank):
            total = sum(
                dim_irrep(partition_to_omega(m, w.rank))
                for m in pieri_set(padded_partition(w), k)
            )
            assert total == dim_irrep(w) * comb(w.rank, k), (w, k)
    # dimension identity for every vector produced
    for _, w, vec in sweep:
        assert rep_dimension(vec) == dim_irrep(w), w
    _passed(7, "Hermite, q-binomial distinctness, pi identities, Pieri additivity, dimensions")


def test_criterion_8_principal_components(sweep):
    count = 0
    for t, w, vec in sweep:
        if len(t.blocks) != 1:
            continue
        assert highest_component(vec) == principal_highest_component(w), w
        assert lowest_component(vec) < t.n, w
        count += 1
    _passed(8, f"highest = positive-root sum and lowest < n on {count} principal points")


def test_criterion_9_pivot_independence(sweep):
    # the dict recursion splits off the largest k and never swaps; on lambda*
    # it takes the steps that the smallest k takes on lambda
    memo = {}
    for t, w, vec in sweep:
        lam = padded_partition(w)
        assert branch_by_dicts(t, lam, memo) == vec, (t, w)
        assert branch_by_dicts(t, dual_partition(lam), memo) == vec, (t, w)
    _passed(9, f"largest-k and smallest-k recursions agree with branch on {len(sweep)} grid points")


def test_criterion_10_triple_self_test():
    count = 0
    for n in range(2, 9):
        for t in all_types(n):
            assert_sl2_brackets(*build_triple(t))
            count += 1
    _passed(10, f"[H,X]=2X, [H,Y]=-2Y, [X,Y]=H exactly for {count} types")
