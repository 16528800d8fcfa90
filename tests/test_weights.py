import pickle
from math import comb
from operator import index

import pytest
from hypothesis import given, settings, strategies as st

from branchkit import (
    DominantWeight,
    dim_irrep,
    iter_dominant_weights,
    omega_to_partition,
    padded_partition,
    partition_to_omega,
)
from branchkit.weights import canonical_partition, dual_weight, iter_partitions


def test_canonical_partition_strips_trailing_zeros():
    assert canonical_partition((3, 1, 0, 0)) == (3, 1)
    assert canonical_partition(()) == ()
    assert canonical_partition((0, 0)) == ()


def test_canonical_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical_partition((1, 2))
    with pytest.raises(ValueError):
        canonical_partition((2, -1))


def test_omega_to_partition_examples():
    # 2w2 + w3 in sl_4 has diagram rows 3, 3, 1
    assert omega_to_partition(DominantWeight(4, (0, 2, 1))) == (3, 3, 1)
    assert omega_to_partition(DominantWeight(6, (0, 0, 0, 0, 0))) == ()
    assert omega_to_partition(DominantWeight(5, (2, 0, 1, 0))) == (3, 1, 1)


def test_partition_to_omega_examples():
    assert partition_to_omega((3, 3, 1), 4) == DominantWeight(4, (0, 2, 1))
    assert partition_to_omega((), 7) == DominantWeight.zero(7)
    assert partition_to_omega((2, 2), 4) == DominantWeight(4, (0, 2, 0))


def test_partition_to_omega_rank_mismatch():
    with pytest.raises(ValueError):
        partition_to_omega((3, 2, 1), 3)


def test_weight_validation():
    with pytest.raises(ValueError):
        DominantWeight(5, (1, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        DominantWeight(5, (1, -1, 0, 0))  # not dominant
    with pytest.raises(ValueError):
        DominantWeight(1, ())


def test_rank_coefficients_and_parts_must_be_integers():
    for rank, coeffs in ((3, (1.5, "2")), (3, (1.0, 2)), (3, ("1", 2)), (3.0, (1, 2))):
        with pytest.raises(TypeError):
            DominantWeight(rank, coeffs)
    for parts in ((2.5, 1), ("3",), (2, 1.0)):
        with pytest.raises(TypeError):
            canonical_partition(parts)
    # other integer types still read exactly, as plain ints
    w = DominantWeight(3, (True, 2))
    assert w.coeffs == (1, 2) and type(w.coeffs[0]) is int


def test_omega_constructor():
    assert DominantWeight.omega(5, 2) == DominantWeight(5, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        DominantWeight.omega(5, 5)


@st.composite
def weights(draw, max_rank=7, max_coeff=5):
    rank = draw(st.integers(min_value=2, max_value=max_rank))
    coeffs = draw(
        st.lists(st.integers(0, max_coeff), min_size=rank - 1, max_size=rank - 1)
    )
    return DominantWeight(rank, tuple(coeffs))


@given(weights())
def test_round_trip(w):
    assert partition_to_omega(omega_to_partition(w), w.rank) == w


def test_dual_weight():
    assert dual_weight(DominantWeight.omega(5, 1)) == DominantWeight.omega(5, 4)
    assert dual_weight(DominantWeight(5, (2, 0, 1, 0))) == DominantWeight(5, (0, 1, 0, 2))


@given(weights())
def test_dual_is_involution_and_preserves_dimension(w):
    assert dual_weight(dual_weight(w)) == w
    assert dim_irrep(w) == dim_irrep(dual_weight(w))


def test_dim_irrep_fundamental_is_binomial():
    for n in range(2, 13):
        for k in range(1, n):
            assert dim_irrep(DominantWeight.omega(n, k)) == comb(n, k)


def test_dim_irrep_examples():
    assert dim_irrep(DominantWeight.omega(5, 2)) == 10
    assert dim_irrep(DominantWeight.omega(7, 3)) == 35
    # shape (3,1,1) with entries <= 5; 126 by exhaustive tableau count
    assert dim_irrep(DominantWeight(5, (2, 0, 1, 0))) == 126
    assert dim_irrep(DominantWeight.zero(9)) == 1


def brute_partitions(total, max_parts):
    """Compositions of total, one per set of cut points, kept if short and weakly decreasing."""
    out = []
    for cuts in range(2 ** max(total - 1, 0)):
        ends = [k for k in range(1, total) if cuts >> (k - 1) & 1] + [total]
        parts = tuple(b - a for a, b in zip([0] + ends, ends)) if total else ()
        short = max_parts is None or len(parts) <= max_parts
        if short and list(parts) == sorted(parts, reverse=True):
            out.append(parts)
    return sorted(out, reverse=True)


def test_iter_partitions():
    assert list(iter_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(iter_partitions(4, max_parts=2)) == [(4,), (3, 1), (2, 2)]
    assert list(iter_partitions(0)) == [()]
    # a last slot takes the remainder at once, so one part of a million is instant
    assert list(iter_partitions(10**6, max_parts=1)) == [(10**6,)]
    assert list(iter_partitions(3, max_parts=0)) == []
    for max_parts in (None, 0, 1, 2, 3):
        for total in range(13):
            assert list(iter_partitions(total, max_parts)) == brute_partitions(
                total, max_parts
            ), (total, max_parts)


def weyl_product(w):
    """Reference: Weyl's product over every pair i < j, equal rows included."""
    n = w.rank
    lam = [sum(w.coeffs[i:]) for i in range(n)]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def test_dim_irrep_is_the_full_weyl_product():
    for n in range(2, 8):
        for w in iter_dominant_weights(n, 8):
            assert dim_irrep(w) == weyl_product(w), w


def test_dim_irrep_with_long_runs_of_equal_rows():
    for n in (12, 30, 60):
        runs = (0, 1, n // 3, n - 1)
        for a in runs:
            for b in runs:
                for c in runs:
                    if a + b + c <= n - 1:
                        w = partition_to_omega((5,) * a + (3,) * b + (1,) * c, n)
                        assert dim_irrep(w) == weyl_product(w), (n, a, b, c)


def test_dim_irrep_of_omega_1199_at_rank_1200():
    # 1199 equal rows: only the 1199 pairs with the zero row are multiplied
    assert dim_irrep(DominantWeight.omega(1200, 1199)) == 1200


def test_dim_irrep_of_rho_at_rank_400():
    # all n - 1 rows distinct: l_i - l_j = 2 (j - i), so every pair gives a 2
    n = 400
    rho = partition_to_omega(tuple(range(n - 1, 0, -1)), n)
    assert dim_irrep(rho) == 2 ** (n * (n - 1) // 2)


def reference_canonical_partition(parts):
    """canonical_partition as it was before weights carried their padded
    partition: one Python-level check per part."""
    p = tuple(map(index, parts))
    if any(x < 0 for x in p):
        raise ValueError(f"partition parts must be nonnegative, got {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing, got {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def reference_weight(rank, coeffs):
    """(rank, coeffs) as DominantWeight checked and stored them before."""
    rank, coeffs = index(rank), tuple(map(index, coeffs))
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    if len(coeffs) != rank - 1:
        raise ValueError(f"need {rank - 1} coefficients for rank {rank}, got {len(coeffs)}")
    if any(a < 0 for a in coeffs):
        raise ValueError(f"weight {coeffs} is not dominant")
    return rank, coeffs


def reference_partition_to_omega(parts, rank):
    """partition_to_omega as it was before: through DominantWeight's own checks."""
    p = reference_canonical_partition(parts)
    if len(p) > rank - 1:
        raise ValueError(f"partition {p} has too many parts for rank {rank}")
    padded = p + (0,) * (rank - len(p))
    return reference_weight(rank, tuple(padded[i] - padded[i + 1] for i in range(rank - 1)))


def outcome(f, *args):
    """f(*args), or the type and text of what it raised."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def padded_inputs(draw):
    """A rank of 2..40 and a partition of fewer parts, with some trailing zeros."""
    rank = draw(st.integers(2, 40))
    parts = sorted(draw(st.lists(st.integers(1, 12), max_size=rank - 1)), reverse=True)
    return rank, parts + [0] * draw(st.integers(0, rank + 2))


@settings(max_examples=300)
@given(padded_inputs())
def test_a_weight_from_a_partition_is_the_weight_of_its_coefficients(case):
    rank, parts = case
    w = partition_to_omega(parts, rank)
    coeffs = reference_partition_to_omega(parts, rank)[1]
    same = DominantWeight(rank, coeffs)
    assert (w.rank, w.coeffs) == (same.rank, same.coeffs) == (rank, coeffs)
    assert w == same and hash(w) == hash(same) and repr(w) == repr(same)
    suffix_sums = tuple(sum(coeffs[i:]) for i in range(rank))
    assert padded_partition(w) == padded_partition(same) == suffix_sums
    assert omega_to_partition(w) == reference_canonical_partition(parts)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(w, protocol))
        assert copy == w and repr(copy) == repr(w) and padded_partition(copy) == suffix_sums


PARTS = st.one_of(st.integers(-3, 8), st.booleans(), st.sampled_from((2.0, 1.5, "3", None)))
RANKS = st.one_of(st.integers(-2, 40), st.booleans(), st.sampled_from((3.0, 2.5, "4")))


@settings(max_examples=400)
@given(st.lists(PARTS, max_size=8), RANKS)
def test_every_input_raises_or_reads_as_before(parts, rank):
    got = outcome(partition_to_omega, parts, rank)
    if isinstance(got, DominantWeight):
        got = got.rank, got.coeffs
    assert got == outcome(reference_partition_to_omega, parts, rank)
    assert outcome(canonical_partition, parts) == outcome(reference_canonical_partition, parts)
    got = outcome(DominantWeight, rank, parts)
    if isinstance(got, DominantWeight):
        assert padded_partition(got) == tuple(sum(got.coeffs[i:]) for i in range(got.rank))
        got = got.rank, got.coeffs
    assert got == outcome(reference_weight, rank, parts)


def test_one_pass_dim_irrep_is_the_weyl_product():
    # sl_2..sl_7 are checked above
    for n in (8, 9):
        for w in iter_dominant_weights(n, 8):
            assert dim_irrep(w) == weyl_product(w), w
    rho = partition_to_omega(tuple(range(299, 0, -1)), 300)
    assert dim_irrep(rho) == weyl_product(rho)
