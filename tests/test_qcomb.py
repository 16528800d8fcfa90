from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from branchkit import (
    BranchEngine,
    SubalgebraType,
    cg_convolve,
    dim_irrep,
    gaussian_binomial,
    omega_to_partition,
    p_k_n,
    partition_to_omega,
    pi,
    principal_highest_component,
    qpoly_str,
)
from branchkit import qcomb
from branchkit.qcomb import (
    _row,
    decode_spread,
    digits,
    fold,
    guard_mask,
    hook_content,
    pack,
    spread_row,
    width,
)
from branchkit.sl2 import mult_from_multiset
from branchkit.tables import Table
from branchkit.weights import iter_partitions


def pi_by_enumeration(n, k, d):
    """Independent count: partitions of d, at most k parts, parts at most n."""
    if d < 0:
        return 0

    def rec(remaining, largest, slots):
        if remaining == 0:
            return 1
        if slots == 0:
            return 0
        return sum(
            rec(remaining - p, p, slots - 1)
            for p in range(1, min(largest, remaining) + 1)
        )

    return rec(d, n, k)


def strict_tuples_by_enumeration(k, n, d):
    """Independent count of strictly decreasing k-tuples from 1..n summing to d."""
    return sum(1 for c in combinations(range(1, n + 1), k) if sum(c) == d)


def qbinom_by_pascal(a, b):
    """Independent Gaussian binomial via (a b)_q = (a-1 b-1)_q + q^b (a-1 b)_q."""
    if b == 0 or b == a:
        return {0: 1}
    left = qbinom_by_pascal(a - 1, b - 1)
    right = qbinom_by_pascal(a - 1, b)
    out = dict(left)
    for e, c in right.items():
        out[e + b] = out.get(e + b, 0) + c
    return out


def test_pi_base_cases():
    for n in range(0, 5):
        for k in range(0, 5):
            assert pi(n, k, 0) == 1
    assert pi(3, 2, -1) == 0
    assert pi(0, 4, 2) == 0
    assert pi(4, 0, 2) == 0
    assert pi(2, 2, 2) == 2  # (2) and (1,1)


def test_pi_rejects_negative_bounds():
    with pytest.raises(ValueError):
        pi(-1, 2, 1)
    with pytest.raises(ValueError):
        pi(2, -1, 1)


def test_pi_matches_enumeration():
    for n in range(0, 7):
        for k in range(0, 7):
            for d in range(-2, n * k + 3):
                assert pi(n, k, d) == pi_by_enumeration(n, k, d), (n, k, d)


def test_pi_symmetries():
    for n in range(0, 9):
        for k in range(0, 9):
            for d in range(0, n * k + 1):
                assert pi(n, k, d) == pi(k, n, d)
                assert pi(n, k, d) == pi(n, k, n * k - d)


def test_p_k_n_examples():
    assert p_k_n(2, 4, 4) == 1  # only (3,1)
    assert p_k_n(2, 5, 5) == 2  # (4,1) and (3,2)
    for n in range(1, 6):
        for d in range(-1, n + 3):
            assert p_k_n(1, n, d) == (1 if 1 <= d <= n else 0)


def test_p_k_n_bijection_with_boxed_partitions():
    for n in range(1, 10):
        for k in range(1, n + 1):
            top = k * n
            for d in range(0, top + 2):
                assert p_k_n(k, n, d) == strict_tuples_by_enumeration(k, n, d), (k, n, d)


def test_p_k_n_validation():
    with pytest.raises(ValueError):
        p_k_n(0, 3, 1)
    assert p_k_n(5, 3, 6) == 0  # more parts than values available


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 1) == {0: 1, 1: 1}
    assert gaussian_binomial(4, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    for a in range(0, 8):
        assert gaussian_binomial(a, 0) == {0: 1}
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3)


def test_gaussian_binomial_matches_pascal_recurrence():
    for a in range(0, 15):
        for b in range(0, a + 1):
            assert gaussian_binomial(a, b) == qbinom_by_pascal(a, b), (a, b)


def test_gaussian_binomial_generating_function_coefficients():
    # coefficient of q^d in (n+k choose k)_q is pi(n, k, d)
    for n in range(0, 8):
        for k in range(0, 8):
            g = gaussian_binomial(n + k, k)
            for d in range(0, n * k + 1):
                assert g.get(d, 0) == pi(n, k, d)
            assert max(g, default=0) == n * k


def test_gaussian_binomial_palindromic():
    for a in range(1, 12):
        for b in range(0, a + 1):
            g = gaussian_binomial(a, b)
            deg = b * (a - b)
            assert all(g[e] == g[deg - e] for e in g)


def test_gaussian_binomial_pairwise_distinct():
    for n in range(2, 13):
        seen = {}
        for i in range(1, n // 2 + 1):
            key = tuple(sorted(gaussian_binomial(n, i).items()))
            assert key not in seen, f"({n},{i})_q == ({n},{seen[key]})_q"
            seen[key] = i


def test_pi_and_gaussian_binomial_at_rank_600():
    # the product loop has no recursion depth to run out of
    assert [pi(598, 2, d) for d in range(599)] == [d // 2 + 1 for d in range(599)]
    g = gaussian_binomial(600, 2)
    assert len(g) == 1197
    assert g[598] == 300


@given(st.data())
def test_digits_inverts_packing(data):
    w = data.draw(st.integers(1, 10), label="w")
    coefficient = st.integers(0, 256**w - 1)
    body = data.draw(st.lists(st.just(0) | coefficient, max_size=40), label="body")
    coeffs = body + [data.draw(st.integers(1, 256**w - 1), label="top")]
    x = sum(c * 256 ** (w * i) for i, c in enumerate(coeffs))
    assert digits(x, w) == coeffs


def test_width_keeps_the_top_bit_clear():
    assert [width(b) for b in (0, 1, 127, 128, 255, 256, 32767, 32768)] == [1, 1, 1, 2, 2, 2, 2, 3]
    for b in range(1, 5000, 7):
        assert b < 2 ** (8 * width(b) - 1) and (width(b) == 1 or b >= 2 ** (8 * width(b) - 9))


@given(st.data())
def test_pack_inverts_digits(data):
    w = data.draw(st.integers(1, 4), label="w")
    coeffs = data.draw(st.dictionaries(st.integers(0, 40), st.integers(1, 256**w - 1)), label="c")
    shift = data.draw(st.integers(0, 5), label="shift")
    x = pack(coeffs, w, shift)
    assert x == sum(c * 256 ** (w * (e + shift)) for e, c in coeffs.items())
    assert {e - shift: c for e, c in enumerate(digits(x, w)) if c} == coeffs


multiplicity_vectors = st.dictionaries(st.integers(0, 30), st.integers(1, 9), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(multiplicity_vectors, multiplicity_vectors)
def test_fold_is_the_clebsch_gordan_product(a, b):
    # the widest product digit is at most max(a) * dim(b), so one width serves
    dim = sum(m * (j + 1) for j, m in b.items())
    w = width(max(a.values()) * dim)
    weights = Counter()
    for j, m in b.items():
        for e in range(-j, j + 1, 2):
            weights[e] += m
    # b's character packed from its lowest weight -top
    top = max(b)
    c = pack(weights, w, top)
    got = fold(pack(a, w, 1), c, top, w)
    assert {j - 1: m for j, m in enumerate(digits(got, w)) if m} == cg_convolve(a, b)


def test_guard_mask_reads_the_top_bits_of_every_digit():
    w, bits = 2, 3
    mask = guard_mask(w, bits, 100)
    assert mask.bit_length() >= 100
    assert digits(mask, w) == [0b1110000000000000] * len(digits(mask, w))
    small = pack({0: 2**13 - 1, 5: 7}, w)
    assert not small & mask
    assert pack({0: 3, 5: 2**13}, w) & mask
    # a negative coefficient borrows from the digit above and sets its own top bit
    assert (pack({3: 9}, w) - pack({1: 1}, w)) & guard_mask(w, 1, 100)


def test_qpoly_str():
    assert qpoly_str({0: 1, 1: 1}) == "1 + q"
    assert qpoly_str({0: 1, 2: 3}) == "1 + 3q^2"
    assert qpoly_str({}) == "0"


def test_rows_match_q_pascal_recurrence():
    # rows[n][k] lists (n+k choose k)_q, built by
    # (n+k choose k)_q = (n+k-1 choose k-1)_q + q^k (n+k-1 choose k)_q
    size = 51
    rows = [[[1] for _ in range(size)] for _ in range(size)]
    for n in range(1, size):
        for k in range(1, size):
            left, down = rows[n][k - 1], rows[n - 1][k]
            rows[n][k] = [a + b for a, b in zip(left + [0] * n, [0] * k + down)]
    for n in range(41):
        for k in range(41):
            assert _row.__wrapped__(n, k) == rows[n][k], (n, k)
    assert _row.__wrapped__(50, 50) == rows[50][50]


# the row (m, m) whose largest coefficient fills exactly w bytes, for w = 1..9
FULL_ROWS = (7, 12, 16, 20, 25, 29, 33, 37, 41)


@pytest.mark.parametrize("w", range(1, 10))
def test_spread_row_packs_the_row_one_digit_apart(w, monkeypatch):
    # widths 1 to 9 bytes, past the 8 of a machine integer; (n, 0), (0, k) and
    # (0, 0) are rows of one coefficient, and the full row sets the top byte of
    # a digit.  Each row is packed on a miss of an empty row table and read
    # back on a hit, the same int
    table = Table(qcomb._spread_rows.bound)
    monkeypatch.setattr(qcomb, "_spread_rows", table)
    m = FULL_ROWS[w - 1]
    assert 256 ** (w - 1) <= max(_row(m, m)) < 256**w
    rows = [(0, 0), (5, 0), (0, 7), (1, 1), (3, 2), (6, 4), (20, 3), (m, m)]
    for n, k in rows:
        if max(_row(n, k)) < 256**w:
            expected = pack({2 * d: c for d, c in enumerate(_row(n, k))}, w)
            misses = table.misses
            assert spread_row(n, k, w) == expected, (n, k, w)
            assert table.misses == misses + 1 and table.entries[n, k, w] == expected
            assert spread_row(n, k, w) == expected, (n, k, w)
            assert table.misses == misses + 1
    assert spread_row(0, 3, w) == 1
    assert digits(spread_row(2, 2, w), w) == [1, 0, 1, 0, 2, 0, 1, 0, 1]


@pytest.mark.parametrize("w", [1, 2, 9])
def test_decode_spread_reads_the_multiplicities_of_a_sum_of_rows(w):
    # each row (a, b) is a character of top weight ab, its digit e the weight
    # 2e - ab; a sum of rows of different tops, one scaled, decodes as the
    # sum of their weight multisets does
    rows = [(0, 0), (3, 2), (4, 4), (1, 5), (6, 1)]
    for terms in ([(3, 2)], [(0, 0)], rows, [(4, 4), (6, 1), (6, 1)]):
        weights = Counter()
        for a, b in terms:
            weights.update({2 * e - a * b: c for e, c in enumerate(_row(a, b))})
        packed = [(spread_row(a, b, w), a * b) for a, b in terms]
        assert decode_spread(packed, w) == mult_from_multiset(weights), (terms, w)
    assert decode_spread([(3 * spread_row(2, 2, w), 4)], w) == {0: 3, 4: 3}


def test_row_cache_is_bounded():
    for n in range(300):
        _row(n, 1)
    info = _row.cache_info()
    assert info.currsize <= info.maxsize < 300


def principal_by_hook_content(w):
    """Res L(w) to the principal sl_2 read from hook_content, and the coefficients.

    q^{i-1} stands for the H-eigenvalue n + 1 - 2i, so the degree-e coefficient
    of s_lambda(1, q, ..., q^{n-1}) / q^{b(lambda)} counts the weight T - 2e,
    T the degree: the character is symmetric under negation."""
    coeffs = hook_content(omega_to_partition(w), w.rank)
    top = len(coeffs) - 1
    return mult_from_multiset(Counter({top - 2 * e: c for e, c in enumerate(coeffs)})), coeffs


SMALL_PRINCIPAL = [
    (n, lam) for n in range(2, 9) for boxes in range(16) for lam in iter_partitions(boxes, n - 1)
]
SHARED = BranchEngine()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_PRINCIPAL))
def test_hook_content_gives_the_principal_branching(case):
    n, lam = case
    w = partition_to_omega(lam, n)
    mv, coeffs = principal_by_hook_content(w)
    assert mv == SHARED.branch(SubalgebraType((n,)), w)
    assert sum(coeffs) == dim_irrep(w)
    assert len(coeffs) - 1 == principal_highest_component(w)


@pytest.mark.parametrize("n, lam", [(5, (40, 30, 20, 10)), (300, (3, 3))])
def test_hook_content_matches_the_recursion_at_size(n, lam):
    w = partition_to_omega(lam, n)
    assert principal_by_hook_content(w)[0] == BranchEngine().branch(SubalgebraType((n,)), w)


def test_hook_content_sizes_its_digits_by_the_dimension(monkeypatch):
    # the bound hook_content reads off its boxes is dim L(lambda), the count
    # callers once passed, so it packs at the same width and gives the same digits
    bounds = []
    monkeypatch.setattr(qcomb, "width", lambda bound: bounds.append(bound) or width(bound))
    for n, lam in SMALL_PRINCIPAL + [(5, (40, 30, 20, 10)), (300, (3, 3))]:
        bounds.clear()
        hook_content(lam, n)
        assert bounds == [dim_irrep(partition_to_omega(lam, n))], (n, lam)
