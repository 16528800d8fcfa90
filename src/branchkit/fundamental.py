"""Branching of the fundamental (wedge power) representations L(w_k).

The universal method: the H-eigenvalue of a natural basis vector
e_{i_1} ^ ... ^ e_{i_k} is the sum of the k chosen diagonal entries of H, so
the full weight multiset of Res L(w_k) is the multiset of k-subset sums of
h_diagonal, and the multiplicity of F_j falls out as dim V_j - dim V_{j+2}.
That multiset is the z^k coefficient e_k(q^{h_1}, ..., q^{h_n}) of
prod_i (1 + z q^{h_i}) (Macdonald, Symmetric Functions and Hall Polynomials,
I.2): wedge_character packs it at any width by qcomb.elementary, in O(n k)
shifts and additions without listing the C(n, k) subsets; no rank cap.
The recursion engine multiplies by it, and the multiplicities are read off it
by qcomb.decode_spread, one shift and subtract; wedge_weight_multiset decodes
it into a Counter for callers that want the weights, and is not on the
answer's path.

The weight multiset always computes the result; the closed forms are only
cross-checks, run by fundamental_branching(verify=True):
  * principal type: strict-tuple counts, the Cayley-Sylvester partition-count
    difference, and Macdonald's plethysm formulas for k = 2, 3.  The first
    two read the same coefficients of the q-binomial (n choose k)_q, built by
    qcomb's hook-content product (p_k_n is pi shifted by the staircase), so
    together they are one check of the weight multiset: a product formula
    against the recurrence, independent although both are packed alike;
  * types of more than one block: [r, 1, ..., 1] and [r, s] for k up to
    floor(n/2), and k = 2 for any type.  The first two multiply the blocks'
    hook-content q-binomials: principal Res L(w_m) of sl_d has the character
    q^{-m(d-m)} (d choose m)_{q^2}, qcomb.spread_row packs it, a tensor product
    of two blocks is one multiply, and qcomb.decode_spread reads the sum once.
"""

from collections import Counter
from functools import cache
from math import comb

from .qcomb import decode_spread, digits, elementary, p_k_n, pi, spread_row, width
from .sl2 import MultVector, cg_convolve
from .subalgebra import SubalgebraType, h_diagonal, is_principal

WeightMultiset = Counter


class ClosedFormMismatchError(AssertionError):
    """A closed form disagrees with the weight-multiset branching."""


def wedge_character(t: SubalgebraType, k: int, w: int) -> tuple[int, int]:
    """(C, J) for Res L(w_k) at Q = 256**w, w wide enough for C(n, k): J, the top weight,
    sums the k largest entries of H's diagonal, and C = sum_e c_e Q^{e + J} counts in
    c_e the k-subsets that sum to e, so C's lowest digit, of weight -J, is nonzero."""
    n = t.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"wedge power index {k} out of range for rank {n}")
    # a k-subset's complement has the opposite sum and h = -h as a multiset
    k = min(k, n - k)
    h = sorted(h_diagonal(t))
    low = sum(h[:k])
    return elementary([v - h[0] for v in h], k, w) >> 8 * w * (low - k * h[0]), -low


def wedge_weight_multiset(t: SubalgebraType, k: int) -> WeightMultiset:
    """Multiset of k-subset sums of the diagonal of H; total count C(n, k)."""
    w = width(comb(t.n, max(k, 0)))  # wedge_character rejects a k out of range
    c, top = wedge_character(t, k, w)
    return Counter({e - top: m for e, m in enumerate(digits(c, w)) if m})


def mult_strict_count(n: int, k: int, j: int) -> int:
    """mult(F_j : Res L(w_k)) for principal type, via strict-tuple counts.

    The weight-j space of the k-th wedge power is spanned by the strictly
    increasing index tuples with i_1 + ... + i_k = (kn - j + k) / 2.
    """
    if j < 0 or (k * n - j + k) % 2:
        return 0
    d = (k * n - j + k) // 2
    return p_k_n(k, n, d) - p_k_n(k, n, d - 1)


def mult_cayley_sylvester(n: int, k: int, j: int) -> int:
    """mult(F_j : Res L(w_k)) for principal type, by the Cayley-Sylvester formula."""
    if j < 0 or j > k * (n - k) or (k * (n - k) - j) % 2:
        return 0
    d = (k * (n - k) - j) // 2
    return pi(n - k, k, d) - pi(n - k, k, d - 1)


def mult_macdonald(n: int, k: int, j: int) -> int:
    """Principal-type multiplicity by Macdonald's closed plethysm formulas.

    k = 2: exactly one copy of F_j when lambda_2 = (2n - j - 4)/2 is a
    nonnegative even integer, none otherwise.

    k = 3: with mu = (mu_1, mu_2, 0), mu_1 = (3n + j - 9)/2 and
    mu_2 = (3n - j - 9)/2, the multiplicity is floor(m/6) + eps where
    m = min(mu_1 - mu_2, mu_2) and eps is 1 when m and mu_2 are both even or
    when m is 3 or 5 mod 6.  Non-integral or non-partition mu means F_j is
    absent.
    """
    if k == 2:
        if n < 3:
            raise ValueError(f"k=2 needs n >= 3, got {n}")
        if j < 0 or (2 * n - j - 4) % 2:
            return 0
        lam1 = (2 * n + j - 4) // 2
        lam2 = (2 * n - j - 4) // 2
        if lam2 < 0 or lam1 < lam2:
            return 0
        return 1 if lam2 % 2 == 0 else 0
    if k == 3:
        if n < 4:
            raise ValueError(f"k=3 needs n >= 4, got {n}")
        if j < 0 or (3 * n - j - 9) % 2:
            return 0
        mu1 = (3 * n + j - 9) // 2
        mu2 = (3 * n - j - 9) // 2
        if mu2 < 0 or mu1 < mu2:
            return 0
        m = min(mu1 - mu2, mu2)
        eps = 1 if (m % 2 == 0 and mu2 % 2 == 0) or m % 6 in (3, 5) else 0
        return m // 6 + eps
    raise ValueError(f"closed plethysm formulas cover k in {{2, 3}}, got k={k}")


def fundamental_branching(t: SubalgebraType, k: int, verify: bool = False) -> MultVector:
    """Decomposition of Res L(w_k) as a multiplicity vector.

    Always computed from the weight multiset (defined for every type and
    1 <= k <= n - 1; any other k is a ValueError); with verify=True every
    applicable closed form for k is evaluated as well and a disagreement
    raises ClosedFormMismatchError.  L(w_{n-k}) is the dual of L(w_k), and
    every sl_2 module is its own dual, so both restrict alike: results are
    memoized per (type, min(k, n - k)), and callers get their own copy.
    """
    n = t.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"wedge power index {k} out of range for rank {n}")
    result = dict(_fundamental(t, min(k, n - k)))
    if verify:
        _verify_closed_forms(t, k, result)
    return result


@cache
def _fundamental(t: SubalgebraType, k: int) -> MultVector:
    w = width(comb(t.n, k))
    return decode_spread([wedge_character(t, k, w)], w)


def _verify_closed_forms(t, k, result):
    n = t.n
    checks = []
    if is_principal(t):
        top = k * (n - k)
        forms = [("strict-count", mult_strict_count), ("cayley-sylvester", mult_cayley_sylvester)]
        if k in (2, 3):
            forms.append(("macdonald", mult_macdonald))
        for name, f in forms:
            checks.append((name, {j: m for j in range(top + 1) if (m := f(n, k, j))}))
    else:
        if k == 2:
            checks.append(("k2-general", branching_k2_general(t)))
        if all(d == 1 for d in t.blocks[1:]) and k <= n // 2:
            checks.append(("hook", branching_hook(t, k)))
        if len(t.blocks) == 2 and k <= n // 2:
            checks.append(("two-blocks", branching_two_blocks(t, k)))
    for name, other in checks:
        if other != result:
            raise ClosedFormMismatchError(
                f"closed form {name} disagrees with weight multiset for {t}, k={k}: "
                f"{other} vs {result}"
            )


def branching_k2_general(t: SubalgebraType) -> MultVector:
    """Res L(w_2) = Lambda^2 W for an arbitrary type, W = sum_i F_{d_i - 1} the
    natural module, from closed forms alone.

    Lambda^2 W is the pairs straddling two blocks, half of W (x) W less the
    squares F_{d-1} (x) F_{d-1} = F_0 + F_2 + ... + F_{2d-2}, plus each block's
    own Lambda^2 F_{d-1} = F_{2d-4} + F_{2d-8} + ..., which is empty for d = 1.
    """
    n = t.n
    if n < 3:
        raise ValueError(f"k=2 needs rank >= 3, got {n}")
    # one cg_convolve of all the blocks rather than a range per pair, so that
    # this module's cg_convolve binding, which perfbench/tracer.py patches, stays in use
    tops = Counter(d - 1 for d in t.blocks)
    # W (x) W, then twice Lambda^2 W: it holds each block's F_{d-1} (x) F_{d-1},
    # so every j updated below is already a key
    twice = cg_convolve(tops, tops)
    for d in t.blocks:
        for j in range(0, 2 * d - 1, 2):
            twice[j] -= 1
        for j in range(2 * d - 4, -1, -4):
            twice[j] += 2
    return {j: m // 2 for j, m in twice.items() if m}


def branching_hook(t: SubalgebraType, k: int) -> MultVector:
    """Res L(w_k) for type [r, 1, ..., 1].

    Basis vectors split by how many indices j land in the zero tail:
    sum_{j=max(0,k-r)}^{min(k,n-r)} C(n-r, j) Res_{[r]} L(w_{k-j}).  The
    principal Res_{[r]} L(w_m) has character q^{-m(r-m)} (r choose m)_{q^2}, read
    from qcomb's hook-content row (spread_row), so L(w_0) is F_0.
    """
    n = t.n
    r = t.blocks[0]
    if any(d != 1 for d in t.blocks[1:]):
        raise ValueError(f"type {t} is not of shape [r, 1, ..., 1]")
    ones = n - r
    if not 1 <= k <= n - 1:
        raise ValueError(f"wedge power index {k} out of range for rank {n}")
    if ones and k > n // 2:
        raise ValueError(f"hook formula covers k <= {n // 2} for rank {n}, got k={k}")
    w = width(comb(n, k))
    return decode_spread(
        [(comb(ones, j) * spread_row(r - k + j, k - j, w), (k - j) * (r - k + j))
         for j in range(max(0, k - r), min(k, ones) + 1)],
        w,
    )


def branching_two_blocks(t: SubalgebraType, k: int) -> MultVector:
    """Res L(w_k) for type [r, s]: sum over how many indices fall in the
    second block, sum_{j=0}^{min(k,s)} Res_{[r]} L(w_{k-j}) (x) Res_{[s]} L(w_j),
    each factor the principal character q^{-m(d-m)} (d choose m)_{q^2} of
    qcomb's hook-content row (spread_row), and each tensor product one multiply."""
    if len(t.blocks) != 2:
        raise ValueError(f"type {t} does not have exactly two blocks")
    r, s = t.blocks
    n = t.n
    if not 1 <= k <= n // 2:
        raise ValueError(f"two-block formula covers 1 <= k <= {n // 2} for rank {n}, got k={k}")
    w = width(comb(n, k))
    return decode_spread(
        [(spread_row(r - k + j, k - j, w) * spread_row(s - j, j, w),
          (k - j) * (r - k + j) + j * (s - j))
         for j in range(0, min(k, s) + 1)],
        w,
    )
