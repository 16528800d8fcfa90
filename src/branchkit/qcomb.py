"""Packed q-polynomials: Gaussian binomials, q-hook-content, e_k, and the
Weyl numerators of the branching recursion.

The one owner of the packed format: a polynomial with coefficients in [0, Q)
is its value at q = Q = 256**w, w = width(b) for a bound b on the
coefficients; q^e is a shift by 8*w*e bits, one mask cuts a product of
degree T mod Q^{T+1}, pack writes coefficients in and digits reads them back.

The recursion keeps Res L(lambda) = sum_j m_j F_j as the positive half
P = sum_j m_j Q^{j+1} of its Weyl numerator (q - 1/q) * char.  A tensor
product with a module of character C is one multiply by C packed from its
lowest weight (e_k, for L(w_k)) and the subtraction of the few terms that fold
back past weight 0 (fold).  guard_mask tests the top bits of every digit at
once: a negative coefficient borrows from the digit above and so sets its own
top bit, and clear guard bits leave room for a product to carry no digit.

spread_row packs the Gaussian binomial row at q = Q**2, one digit a unit of
weight: the principal character of one block.  The hook and two-block closed
forms of fundamental multiply and sum such rows, and decode_spread reads the
sum's multiplicities {j: m_j} once.
"""

import sys
from collections import Counter
from functools import lru_cache
from math import prod
from struct import calcsize

QPolynomial = dict[int, int]

# unsigned machine integer formats by size in bytes, for digits
_MACHINE = {calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def width(bound: int) -> int:
    """Bytes per digit that hold every integer up to bound with the top bit clear."""
    return bound.bit_length() // 8 + 1


def pack(coeffs: dict[int, int], w: int, shift: int = 0) -> int:
    """The sum of c Q^{e + shift} over coeffs {e: c}, every c in [0, Q): what
    digits reads back."""
    raw = bytearray(w * (max(coeffs, default=-1) + shift + 1))
    for e, c in coeffs.items():
        i = w * (e + shift)
        raw[i:i + w] = c.to_bytes(w, "little")
    return int.from_bytes(raw, "little")


def digits(x: int, w: int) -> list[int]:
    """Coefficients of P from q^0 up to its top nonzero one, given x = P(256**w)
    with every coefficient in [0, 256**w).  Where machine integers are
    little-endian, a width of at most 8 bytes is read as an array of them,
    each digit's bytes first spread to the next machine size by strided copies."""
    count = -(-x.bit_length() // (8 * w))
    raw = x.to_bytes(length=count * w, byteorder="little")
    size = 1 << (w - 1).bit_length()
    if size not in _MACHINE:
        return [int.from_bytes(raw[i:i + w], byteorder="little") for i in range(0, len(raw), w)]
    if size > w:
        wide = bytearray(count * size)
        for b in range(w):
            wide[b::size] = raw[b::w]
        raw = wide
    return memoryview(raw).cast(_MACHINE[size]).tolist()


def hook_content(shape, n: int) -> list[int]:
    """Coefficients of s_shape(1, q, ..., q^{n-1}) / q^{b(shape)}, of degree T, by
    Stanley's q-hook-content formula (EC2, Thm 7.21.2): the product over the
    boxes u of shape (at most n rows) of (1 - q^{n + c(u)}) / (1 - q^{h(u)}),
    c the content and h the hook length; at q = 1 it is the dimension, which
    bounds every coefficient.  q -> Q maps Z[q]/(q^{T+1}) onto the integers mod
    Q^{T+1} and the result is below Q^{T+1}, so one mask keeps every step exact;
    1/(1 - q^h) is (1 + q^h)(1 + q^{2h})(1 + q^{4h})... up to degree T."""
    cols = [sum(r > j for r in shape) for j in range(max(shape, default=0))]
    boxes = [(n + j - i, r - j + cols[j] - i - 1) for i, r in enumerate(shape) for j in range(r)]
    w = width(prod(a for a, _ in boxes) // prod(h for _, h in boxes))
    top = sum(a - h for a, h in boxes)
    mask = (1 << 8 * w * (top + 1)) - 1
    x = 1
    for a, h in boxes:
        # 1 - q^a is 1 mod q^{T+1} if a > T; & reads a negative x in two's complement
        if a <= top:
            x = (x - (x << 8 * w * a)) & mask
        while h <= top:
            x = (x + (x << 8 * w * h)) & mask
            h *= 2
    return digits(x, w)


def elementary(exps, k: int, w: int) -> int:
    """e_k(Q^{x_1}, ..., Q^{x_n}) at Q = 256**w for the exponents x = exps >= 0.

    e_1 is the count of each exponent, packed once; a sum of shifts would
    copy the growing integer once per exponent."""
    if k == 1:
        return pack(Counter(exps), w)
    e = [1] + [0] * k
    for i, x in enumerate(exps):
        # j stops at k - (n - 1 - i): a smaller j-subset can no longer grow to k
        for j in range(min(i + 1, k), max(1, k - (len(exps) - 1 - i)) - 1, -1):
            e[j] += e[j - 1] << 8 * w * x
    return e[k]


def fold(p: int, c: int, top: int, w: int) -> int:
    """The positive half of the numerator of A (x) B from p, that of A, and B's
    character c = sum_e c_e Q^{e + top}, for a product that carries no digit.

    p c >> 8w top keeps the terms of weight >= 0 of P(q) C(q); each digit d of
    p at 1 <= i <= top also gave, through -q^{-i}, the terms d c_e q^{e - i} that
    fold back to weight e - i >= 0, and those are d (c >> 8w(i + top)).
    """
    out = (p * c) >> 8 * w * top
    low = p & ((1 << 8 * w * (top + 1)) - 1)
    digit = (1 << 8 * w) - 1
    for i in range(1, top + 1 if low else 1):
        d = (low >> 8 * w * i) & digit
        if d:
            out -= d * (c >> 8 * w * (i + top))
    return out


def guard_mask(w: int, bits: int, length: int) -> int:
    """The top `bits` bits of every digit, over at least `length` bits: x & mask is
    0 exactly when every digit of x >= 0 is below 2**(8w - bits)."""
    digit = ((1 << bits) - 1) << 8 * w - bits
    return int.from_bytes(digit.to_bytes(w, "little") * (length // (8 * w) + 1), "little")


@lru_cache(maxsize=256)  # bounded, since each row holds n*k + 1 integers
def _row(n: int, k: int) -> list[int]:
    """Coefficients of q^0 .. q^{nk} in (n+k choose k)_q: hook_content of one row."""
    return hook_content((min(n, k),), max(n, k) + 1)


def spread_row(n: int, k: int, w: int) -> int:
    """(n+k choose k)_q at q = Q**2, Q = 256**w: the coefficients of _row(n, k),
    each below Q, packed one empty digit apart."""
    return int.from_bytes(b"".join(c.to_bytes(2 * w, "little") for c in _row(n, k)), "little")


def decode_spread(terms, w: int) -> dict[int, int]:
    """{j: m_j} of the sum of the characters in terms, pairs (x, top) of a
    character symmetric about weight 0 packed from its lowest weight -top, one
    digit per unit of weight, at a width w that holds every coefficient of the sum.

    Shifted to the common lowest weight -T, the sum's digits T, T + 1, ... are
    the weights c_0, c_1, ...; m_j = c_j - c_{j+2} is never negative, so one
    shift and subtract borrows from no digit."""
    top = max(t for _, t in terms)
    c = sum(x << 8 * w * (top - t) for x, t in terms) >> 8 * w * top
    return {j: m for j, m in enumerate(digits(c - (c >> 16 * w), w)) if m}


def pi(n: int, k: int, d: int) -> int:
    """Partitions of d into at most k parts, each at most n: the coefficient
    of q^d in (n+k choose k)_q, read from the one-row hook_content _row(n, k)."""
    if n < 0 or k < 0:
        raise ValueError(f"pi needs n, k >= 0, got n={n}, k={k}")
    if d < 0 or d > n * k:
        return 0
    return _row(n, k)[d]


def p_k_n(k: int, n: int, d: int) -> int:
    """Number of strictly decreasing k-tuples from {1, ..., n} summing to d: less the
    staircase (k, k-1, ..., 1), the partitions of d - k(k+1)/2 that pi counts."""
    if k < 1 or n < 1:
        raise ValueError(f"p_k_n needs k, n >= 1, got k={k}, n={n}")
    if k > n:
        return 0
    return pi(n - k, k, d - k * (k + 1) // 2)


def gaussian_binomial(a: int, b: int) -> QPolynomial:
    """The q-binomial (a choose b)_q as a sparse {exponent: coefficient} map.

    Coefficient of q^d is pi(a - b, b, d); the degree is b(a - b) and the
    coefficient list is palindromic.
    """
    if not 0 <= b <= a:
        raise ValueError(f"gaussian_binomial needs 0 <= b <= a, got a={a}, b={b}")
    return {d: c for d, c in enumerate(_row(a - b, b)) if c}


def qpoly_str(poly: QPolynomial) -> str:
    """Render {2: 3, 0: 1} as '1 + 3q^2'."""
    if not poly:
        return "0"
    terms = []
    for e in sorted(poly):
        c = poly[e]
        if e == 0:
            terms.append(str(c))
        else:
            q = "q" if e == 1 else f"q^{e}"
            terms.append(q if c == 1 else f"{c}{q}")
    return " + ".join(terms)
