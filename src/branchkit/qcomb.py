"""Packed q-polynomials: Gaussian binomials, q-hook-content, and e_k.

The one owner of the packed format: a polynomial with coefficients in [0, Q)
is its value at q = Q = 256**w, w = b.bit_length() // 8 + 1 for a bound b on
the coefficients; q^e is a shift by 8*w*e bits, one mask cuts a product of
degree T mod Q^{T+1}, and digits reads the coefficients back.
"""

from functools import cache
from math import comb

QPolynomial = dict[int, int]


def digits(x: int, w: int) -> list[int]:
    """Coefficients of P from q^0 up to its top nonzero one, given x = P(256**w)
    with every coefficient in [0, 256**w)."""
    raw = x.to_bytes(length=(x.bit_length() + 7) // 8, byteorder="little")
    return [int.from_bytes(raw[i:i + w], byteorder="little") for i in range(0, len(raw), w)]


def hook_content(shape, n: int, count: int) -> list[int]:
    """Coefficients of s_shape(1, q, ..., q^{n-1}) / q^{b(shape)}, of degree T, by
    Stanley's q-hook-content formula (EC2, Thm 7.21.2): the product over the
    boxes u of shape (at most n rows) of (1 - q^{n + c(u)}) / (1 - q^{h(u)}),
    c the content and h the hook length; count (the dimension) bounds every
    coefficient.  q -> Q maps Z[q]/(q^{T+1}) onto the integers mod Q^{T+1} and
    the result is below Q^{T+1}, so one mask keeps every step exact; 1/(1 - q^h)
    is (1 + q^h)(1 + q^{2h})(1 + q^{4h})... up to degree T.
    """
    w = count.bit_length() // 8 + 1
    cols = [sum(r > j for r in shape) for j in range(max(shape, default=0))]
    boxes = [(n + j - i, r - j + cols[j] - i - 1) for i, r in enumerate(shape) for j in range(r)]
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


def elementary(exps, k: int, count: int) -> list[int]:
    """Coefficients of e_k(q^{x_1}, ..., q^{x_n}) for the exponents x = exps >= 0."""
    w = count.bit_length() // 8 + 1
    e = [1] + [0] * k
    for i, x in enumerate(exps):
        # j stops at k - (n - 1 - i): a smaller j-subset can no longer grow to k
        for j in range(min(i + 1, k), max(1, k - (len(exps) - 1 - i)) - 1, -1):
            e[j] += e[j - 1] << 8 * w * x
    return digits(e[k], w)


@cache
def _row(n: int, k: int) -> list[int]:
    """Coefficients of q^0 .. q^{nk} in (n+k choose k)_q: hook_content of one row."""
    return hook_content((min(n, k),), max(n, k) + 1, comb(n + k, k))


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
