"""Restricted partition counts and Gaussian binomial polynomials.

pi(n, k, d) counts partitions of d into at most k parts of size at most n: the
coefficient of q^d in (n+k choose k)_q = prod_{i=1}^{s} (1 - q^{m+i}) / (1 - q^i),
s = min(n, k), m = max(n, k).  p_k_n counts strictly decreasing k-tuples from
{1, ..., n} with a prescribed sum; subtracting the staircase (k, k-1, ..., 1)
maps them bijectively onto the boxed partitions counted by pi.  The product
runs on integers at q = 256**w (Kronecker substitution), as do fundamental's
wedge multisets; digits reads the coefficients back.
"""

from functools import cache
from math import comb

QPolynomial = dict[int, int]


def digits(x: int, w: int) -> list[int]:
    """Coefficients of P from q^0 up to its top nonzero one, given x = P(256**w)
    with every coefficient in [0, 256**w)."""
    raw = x.to_bytes(length=(x.bit_length() + 7) // 8, byteorder="little")
    return [int.from_bytes(raw[i:i + w], byteorder="little") for i in range(0, len(raw), w)]


@cache
def _row(n: int, k: int) -> list[int]:
    """Coefficients of q^0 .. q^{nk} in (n+k choose k)_q, by the product formula."""
    s, m = min(n, k), max(n, k)
    # w bytes hold every coefficient, since they sum to C(n + k, k)
    w = comb(n + k, k).bit_length() // 8 + 1
    x = 1
    for i in range(1, s + 1):
        # x becomes (m+i choose i)_q, of degree i*m: times 1 - q^{m+i}, times
        # the series 1/(1 - q^i) = (1 + q^i)(1 + q^{2i})(1 + q^{4i})... as far
        # as degree i*m, then cut to degree i*m (two's complement keeps the
        # low digits of a negative partial result right)
        x -= x << 8 * w * (m + i)
        d = i
        while d <= i * m:
            x += x << 8 * w * d
            d *= 2
        x &= (1 << 8 * w * (i * m + 1)) - 1
    return digits(x, w)


def pi(n: int, k: int, d: int) -> int:
    """Partitions of d into at most k parts, each at most n: the coefficient
    of q^d in (n+k choose k)_q, read from the product formula's row for (n, k)."""
    if n < 0 or k < 0:
        raise ValueError(f"pi needs n, k >= 0, got n={n}, k={k}")
    if d < 0 or d > n * k:
        return 0
    return _row(n, k)[d]


def p_k_n(k: int, n: int, d: int) -> int:
    """Number of strictly decreasing k-tuples from {1, ..., n} summing to d."""
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
