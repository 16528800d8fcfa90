"""Restricted partition counts and Gaussian binomial polynomials.

pi(n, k, d) counts partitions of d into at most k parts of size at most n: the
coefficient of q^d in (n+k choose k)_q = prod_{i=1}^{s} (1 - q^{m+i}) / (1 - q^i),
s = min(n, k), m = max(n, k).  p_k_n counts strictly decreasing k-tuples from
{1, ..., n} with a prescribed sum; subtracting the staircase (k, k-1, ..., 1)
maps them bijectively onto the boxed partitions counted by pi.
"""

from functools import cache
from itertools import accumulate
from operator import sub

QPolynomial = dict[int, int]


@cache
def _row(n: int, k: int) -> list[int]:
    """Coefficients of q^0 .. q^{nk} in (n+k choose k)_q, by the product formula."""
    s, m = min(n, k), max(n, k)
    row = [1]
    for i in range(1, s + 1):
        # times 1 - q^{m+i}; then over 1 - q^i, a running sum along each
        # residue class mod i, exact since the quotient is (m+i choose i)_q
        row = list(map(sub, row + [0] * (m + i), [0] * (m + i) + row))
        for r in range(i):
            row[r::i] = accumulate(row[r::i])
        del row[i * m + 1:]
    return row


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
