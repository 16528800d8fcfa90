"""Multiplicity vectors of finite dimensional sl_2 modules.

A decomposition m_0 F_0 + m_1 F_1 + ... (F_j irreducible of highest weight j,
dimension j + 1) is a sparse dict {j: m_j} holding only positive entries.
A weight multiset {weight: dim V_weight} turns into one by the dim-difference
rule m_j = dim V_j - dim V_{j+2} (mult_from_multiset).  The wedge-power route
and the tableau oracle apply the same rule to their packed weight counts, by
one shift and subtract each; mult_from_multiset is the reference the tests
hold them to.

The Clebsch-Gordan product costs O(|a|*|b| + span): one difference-array
update per pair of components, then one running-sum pass over the output's
range of j, however long each F_{|j-j'|} + ... + F_{j+j'} run is.  The
recursion engine multiplies packed Weyl numerators by packed wedge characters
instead (qcomb.fold), and the hook and two-block closed forms multiply packed
q-binomials (qcomb.spread_row).  Only the straddling pairs of the k = 2
closed form and the demos call cg_convolve.  No module of the package calls
mv_subtract: the engine names a negative multiplicity from packed digits, and
mv_subtract is kept for the dict recursion that the tests hold the engine to.
"""

from itertools import accumulate

MultVector = dict[int, int]


class InternalConsistencyError(RuntimeError):
    """A computation produced a negative multiplicity; this is always a bug."""


# the tableau oracle's default cap and its error live here, so that the
# package and the CLI name them without importing the oracle
DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Tableau enumeration passed the configured cap."""


class CorruptMultisetError(ValueError):
    """The multiset is not the weight system of any sl_2 representation."""


def mult_from_multiset(ms: dict[int, int]) -> MultVector:
    """Multiplicities m_j = dim V_j - dim V_{j+2} of a symmetric weight multiset."""
    for j, c in ms.items():
        if ms.get(-j, 0) != c:
            raise CorruptMultisetError(
                f"weight multiset not symmetric under negation at {j}: "
                f"{c} vs {ms.get(-j, 0)}"
            )
    out: MultVector = {}
    top = max(ms) if ms else -1
    for j in range(0, top + 1):
        m = ms.get(j, 0) - ms.get(j + 2, 0)
        if m < 0:
            raise CorruptMultisetError(
                f"dim V_{j} < dim V_{j + 2}: not a representation weight system"
            )
        if m:
            out[j] = m
    return out


def cg_convolve(a: MultVector, b: MultVector) -> MultVector:
    """Clebsch-Gordan product of two multiplicity vectors, with keys ascending.

    F_j (x) F_j' = F_{|j-j'|} + F_{|j-j'|+2} + ... + F_{j+j'}, extended
    bilinearly.  Each run is one entry +m at |j-j'| and one -m at j+j'+2 of
    a difference array; running sums over the even and the odd offsets then
    give every multiplicity.  The array starts at the lowest |j-j'| that can
    occur, so a product of far-apart sparse vectors pays only for its span.
    """
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a  # the shorter vector in the outer loop starts fewer inner loops
    amax, bmax = max(a), max(b)
    lo = max(min(a) - bmax, min(b) - amax, 0)
    diff = [0] * (amax + bmax + 3 - lo)
    for jp, mp in b.items():
        for j, mj in a.items():
            m = mj * mp
            diff[abs(j - jp) - lo] += m
            diff[j + jp + 2 - lo] -= m
    diff[0::2] = accumulate(diff[0::2])
    diff[1::2] = accumulate(diff[1::2])
    out: MultVector = {}
    for i, m in enumerate(diff, lo):
        if m:
            out[i] = m
    return out


def mv_subtract(a: MultVector, b: MultVector) -> MultVector:
    """a - b entrywise, raising InternalConsistencyError if any entry goes negative.

    The result keeps a's key order and is built afresh rather than popped
    out of a copy of a, so a memo that stores it holds no table sized for a.
    """
    if not b.keys() <= a.keys():
        j = min(b.keys() - a.keys())
        raise InternalConsistencyError(f"multiplicity of F_{j} went negative ({-b[j]})")
    out: MultVector = {}
    for j, m in a.items():
        r = m - b.get(j, 0)
        if r < 0:
            raise InternalConsistencyError(f"multiplicity of F_{j} went negative ({r})")
        if r:
            out[j] = r
    return out


def rep_dimension(m: MultVector) -> int:
    """Total dimension sum m_j (j + 1)."""
    return sum(mult * (j + 1) for j, mult in m.items())


def highest_component(m: MultVector) -> int:
    """Largest j with m_j != 0."""
    if not m:
        raise ValueError("empty multiplicity vector has no highest component")
    return max(m)


def lowest_component(m: MultVector) -> int:
    """Smallest j with m_j != 0."""
    if not m:
        raise ValueError("empty multiplicity vector has no lowest component")
    return min(m)
