"""Multiplicity vectors of finite dimensional sl_2 modules.

A decomposition m_0 F_0 + m_1 F_1 + ... (F_j irreducible of highest weight j,
dimension j + 1) is a sparse dict {j: m_j} holding only positive entries.
A weight multiset {weight: dim V_weight} turns into one by the dim-difference
rule m_j = dim V_j - dim V_{j+2}, the step that the wedge-power route and the
tableau oracle share.
"""

MultVector = dict[int, int]


class InternalConsistencyError(RuntimeError):
    """A computation produced a negative multiplicity; this is always a bug."""


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
    """Clebsch-Gordan product of two multiplicity vectors.

    F_j (x) F_j' = F_{|j-j'|} + F_{|j-j'|+2} + ... + F_{j+j'}, extended
    bilinearly.
    """
    out: MultVector = {}
    for j, mj in a.items():
        for jp, mp in b.items():
            m = mj * mp
            for d in range(abs(j - jp), j + jp + 1, 2):
                out[d] = out.get(d, 0) + m
    return out


def mv_subtract(a: MultVector, b: MultVector, context: str = "") -> MultVector:
    """a - b entrywise, raising InternalConsistencyError if any entry goes negative."""
    out = dict(a)
    for j, m in b.items():
        r = out.get(j, 0) - m
        if r < 0:
            raise InternalConsistencyError(
                f"multiplicity of F_{j} went negative ({r}){' in ' + context if context else ''}"
            )
        if r == 0:
            out.pop(j, None)
        else:
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
