"""Branching the fundamental representations L(w_k).

The H-eigenvalue of a wedge basis vector e_{i_1} ^ ... ^ e_{i_k} is a sum of
k diagonal entries of H, so the whole weight system of Res L(w_k) is the
multiset of k-subset sums of the diagonal.  wedge_weight_multiset reads it
off as the z^k coefficient of prod_i (1 + z q^{h_i}), evaluated on integers
at q = 256**w so that each coefficient is one w-byte digit, never listing the
C(n, k) subsets, so any rank works.
Peeling off strings j, j-2, ..., -j recovers the irreducible pieces F_j.
"""

from collections import Counter

from branchkit import (
    SubalgebraType,
    fundamental_branching,
    h_diagonal,
    mult_cayley_sylvester,
    mult_macdonald,
    mult_strict_count,
    rep_dimension,
    wedge_weight_multiset,
)


def peel_strings(multiset):
    """Repeatedly remove the string top, top-2, ..., -top; one string per summand."""
    ms = Counter(multiset)
    strings = []
    while +ms:
        top = max(w for w, c in ms.items() if c > 0)
        for w in range(top, -top - 1, -2):
            ms[w] -= 1
            if ms[w] < 0:
                raise AssertionError("not a representation weight system")
        strings.append(top)
    return strings


def show_type(t, k):
    print(f"type {t} inside sl_{t.n}, k = {k}")
    print(f"  H diagonal: {h_diagonal(t)}")
    ms = wedge_weight_multiset(t, k)
    print(f"  weight multiset ({sum(ms.values())} weights):")
    print(f"    {sorted(ms.elements(), reverse=True)}")
    print("  peeled into strings, one per irreducible:")
    for top in peel_strings(ms):
        print(f"    {list(range(top, -top - 1, -2))}   -> F_{top}")
    mv = fundamental_branching(t, k, verify=True)
    pieces = " + ".join((f"{m}F_{j}" if m > 1 else f"F_{j}") for j, m in sorted(mv.items()))
    print(f"  Res L(w_{k}) = {pieces}   (dim {rep_dimension(mv)})\n")


if __name__ == "__main__":
    show_type(SubalgebraType((4, 3)), 3)
    show_type(SubalgebraType((3, 2)), 2)

    print("=" * 60)
    print("\nprincipal sl_10: three closed forms against the multiset, all k\n")
    n = 10
    t = SubalgebraType((n,))
    for k in range(1, n):
        mv = fundamental_branching(t, k)
        closed = {
            j: mult_strict_count(n, k, j)
            for j in range(k * (n - k) + 1)
            if mult_strict_count(n, k, j)
        }
        assert closed == mv
        assert all(mult_cayley_sylvester(n, k, j) == mv.get(j, 0) for j in range(61))
        if k in (2, 3):
            assert all(mult_macdonald(n, k, j) == mv.get(j, 0) for j in range(61))
        pieces = " + ".join((f"{m}F_{j}" if m > 1 else f"F_{j}") for j, m in sorted(mv.items()))
        print(f"  k={k}: {pieces}")
    print("\nnote the k <-> n-k symmetry (Hermite reciprocity).")
