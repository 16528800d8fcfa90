"""Adding vertical strips to Young diagrams: the rule behind the recursion.

Tensoring an irreducible L(lambda) of sl_n with a wedge power L(w_k) is
multiplicity-free: the summands are indexed by the ways of adding k boxes to
the diagram of lambda with at most one new box per row.  A full column of
height n is the determinant and gets erased.

pieri_set works on padded partitions (lambda_1, ..., lambda_n), lambda_n = 0;
the demo converts its weights to that form and back for printing.
"""

from branchkit import (
    DominantWeight,
    dim_irrep,
    lex_max_member,
    omega_to_partition,
    padded_partition,
    partition_to_omega,
    pieri_set,
)


def diagram(partition, pad_rows=0):
    rows = ["[]" * part for part in partition]
    rows += [""] * pad_rows
    return "\n".join(rows) if any(rows) else "(empty diagram)"


def show(w, k):
    lam = omega_to_partition(w)
    print(f"lambda = {w} in sl_{w.rank}, partition {lam or '()'}:")
    print(diagram(lam))
    print(f"\nadding a vertical strip of {k} boxes gives P(lambda, {k}):\n")
    members = [
        partition_to_omega(mu, w.rank)
        for mu in sorted(pieri_set(padded_partition(w), k), reverse=True)
    ]
    for m in members:
        mu = omega_to_partition(m)
        print(f"  {m}   partition {mu or '()'}")
        print("\n".join("  " + line for line in diagram(mu).splitlines()))
        print()
    top = partition_to_omega(lex_max_member(padded_partition(w), k), w.rank)
    print(f"the lex-largest member is always lambda + w_{k} = {top}")
    total = sum(dim_irrep(m) for m in members)
    print(
        f"dimension check: sum of dims {total} = "
        f"dim L(lambda) * dim L(w_{k}) = {dim_irrep(w)} * {total // dim_irrep(w)}\n"
    )


if __name__ == "__main__":
    # two boxes onto (3,3,1) in sl_4; two of the four results drop a full column
    show(DominantWeight(4, (0, 2, 1)), 2)

    print("=" * 60, "\n")

    # the two strips used by the recursion walkthrough in sl_5
    show(DominantWeight(5, (2, 0, 0, 0)), 3)
    show(DominantWeight(5, (1, 0, 0, 0)), 4)
