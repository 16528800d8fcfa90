"""Everything against the brute-force tableau oracle.

Semistandard tableaux of shape lambda with entries up to n are a weight
basis of L(lambda); summing diagonal entries of H over the boxes gives the
full weight system with no representation theory at all.  The oracle counts
them as chains of horizontal strips, one per entry, in a single loop with no
recursion.  Each partial shape keeps its counts by weight packed into one
integer, one digit per weight; a strip is added one row at a time, so the
shapes that differ only in that row share one running sum; and the digits
read back must add up to the hook-content count of the shape.  It shares no
code with the recursion beyond the H diagonal, so agreement is a real check.
"""

from branchkit import (
    BranchEngine,
    SubalgebraType,
    all_types,
    dim_irrep,
    highest_component,
    iter_dominant_weights,
    lowest_component,
    omega_to_partition,
    oracle_branch,
    principal_highest_component,
    rep_dimension,
    ssyt_count,
)

if __name__ == "__main__":
    print("tableau counts reproduce Weyl dimensions (sl_5, shapes up to 6 boxes):")
    for w in list(iter_dominant_weights(5, 6))[:12]:
        lam = omega_to_partition(w)
        print(f"  shape {str(lam or '()'):12}  tableaux {ssyt_count(lam, 5):5d}"
              f"   Weyl {dim_irrep(w):5d}")
        assert ssyt_count(lam, 5) == dim_irrep(w)

    print("\nrecursion vs oracle, every type of sl_4, weights up to 6 boxes:")
    engine = BranchEngine()
    for t in all_types(4):
        weights = list(iter_dominant_weights(4, 6))
        bad = [w for w in weights if engine.branch(t, w) != oracle_branch(t, w)]
        status = "ok" if not bad else f"MISMATCH at {bad}"
        print(f"  type {str(t):9} {len(weights)} weights: {status}")
        assert not bad

    print("\nprincipal sl_4: highest component from the positive-root sum, lowest < n:")
    t = SubalgebraType((4,))
    for w in list(iter_dominant_weights(4, 5))[1:]:
        v = engine.branch(t, w)
        assert highest_component(v) == principal_highest_component(w)
        assert lowest_component(v) < 4
        assert rep_dimension(v) == dim_irrep(w)
    print("  all checks passed.")
