"""The recursion, step by step, on two hand-checkable computations.

For lambda = lambda' + w_k the tensor product L(lambda') (x) L(w_k) restricts
two ways -- as the Pieri sum of L(mu) over mu in P(lambda', k), and as the
Clebsch-Gordan product of the two restrictions.  Hence

    m_d(lambda) = [cg_convolve(Res lambda', Res w_k)]_d
                  - sum of m_d(mu) over the other Pieri members mu.

pieri_set works on padded partitions (lambda_1, ..., lambda_n), lambda_n = 0;
the demo converts at that call and keeps DominantWeight everywhere else.
"""

from branchkit import (
    DominantWeight,
    SubalgebraType,
    branch,
    cg_convolve,
    fundamental_branching,
    padded_partition,
    partition_to_omega,
    pieri_set,
)


def walkthrough(t, lam, k, d):
    n = t.n
    prev = DominantWeight(n, tuple(
        a - 1 if i == k - 1 else a for i, a in enumerate(lam.coeffs)
    ))
    print(f"target: m_{d}(lambda) for lambda = {lam}, type {t} in sl_{n}")
    print(f"  split lambda = lambda' + w_{k} with lambda' = {prev}")
    members = [
        partition_to_omega(mu, n)
        for mu in sorted(pieri_set(padded_partition(prev), k), reverse=True)
    ]
    print(f"  P(lambda', {k}) = {{{', '.join(str(m) for m in members)}}}")

    res_prev = branch(t, prev)
    res_fund = fundamental_branching(t, k)
    print(f"  Res L(lambda') = {res_prev}")
    print(f"  Res L(w_{k})   = {res_fund}")
    conv = cg_convolve(res_prev, res_fund)
    print(f"  convolution term at d={d}: {conv.get(d, 0)}")

    correction = 0
    for mu in members:
        if mu == lam:
            continue
        md = branch(t, mu).get(d, 0)
        print(f"  subtract m_{d}({mu}) = {md}")
        correction += md
    result = conv.get(d, 0) - correction
    print(f"  => m_{d}(lambda) = {conv.get(d, 0)} - {correction} = {result}")
    assert result == branch(t, lam).get(d, 0)
    print(f"  full vector: {branch(t, lam)}\n")


if __name__ == "__main__":
    lam = DominantWeight(5, (2, 0, 1, 0))  # 2w1 + w3, partition (3,1,1)

    print("--- principal subalgebra of sl_5 ---\n")
    walkthrough(SubalgebraType((5,)), lam, 3, 0)

    print("--- type [3,2] in sl_5 ---\n")
    walkthrough(SubalgebraType((3, 2)), lam, 3, 1)

    print("--- the inner step both examples rely on ---\n")
    walkthrough(SubalgebraType((3, 2)), DominantWeight(5, (1, 0, 0, 1)), 4, 1)
