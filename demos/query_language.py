"""The expression language and the oracle's sensitivity audit.

Mechanisms can only see the data through expressions submitted to the
budgeted oracle.  This script builds the query shapes the mechanisms use
(including a derived level of the recursive mechanism), shows the
structural sensitivity bound at work (including a rejected over-sensitive
query), and prints the canonical text form of each tree.

Run:  python demos/query_language.py
"""

import numpy as np

from privsel import (
    Base, BudgetOracle, Gap, Level, LossInstance, MinCompare, Scale,
    SensitivityViolationError, Sub, build_bintree_query, build_tilde_loss,
    eval_expr, format_expr, sensitivity_bound,
)


def main():
    inst = LossInstance((3.0, 1.0, 4.0, 4.0))
    print(f"instance losses: {inst.losses}")

    print("\n== Tournament comparison query ==")
    query = build_bintree_query([0, 1], [2, 3])
    print(f"  text : {format_expr(query)}")
    print(f"  value: {eval_expr(query, inst)}   (= (min(3,1) - min(4,4)) / 2)")
    print(f"  sensitivity bound: {sensitivity_bound(query)}")

    print("\n== Derived subset-scoring loss ==")
    tilde = build_tilde_loss([1, 2], k=2, xi_value=1.5, universe=range(4))
    print(f"  text : {format_expr(tilde)}")
    print(f"  value: {eval_expr(tilde, inst):.4f}")
    print(f"  sensitivity bound: {sensitivity_bound(tilde)}")

    print("\n== A derived level: one node for all subsets ==")
    # subsets {1, 2} and {0, 3} in CSR form, with the offset of the tree above
    level = Level(np.arange(4), indptr=[0, 2, 4], indices=[1, 2, 0, 3],
                  offset=(2 + 2 ** 0.5) * 1.5)
    trees = [build_tilde_loss(subset, k=2, xi_value=1.5, universe=range(4))
             for subset in ([1, 2], [0, 3])]
    for t, derived in enumerate(trees):
        print(f"  derived loss {t}: {eval_expr(derived, inst):.4f}")
    print("  (derived loss 0 is the tree above, evaluated level-wise in numpy)")
    compare = MinCompare([0, 1], 1, level)  # the tournament's query on a level
    tree = Scale(0.5, Sub(trees[0], trees[1]))
    assert eval_expr(compare, inst) == eval_expr(tree, inst)
    print(f"  comparison value: {eval_expr(compare, inst):.4f},"
          f" sensitivity bound: {sensitivity_bound(compare)}")
    try:
        format_expr(compare)
    except TypeError as exc:
        print(f"  format_expr refuses it: {exc}")

    print("\n== The oracle audits every query ==")
    oracle = BudgetOracle(inst, total_budget=1.0, seed=0)
    answer = oracle.noisy_query(query, rho_i=0.25)
    print(f"  noisy answer at rho_i=0.25 (noise std {1/(2*0.25)**0.5:.2f}):"
          f" {answer:.4f}")
    try:
        oracle.noisy_query(Gap([0, 1]), rho_i=0.25)
    except SensitivityViolationError as exc:
        print(f"  raw gap rejected: {exc}")
    halved = Scale(0.5, Gap([0, 1]))
    print(f"  halved gap accepted: {oracle.noisy_query(halved, rho_i=0.25):.4f}")
    print(f"  budget spent so far: {oracle.spent}")
    print("\n  query log:")
    print("  " + oracle.log_csv().replace("\n", "\n  ").rstrip())

    print("\n== Text form ==")
    print(f"  halved gap: {format_expr(halved)}")
    single = Base(2)
    print(f"  single-candidate query {format_expr(single)} evaluates to"
          f" {eval_expr(single, inst)}")


if __name__ == "__main__":
    main()
