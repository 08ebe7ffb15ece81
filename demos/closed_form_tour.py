"""Tour of the closed-form quantities behind the selection mechanisms.

Walks through the loss-instance families, the gap threshold that makes the
halving tournament exact with high probability, and the loss/error scale
functions with the inequality grid that certifies their recursion.

Run:  python demos/closed_form_tour.py
"""

import numpy as np

from privsel import (
    MechanismConstants, appendix_grid, error_scale, gap_threshold,
    generate_instance, loss_scale, scale_dominance_result,
)


def main():
    print("== Instance families ==")
    for family, scale in (("layered", 2.0), ("gapped", 5.0), ("uniform", 10.0),
                          ("constant", 0.0)):
        inst = generate_instance(family, 8, scale, seed=0)
        print(f"  {family:9s} losses={np.round(inst.as_array(), 2).tolist()}"
              f"  min_index={inst.min_index()}  gap={inst.gap():g}")

    print("\n== Gap threshold for exact recovery ==")
    print("  Above this gap the tournament returns the exact argmin with")
    print("  probability at least 1 - beta:")
    for m in (64, 1024, 65536):
        for rho in (0.1, 1.0, 10.0):
            print(f"  m={m:6d} rho={rho:5.1f} beta=0.1 ->"
                  f" {gap_threshold(m, rho, 0.1):9.3f}")

    print("\n== Loss and error scales of the recursive mechanism ==")
    print("  With the un-scaled defaults these are astronomically large,")
    print("  which is why the recursion only matters beyond desk scale:")
    for k in (1, 10, 100, 1000):
        print(f"  K={k:5d}  loss_scale={loss_scale(k, 1.0, 0.01):.4g}"
              f"  error_scale={error_scale(2**k, 1.0, 0.01):.4g}")
    scaled = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)
    print("  ... and with scaled-down constants (c_xi=1, exponent 1):")
    for k in (4, 8, 16):
        print(f"  K={k:5d}  loss_scale={loss_scale(k, 1.0, 0.01, scaled):.4g}")

    print("\n== One-step dominance of the scale function ==")
    print("  loss_scale(K) must exceed 36x its value at (3*sqrt(K), 4rho/5,")
    print("  4beta/5) for the recursion's error bound to telescope:")
    for k in (1000, 10**4, 10**6):
        res = scale_dominance_result(k, 1.0, 1e-3)
        ratio = float(res.note.removeprefix("ratio="))
        print(f"  K={k:8d}  ratio={ratio:7.2f}  holds={res.passed}")

    print("\n== Certification grid (slice) ==")
    results = appendix_grid(ks=(1000, 10**6), betas=(1e-3, 1e-6), rhos=(0.01, 100.0))
    for r in results[:6]:
        print(f"  {r.claim:16s} {r.params:34s} {r.verdict.value:4s}"
              f" margin={r.margin:+.3f}")
    n_pass = sum(r.passed for r in results)
    print(f"  ... {n_pass}/{len(results)} PASS on this slice")


if __name__ == "__main__":
    main()
