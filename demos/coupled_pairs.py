"""
Coupled coarse/fine forward solves
==================================

A multilevel estimator only beats single-level sampling if the coarse
and fine members of a pair stay close.  Both members here are drawn
from one keyed stream: the exact flow shares the per-mode draws, and
the exponential Euler pair (J_l fine substeps against J_l / 2 coarse
substeps that each fold two fine increments into one) is drawn from the
exact joint law of the two chains, one normal per mode for the fine
noise and one for the pair difference.  The mean squared pair gap should
then shrink like h^2 per level, i.e. by about 4x per refinement.
"""

import numpy as np

from mlenkf.experiment import build_example
from mlenkf.model import propagate_pairs
from mlenkf.rng import RngKey

SAMPLES = 2000
SEED = 1234

for solver in ("exact", "expeuler"):
    model, hier, _, u0 = build_example(1, solver, n_ref=256)
    print(f"solver = {solver}")
    print(f"{'level':>5} {'h':>10} {'E|fine-coarse|^2':>18} {'ratio':>7}")
    prev = None
    for level in range(2, 8):
        n = hier.n_modes(level)
        nc = hier.n_modes(level - 1)
        fine = np.tile(u0[:n, None], (1, SAMPLES))
        coarse = np.tile(u0[:nc, None], (1, SAMPLES))
        rng = RngKey(SEED, "forward", 0, level, 0).generator()
        cout, fout = propagate_pairs(coarse, fine, level, model, hier, rng, solver)
        gap = fout.copy()
        gap[:nc] -= cout
        mean_sq = float(np.mean(np.sum(gap ** 2, axis=0)))
        h = hier.level_params(level)[2]
        ratio = "" if prev is None else f"{prev / mean_sq:7.2f}"
        print(f"{level:>5} {h:>10.4f} {mean_sq:>18.3e} {ratio:>7}")
        prev = mean_sq
    print()

# the exact flow keeps a nested pair exactly nested: the first N_{l-1}
# fine modes and the coarse member see identical draws
model, hier, _, u0 = build_example(1, "exact", n_ref=256)
fine = np.tile(u0[:32, None], (1, 4))
coarse = fine[:16].copy()
rng = RngKey(SEED, "forward", 0, 5, 0).generator()
cout, fout = propagate_pairs(coarse, fine, 5, model, hier, rng, "exact")
print("nested pair stays nested under the exact flow:",
      np.array_equal(cout, fout[:16]))
