"""
One assimilation run, three filters
===================================

A single synthetic data record is assimilated three ways: the exact
Kalman recursion (the mean-field reference), a single-level EnKF, and
the multilevel EnKF.  With the model linear and everything Gaussian the
ensemble methods track the reference up to sampling error, so the
per-step table below is mostly a check that nothing drifts.
"""

from dataclasses import replace

import numpy as np

from mlenkf.experiment import (
    ExperimentConfig,
    Schedule,
    make_schedule,
    run_filter_realizations,
    synthesize_truth_and_obs,
)

SEED = 987
STEPS = 8

cfg = ExperimentConfig(example=1, method="enkf", solver="exact", eps_grid=(0.0625,),
                       n_steps=STEPS, realizations=2, master_seed=SEED, n_ref=512)
data = synthesize_truth_and_obs(cfg)

# reference: exact filter QoI, computed alongside the data record
ref = data.ref_qoi

# single-level EnKF with a flat ensemble at the finest scheduled level
enkf_sched = Schedule(0.0625, 4, 500, "enkf")
enkf_track = run_filter_realizations(cfg, enkf_sched, data.ys, [0])[0]

# multilevel EnKF with the scheduled level sizes for the same target
ml_cfg = replace(cfg, method="mlenkf")
ml_sched = make_schedule(0.0625, cfg.hierarchy, "mlenkf")
ml_track = run_filter_realizations(ml_cfg, ml_sched, data.ys, [0])[0]

print(f"multilevel schedule: L={ml_sched.L}, sizes {ml_sched.M}")
print(f"{'step':>4} {'datum':>9} {'reference':>10} {'enkf':>9} {'mlenkf':>9} "
      f"{'|enkf-ref|':>10} {'|ml-ref|':>9}")
for n in range(STEPS + 1):
    y = "" if n == 0 else f"{data.ys[n - 1][0]:9.4f}"
    print(f"{n:>4} {y:>9} {ref[n]:>10.5f} {enkf_track[n]:>9.5f} {ml_track[n]:>9.5f} "
          f"{abs(enkf_track[n] - ref[n]):>10.2e} {abs(ml_track[n] - ref[n]):>9.2e}")

print()
print(f"summed squared error, enkf:   {np.sum((enkf_track - ref) ** 2):.3e}")
print(f"summed squared error, mlenkf: {np.sum((ml_track - ref) ** 2):.3e}")
