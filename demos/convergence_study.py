"""
MSE versus cost on a small grid
===============================

The point of the multilevel construction is a better exchange rate
between accuracy and work: on the exact-in-time solver the single-level
EnKF pays cost ~ eps^-3 for MSE ~ eps^2 (log-log slope -2/3), the
multilevel filter approaches slope -1.  A desk-scale grid will not give
textbook-sharp slopes, but the ordering is already visible.
"""

from dataclasses import replace

from mlenkf.experiment import ExperimentConfig, fit_loglog_slope, run_experiment, synthesize_truth_and_obs

SEED = 20260823
GRID = (0.25, 0.125, 0.0625, 0.03125)

cfg = ExperimentConfig(example=1, method="enkf", solver="exact", eps_grid=GRID,
                       n_steps=10, realizations=10, master_seed=SEED, n_ref=256)
data = synthesize_truth_and_obs(cfg)

for method in ("enkf", "mlenkf"):
    records, schedules = run_experiment(replace(cfg, method=method), data=data)
    print(f"method = {method}")
    print(f"{'eps':>9} {'L':>3} {'sizes':>22} {'cost':>12} {'mse':>12}")
    for rec, sched in zip(records, schedules):
        sizes = str(sched.M)
        print(f"{rec.epsilon:>9.5f} {rec.L:>3} {sizes:>22} {rec.cost_units:>12.0f} "
              f"{rec.mse:>12.4e}")
    slope, _, stderr = fit_loglog_slope(records)
    print(f"fitted log-log slope: {slope:+.3f} +/- {stderr:.3f}\n")

print("expected: about -2/3 for enkf, approaching -1 for mlenkf")
