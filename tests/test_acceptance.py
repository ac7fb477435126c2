"""End-to-end acceptance gates.

Each test covers one contract of the library and prints a single
pass/fail line with the measured quantities, so a log of this module is
a readable scorecard.  Tolerances are fixed here and nowhere else.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from mlenkf.cli import RESULT_COLUMNS, main
from mlenkf.experiment import (
    ExperimentConfig,
    Schedule,
    build_example,
    fit_loglog_slope,
    normalized_series,
    run_experiment,
    run_filter_realizations,
    synthesize_truth_and_obs,
)
from mlenkf.filters import (
    MultilevelEnsemble,
    ObservationModel,
    PairEnsemble,
    compute_R_ml,
    kalman_predict,
    kalman_step,
    kalman_update,
    ml_gain,
    ml_predict,
    ml_update,
    GaussianState,
)
from mlenkf.model import ModelConfig, propagate_pairs, substep_noise_var
from mlenkf.rng import RngKey
from mlenkf.spectral import LevelHierarchy, eigenvalues
from mlenkf.verify import _cov_matrix, _dense_r_ml, _kalman_dense_step
from oracles import draw_noise_block

SEED = 20260823
EPS_GRID = tuple(2.0 ** -k for k in range(2, 7))


def _gate(label, ok, detail):
    print(f"[{label}] {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_multilevel_covariance_matches_dense_oracle():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n0 = int(rng.integers(1, 3))
        l_max = 3 if n0 == 1 else 2
        L = int(rng.integers(0, l_max + 1))
        hier = LevelHierarchy(kappa=2.0, n0=n0)
        m = int(rng.integers(1, 3))
        n_top = hier.n_modes(L)
        obs = ObservationModel(rng.standard_normal((m, 8)), 0.3 * np.eye(m), np.zeros(8))
        pairs = []
        for l in range(L + 1):
            size = int(rng.integers(2, 8))
            nc = hier.n_modes(l - 1) if l else 0
            pairs.append(PairEnsemble(rng.standard_normal((nc, size)),
                                      rng.standard_normal((hier.n_modes(l), size)), l))
        ml = MultilevelEnsemble(tuple(pairs))
        (got,) = compute_R_ml(ml, obs)  # one action per block
        want = _dense_r_ml(ml, obs)
        worst = max(worst, np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))
        assert got.shape == (n_top, m)
    dt = time.perf_counter() - t0
    _gate("criterion 1", worst <= 1e-12 and dt < 5.0,
          f"100 random instances, worst relative error {worst:.2e}, {dt:.2f}s")


def test_criterion_2_single_level_run_reproduces_enkf():
    t0 = time.perf_counter()
    worst = 0.0
    for solver in ("exact", "expeuler"):
        cfg = ExperimentConfig(example=1, solver=solver, method="mlenkf", n_steps=10,
                               realizations=2, eps_grid=(1.0,), master_seed=SEED,
                               n_ref=64, n0=4)
        data = synthesize_truth_and_obs(cfg)
        ml_track = run_filter_realizations(cfg, Schedule(1.0, 0, (8,), "mlenkf"),
                                           data.ys, [0])
        en_track = run_filter_realizations(replace(cfg, method="enkf"),
                                           Schedule(1.0, 0, 8, "enkf"), data.ys, [0])
        worst = max(worst, float(np.max(np.abs(ml_track - en_track))))
    dt = time.perf_counter() - t0
    _gate("criterion 2", worst <= 1e-14 and dt < 5.0,
          f"L=0 vs EnKF over 10 steps, both solvers, max gap {worst:.2e}, {dt:.2f}s")


def test_criterion_3_coarse_increment_variance():
    cfg = ModelConfig(T=0.25, b=0.251)
    hier = LevelHierarchy(kappa=2.0, n0=4, j0=1, T=0.25)
    t0 = time.perf_counter()
    worst_sigma = 0.0
    for level in (2, 5):
        n, j, _, dt = hier.level_params(level)
        blocks = int(np.ceil(1e5 / (j // 2)))
        pooled = {jj: [] for jj in (1, 4, 16)}
        damp = np.exp(-eigenvalues(n) * dt)
        for i in range(blocks):
            blk = draw_noise_block(level, cfg, hier, RngKey(SEED, "forward", i, level, 0))
            v = damp[None, :] * blk[0::2] + blk[1::2]
            for jj in pooled:
                pooled[jj].append(v[:, jj - 1])
        for jj, chunks in pooled.items():
            samples = np.concatenate(chunks)
            lam = eigenvalues(n)[jj - 1]
            want = substep_noise_var(lam, 2.0 * dt, cfg.b)
            se = want * np.sqrt(2.0 / (samples.size - 1))
            worst_sigma = max(worst_sigma, abs(samples.var(ddof=1) - want) / se)
    dt_wall = time.perf_counter() - t0
    _gate("criterion 3", worst_sigma <= 3.0 and dt_wall < 30.0,
          f"combined coarse increment variance, modes (1,4,16) at levels (2,5), "
          f"1e5 draws each, worst deviation {worst_sigma:.2f} SE, {dt_wall:.2f}s")


def test_criterion_4_pair_coupling_rate():
    t0 = time.perf_counter()
    slopes = {}
    for solver in ("exact", "expeuler"):
        model, hier, _, u0 = build_example(1, solver, n_ref=256)
        logs_h, logs_e = [], []
        for level in range(3, 9):
            n = hier.n_modes(level)
            nc = hier.n_modes(level - 1)
            fine = np.tile(u0[:n, None], (1, 1000))
            coarse = np.tile(u0[:nc, None], (1, 1000))
            key = RngKey(SEED, "forward", 0, level, 0)
            cout, fout = propagate_pairs(coarse, fine, level, model, hier,
                                         key.generator(), solver)
            diff = fout.copy()
            diff[:nc] -= cout
            logs_h.append(np.log(hier.level_params(level)[2]))
            logs_e.append(np.log(np.mean(np.sum(diff ** 2, axis=0))))
        slopes[solver] = float(np.polyfit(logs_h, logs_e, 1)[0])
    dt = time.perf_counter() - t0
    ok = all(abs(s - 2.0) <= 0.3 for s in slopes.values())
    _gate("criterion 4", ok and dt < 120.0,
          f"pair difference decay over levels 3..8, slopes in h: "
          f"exact {slopes['exact']:+.3f}, expeuler {slopes['expeuler']:+.3f} "
          f"(target +2.0 +/- 0.3), {dt:.2f}s")


def test_criterion_5_ensemble_gain_approaches_kalman_gain():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(example=1, solver="exact", method="enkf", n_steps=3,
                           realizations=2, eps_grid=(1.0,), master_seed=SEED,
                           n_ref=32, n0=32)
    model, hier, obs, u0 = cfg.model, cfg.hierarchy, cfg.obs, cfg.u0
    data = synthesize_truth_and_obs(cfg)
    m_size = 10000
    ens = MultilevelEnsemble((PairEnsemble(np.zeros((0, m_size)),
                                           np.tile(u0[:, None], (1, m_size)), 0),))
    state = GaussianState.deterministic(u0)
    worst_gain = 0.0
    for n in range(1, 4):
        pred = ml_predict(ens, model, hier, SEED, n, "exact")
        k = ml_gain(compute_R_ml(pred, obs), obs)
        state = kalman_predict(state, model)
        k_ref = ml_gain(state.cov_action(obs.H.T), obs)
        rel = np.linalg.norm(k[0] - k_ref) / np.linalg.norm(k_ref)
        worst_gain = max(worst_gain, float(rel))
        ens = ml_update(pred, k, data.ys[n - 1], obs, SEED, n)
        state = kalman_update(state, data.ys[n - 1], obs)

    # low-rank recursion against the dense oracle
    cfg64 = ExperimentConfig(example=1, solver="exact", method="enkf", n_steps=5,
                             realizations=2, eps_grid=(1.0,), master_seed=SEED,
                             n_ref=64, n0=32)
    model64, obs64, u064 = cfg64.model, cfg64.obs, cfg64.u0
    data64 = synthesize_truth_and_obs(cfg64)
    st = GaussianState.deterministic(u064)
    mean, cov = u064.copy(), np.zeros((64, 64))
    worst_dense = 0.0
    for n in range(5):
        st = kalman_step(st, data64.ys[n], obs64, model64)
        mean, cov = _kalman_dense_step(mean, cov, data64.ys[n], obs64, model64)
        worst_dense = max(worst_dense,
                          float(np.max(np.abs(st.mean - mean))),
                          float(np.max(np.abs(_cov_matrix(st) - cov))))
    dt = time.perf_counter() - t0
    _gate("criterion 5", worst_gain <= 0.05 and worst_dense <= 1e-10 and dt < 30.0,
          f"M=1e4 gain within {worst_gain * 100:.2f}% of the exact gain over 3 steps "
          f"(gate 5%), low-rank vs dense gap {worst_dense:.2e} over 5 steps, {dt:.2f}s")


@pytest.fixture(scope="module")
def example1_data():
    cfg = ExperimentConfig(example=1, method="enkf", solver="exact", eps_grid=EPS_GRID,
                           n_steps=10, realizations=20, master_seed=SEED, n_ref=1024)
    return synthesize_truth_and_obs(cfg)


def _convergence_suite(example, data):
    out = {}
    for method, solver in (("enkf", "exact"), ("enkf", "expeuler"),
                           ("mlenkf", "exact"), ("mlenkf", "expeuler")):
        cfg = ExperimentConfig(example=example, method=method, solver=solver,
                               eps_grid=EPS_GRID, n_steps=10, realizations=20,
                               master_seed=SEED, n_ref=1024)
        records, _ = run_experiment(cfg, data=data)
        out[(method, solver)] = records
    return out


def _convergence_gates(suites):
    s_ee, se_ee = fit_loglog_slope(suites[("enkf", "exact")])[0::2]
    s_eu, se_eu = fit_loglog_slope(suites[("enkf", "expeuler")])[0::2]
    s_me, se_me = fit_loglog_slope(suites[("mlenkf", "exact")])[0::2]
    series = [v for _, _, v in normalized_series(suites[("mlenkf", "expeuler")])]
    spread = max(series) / min(series)
    growing = all(b > a for a, b in zip(series, series[1:]))
    checks = {
        "enkf exact": (abs(s_ee + 2.0 / 3.0) <= 0.15, f"slope {s_ee:+.3f} (gate -2/3 +/- 0.15, se {se_ee:.3f})"),
        "enkf expeuler": (abs(s_eu + 0.5) <= 0.15, f"slope {s_eu:+.3f} (gate -1/2 +/- 0.15, se {se_eu:.3f})"),
        "mlenkf exact": (abs(s_me + 1.0) <= 0.2, f"slope {s_me:+.3f} (gate -1 +/- 0.2, se {se_me:.3f})"),
        "mlenkf expeuler": (spread < 3.0 and not growing,
                            f"normalized mse*cost/L^3 spread {spread:.2f} (gate < 3, non-growing)"),
    }
    return checks


def test_criterion_6_convergence_rates(example1_data):
    t0 = time.perf_counter()
    suites = _convergence_suite(1, example1_data)
    checks = _convergence_gates(suites)
    dt = time.perf_counter() - t0
    detail = "; ".join(f"{name}: {msg}" for name, (_, msg) in checks.items())
    _gate("criterion 6", all(ok for ok, _ in checks.values()) and dt < 1800.0,
          f"example 1, eps 2^-2..2^-6: {detail}; {dt:.1f}s")


@pytest.mark.xfail(strict=False, reason="extended run on the second example; informational")
def test_criterion_6_second_example_extended():
    cfg = ExperimentConfig(example=2, method="enkf", solver="exact", eps_grid=EPS_GRID,
                           n_steps=10, realizations=20, master_seed=SEED, n_ref=1024)
    data = synthesize_truth_and_obs(cfg)
    t0 = time.perf_counter()
    suites = _convergence_suite(2, data)
    checks = _convergence_gates(suites)
    dt = time.perf_counter() - t0
    detail = "; ".join(f"{name}: {msg}" for name, (_, msg) in checks.items())
    _gate("criterion 6 extended", all(ok for ok, _ in checks.values()),
          f"example 2, eps 2^-2..2^-6: {detail}; {dt:.1f}s")


def test_criterion_7_cli_reruns_are_identical(tmp_path):
    t0 = time.perf_counter()
    args = ["--eps", "0.25", "--method", "mlenkf", "--solver", "expeuler",
            "--n-ref", "1024", "--realizations", "20", "--seed", str(SEED)]
    tables = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", "--out", str(out)] + args) == 0
        with open(out / "results.csv", newline="") as fh:
            tables.append(list(csv.reader(fh)))
    wall = RESULT_COLUMNS.index("wall_seconds")
    stripped = [[[c for i, c in enumerate(row) if i != wall] for row in t] for t in tables]
    dt = time.perf_counter() - t0
    _gate("criterion 7", stripped[0] == stripped[1] and dt < 60.0,
          f"two CLI runs agree on all result fields except wall_seconds, {dt:.2f}s")
