import concurrent.futures
import contextlib
import math
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mlenkf.experiment as experiment
from mlenkf.experiment import (
    ExperimentConfig,
    RunRecord,
    Schedule,
    TruthData,
    batch_readers,
    build_example,
    estimate_mse,
    fit_loglog_slope,
    initial_multilevel_ensemble,
    make_schedule,
    normalized_series,
    psi_cost,
    run_experiment,
    realization_batches,
    run_filter_realizations,
    synthesize_truth_and_obs,
    theoretical_cost,
)
import mlenkf.filters as filters
import mlenkf.rng as rng
from mlenkf.filters import mlenkf_step
from mlenkf.model import SOLVERS, exact_noise_var, propagator, unit_counter
from mlenkf.rng import Helper, RngKey
from mlenkf.spectral import LevelHierarchy, eigenvalues


def test_level_count_follows_accuracy_target():
    hier = build_example(1, "exact", n_ref=64)[1]
    for k in range(1, 7):
        sched = make_schedule(2.0 ** -k, hier, "mlenkf")
        assert sched.L == k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert make_schedule(1.0, hier, "mlenkf").L == 0


def test_schedule_sizes_exact_solver():
    # beta = 2 > s = 1: M_l = ceil(h_l^{3/2} h_L^{-2})
    hier = build_example(1, "exact", n_ref=64)[1]
    sched = make_schedule(0.125, hier, "mlenkf")
    assert sched.L == 3
    assert sched.M == (64, 23, 8, 3)


def test_schedule_sizes_expeuler_solver():
    # beta = s = 2: the balanced branch carries the L^2 factor
    hier = build_example(1, "expeuler", n_ref=64)[1]
    sched = make_schedule(0.125, hier, "mlenkf")
    assert sched.L == 3
    assert sched.M == (576, 144, 36, 9)


def test_schedule_sizes_cost_dominated_branch():
    # beta = 1 < s = 2: sizes follow h_l^{3/2} h_L^{-3/2}
    hier = LevelHierarchy(kappa=2.0, beta=1.0, gamma_t=1.0)
    with pytest.warns(UserWarning, match="clamped"):
        sched = make_schedule(0.5, hier, "mlenkf")
    assert sched.L == 2
    assert sched.M == (8, 3, 2)


def test_balanced_rates_is_the_schedule_branch_test():
    assert experiment.balanced_rates(build_example(1, "expeuler", n_ref=64)[1])
    assert not experiment.balanced_rates(build_example(1, "exact", n_ref=64)[1])
    # float fuzz far below any real rate gap still counts as balanced
    hier = LevelHierarchy(kappa=2.0, beta=2.0 + 1e-12, gamma_t=1.0)
    assert experiment.balanced_rates(hier)
    assert not experiment.balanced_rates(replace(hier, beta=2.1))


def test_enkf_schedule_size():
    hier = build_example(1, "exact", n_ref=64)[1]
    sched = make_schedule(0.125, hier, "enkf")
    assert sched.L == 3 and sched.M == 64
    assert make_schedule(0.3, hier, "enkf", base_constant=2.0).M == math.ceil(2.0 / 0.09)


def test_schedules_monotone_in_accuracy():
    for solver in ("exact", "expeuler"):
        hier = build_example(1, solver, n_ref=256)[1]
        prev = None
        for k in range(1, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sched = make_schedule(2.0 ** -k, hier, "mlenkf")
            assert np.all(np.diff(sched.M) <= 0)
            if prev is not None:
                assert sched.L >= prev.L
                for l in range(prev.L + 1):
                    assert sched.M[l] >= prev.M[l]
            prev = sched


def test_schedule_clamp_warns():
    hier = build_example(1, "exact", n_ref=64)[1]
    with pytest.warns(UserWarning, match="clamped"):
        make_schedule(0.125, hier, "mlenkf", base_constant=1e-6)
    with pytest.warns(UserWarning, match="clamped"):
        make_schedule(0.9, hier, "enkf", base_constant=1e-6)


def test_level_sizes_pair_levels_with_sizes():
    assert Schedule(0.5, 2, (6, 3, 2), "mlenkf").level_sizes() == ((0, 6), (1, 3), (2, 2))
    assert Schedule(0.5, 2, 9, "enkf").level_sizes() == ((2, 9),)


def test_schedule_validation():
    hier = build_example(1, "exact", n_ref=64)[1]
    with pytest.raises(ValueError):
        make_schedule(0.0, hier, "mlenkf")
    with pytest.raises(ValueError, match="method must be 'enkf' or 'mlenkf'"):
        make_schedule(0.1, hier, "ukf")
    for bad in ((0.5, 1, (4, 1), "mlenkf"), (0.5, 1, (4, 8), "mlenkf"),
                (0.25, 3, (8, 4), "mlenkf"), (0.25, 1, 8, "mlenkf"),
                (0.25, 1, (8, 4), "MLEnKF"), (0.25, 2, (8, 4), "enkf"),
                (0.25, 2, 8.0, "enkf")):
        with pytest.raises(ValueError):
            Schedule(*bad)


def test_psi_cost_rates():
    exact_h = build_example(1, "exact", n_ref=64)[1]
    euler_h = build_example(1, "expeuler", n_ref=64)[1]
    for l in range(4):
        assert psi_cost(exact_h, l + 1) == 2.0 * psi_cost(exact_h, l)
        assert psi_cost(euler_h, l + 1) == 4.0 * psi_cost(euler_h, l)


def test_theoretical_cost_hand_examples():
    hier = build_example(1, "exact", n_ref=64)[1]
    enkf = Schedule(0.25, 2, 5, "enkf")
    # per step M (N_L + m N_L) = 5 * (4 + 4) = 40
    assert theoretical_cost(enkf, hier, "enkf", 2, 1) == 80.0
    ml = Schedule(0.5, 1, (4, 2), "mlenkf")
    # level 0: 4 (1 + 1) = 8, level 1: 2 (2 + 1 + 2) = 10
    assert theoretical_cost(ml, hier, "mlenkf", 3, 1) == 54.0
    assert theoretical_cost(replace(enkf, M=10), hier, "enkf", 2, 1) == 160.0
    with pytest.raises(ValueError):
        theoretical_cost(enkf, hier, "mlenkf", 2, 1)


def test_build_example_coefficients():
    model1, hier1, obs1, u01 = build_example(1, "exact", n_ref=8)
    assert model1.b == pytest.approx(0.251)
    assert hier1.kappa == pytest.approx(2.0)
    assert hier1.gamma_t == 0.0
    assert obs1.H[0, 0] == pytest.approx(1.0)
    assert obs1.H[0, 1] == 0.0
    assert obs1.H[0, 2] == pytest.approx(-(3.0 ** -0.501))
    assert obs1.qoi[1] == pytest.approx(2.0 ** -0.501)
    assert u01[2] == pytest.approx(3.0 ** -1.501)

    model2, hier2, obs2, u02 = build_example(2, "exact", n_ref=8)
    assert model2.b == pytest.approx(0.501)
    assert np.allclose(obs2.H[0, :4], [math.sqrt(2.0), 0.0, -math.sqrt(2.0), 0.0])
    assert np.all(obs2.qoi == 1.0)
    assert u02[1] == pytest.approx(2.0 ** -1.999)
    assert build_example(1, "expeuler", n_ref=8)[1].gamma_t == pytest.approx(1.0)
    with pytest.raises(ValueError):
        build_example(3, "exact", n_ref=8)
    with pytest.raises(ValueError):
        build_example(1, "euler", n_ref=8)


def test_examples_lie_in_the_well_posedness_window(monkeypatch):
    # build_example hands its norm exponents r1, r2 to the ladder only, so
    # they are read off that call and checked against r1 < r2 < b + 1/4
    seen = []
    ladder = LevelHierarchy.from_equilibration.__func__

    def spy(cls, r1, r2, **kwargs):
        seen.append((r1, r2))
        return ladder(cls, r1, r2, **kwargs)

    monkeypatch.setattr(LevelHierarchy, "from_equilibration", classmethod(spy))
    for example, want in ((1, (0.0, 0.5)), (2, (0.2505, 0.7505))):
        model = build_example(example, "exact", n_ref=8)[0]
        r1, r2 = seen.pop()
        assert (r1, r2) == pytest.approx(want)
        assert r1 < r2 < model.b + 0.25


def test_examples_share_one_interval_between_model_and_ladder():
    # the exact flow and the Kalman reference read model.T, the expeuler
    # substeps dt_l = T / J_l read hierarchy.T
    for example in (1, 2):
        for solver in SOLVERS:
            model, hierarchy, _, _ = build_example(example, solver, n_ref=8)
            assert hierarchy.T == model.T


def test_synthesize_is_deterministic_and_method_free():
    cfg = ExperimentConfig(example=1, n_ref=32, n_steps=4, realizations=2)
    a = synthesize_truth_and_obs(cfg)
    b = synthesize_truth_and_obs(cfg)
    assert np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.ref_qoi, b.ref_qoi)
    c = synthesize_truth_and_obs(ExperimentConfig(
        example=1, method="enkf", solver="expeuler", n_ref=32, n_steps=4, realizations=2))
    assert np.array_equal(a.ys, c.ys)
    assert np.array_equal(a.ref_qoi, c.ref_qoi)
    assert a.ys.shape == (4, 1) and a.ref_qoi.shape == (5,)


def test_synthesize_observations_are_keyed_noisy_truth():
    # y_n = H u_n + eta_n, with the truth u_n rebuilt here from its keyed
    # streams by the exact flow u_n = a u_{n-1} + std z_n
    cfg = ExperimentConfig(example=1, n_ref=16, n_steps=3, realizations=2)
    data = synthesize_truth_and_obs(cfg)
    lam = eigenvalues(16)
    a = propagator(lam, cfg.model.T)
    std = np.sqrt(exact_noise_var(lam, cfg.model.T, cfg.model.b))
    u = cfg.u0
    for n in range(1, 4):
        z = RngKey(cfg.master_seed, "truth", 0, 0, n).generator().standard_normal(16)
        u = a * u + std * z
        rng = RngKey(cfg.master_seed, "data-noise", 0, 0, n).generator()
        eta = cfg.obs.Gamma_factor @ rng.standard_normal(cfg.obs.m)
        assert np.array_equal(data.ys[n - 1], cfg.obs.H @ u + eta)


def test_initial_ensembles_tile_projected_u0():
    cfg = ExperimentConfig(example=1, n_ref=32, realizations=2)
    e = initial_multilevel_ensemble(cfg, Schedule(0.25, 2, 5, "enkf"))
    assert e.levels[-1].level == 2 and tuple(pe.size for pe in e.levels) == (5,)
    assert e.levels[0].coarse.shape == (0, 5)
    assert np.array_equal(e.levels[0].fine, np.tile(cfg.u0[:4, None], (1, 5)))
    ml = initial_multilevel_ensemble(cfg, Schedule(0.25, 2, (6, 3, 2), "mlenkf"))
    assert tuple(pe.size for pe in ml.levels) == (6, 3, 2)
    assert np.array_equal(ml.levels[2].coarse, np.tile(cfg.u0[:2, None], (1, 2)))
    assert ml.levels[0].coarse.shape == (0, 6)


def test_realizations_replay_deterministically():
    cfg = ExperimentConfig(example=1, n_ref=32, n_steps=3, realizations=2)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.25, cfg.hierarchy, "mlenkf")
    t1 = run_filter_realizations(cfg, sched, data.ys, [0])
    t2 = run_filter_realizations(cfg, sched, data.ys, [0])
    assert np.array_equal(t1, t2)
    t3 = run_filter_realizations(cfg, sched, data.ys, [1])
    assert not np.array_equal(t1, t3)


def test_single_level_schedule_degenerates_to_enkf():
    # base level wide enough to observe through (m < N_0)
    cfg = ExperimentConfig(example=1, solver="exact", method="mlenkf", n_steps=4,
                           realizations=2, eps_grid=(1.0,), master_seed=17, n_ref=32, n0=4)
    data = synthesize_truth_and_obs(cfg)
    ml_track = run_filter_realizations(
        cfg, Schedule(1.0, 0, (6,), "mlenkf"), data.ys, [3])
    en_track = run_filter_realizations(
        replace(cfg, method="enkf"), Schedule(1.0, 0, 6, "enkf"), data.ys, [3])
    assert np.array_equal(ml_track, en_track)


def test_mse_zero_when_filter_reproduces_reference(monkeypatch):
    cfg = ExperimentConfig(example=1, n_ref=16, n_steps=3, realizations=4)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.5, cfg.hierarchy, "mlenkf")
    monkeypatch.setattr(experiment, "run_filter_realizations",
                        lambda c, s, ys, rs, helper: np.tile(data.ref_qoi, (len(rs), 1)))
    rec = estimate_mse(cfg, sched, data)
    assert rec.mse == 0.0
    assert rec.realizations == 4
    assert rec.cost_units == theoretical_cost(sched, cfg.hierarchy, "mlenkf", 3, 1)


def test_mse_is_mean_of_per_realization_errors():
    cfg = ExperimentConfig(example=1, n_ref=32, n_steps=2, realizations=3)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.5, cfg.hierarchy, "mlenkf")
    errs = [np.sum((run_filter_realizations(cfg, sched, data.ys, [r])[0] - data.ref_qoi) ** 2)
            for r in range(3)]
    rec = estimate_mse(cfg, sched, data)
    assert rec.mse == pytest.approx(np.mean(errs), rel=1e-12)


def test_mse_excludes_diverged_realizations(monkeypatch):
    cfg = ExperimentConfig(example=1, n_ref=16, n_steps=2, realizations=3)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.5, cfg.hierarchy, "mlenkf")

    def flaky(c, s, ys, rs, helper):
        out = np.tile(data.ref_qoi, (len(rs), 1))
        out[np.asarray(rs) == 0, 0] = np.nan
        return out

    monkeypatch.setattr(experiment, "run_filter_realizations", flaky)
    with pytest.warns(UserWarning, match="diverged"):
        rec = estimate_mse(cfg, sched, data)
    assert rec.realizations == 2 and rec.mse == 0.0
    monkeypatch.setattr(experiment, "run_filter_realizations",
                        lambda c, s, ys, rs, helper: np.full((len(rs), data.ref_qoi.size), np.nan))
    with pytest.warns(UserWarning, match="diverged"):
        with pytest.raises(RuntimeError):
            estimate_mse(cfg, sched, data)


@pytest.mark.parametrize("jobs", [1, 2])
def test_nan_datum_fails_realizations_not_the_study(jobs):
    # a NaN datum makes the next step's covariance action non-finite in
    # every block; each gets a NaN gain and a NaN track, in a pool worker too
    cfg = ExperimentConfig(example=1, eps_grid=(0.5,), n_ref=16, n_steps=2, realizations=3,
                           jobs=jobs)
    data = synthesize_truth_and_obs(cfg)
    ys = data.ys.copy()
    ys[0] = np.nan
    with pytest.warns(UserWarning, match="excluded 3 diverged"):
        with pytest.raises(RuntimeError, match="all realizations diverged"):
            run_experiment(cfg, data=TruthData(ys, data.ref_qoi))


def test_other_realization_errors_still_propagate(monkeypatch):
    cfg = ExperimentConfig(example=1, n_ref=16, n_steps=2, realizations=2)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.5, cfg.hierarchy, "mlenkf")

    def broken(c, s, ys, rs, helper):
        raise ValueError("not a divergence")

    monkeypatch.setattr(experiment, "run_filter_realizations", broken)
    with pytest.raises(ValueError, match="not a divergence"):
        estimate_mse(cfg, sched, data)


def test_enkf_error_scales_inversely_with_ensemble_size():
    # reference dimension equal to the filter dimension, so the sampling
    # error is the only error and quadrupling M divides the MSE by ~4
    cfg = ExperimentConfig(example=1, solver="exact", method="enkf", n_steps=3,
                           realizations=100, eps_grid=(1.0,), master_seed=91, jobs=1,
                           n_ref=8, n0=8)
    data = synthesize_truth_and_obs(cfg)
    small = estimate_mse(cfg, Schedule(0.5, 0, 20, "enkf"), data)
    large = estimate_mse(cfg, Schedule(0.5, 0, 80, "enkf"), data)
    ratio = small.mse / large.mse
    assert 2.6 <= ratio <= 6.2


def test_run_experiment_grid():
    cfg = ExperimentConfig(example=1, method="mlenkf", solver="exact",
                           eps_grid=(0.5, 0.25), n_steps=2, realizations=2, n_ref=32)
    records, schedules = run_experiment(cfg)
    assert [r.L for r in records] == [1, 2]
    assert [s.L for s in schedules] == [1, 2]
    for r in records:
        assert r.method == "mlenkf" and r.example == 1 and r.solver == "exact"
        assert r.cost_units > 0 and np.isfinite(r.mse)
        assert r.realizations == 2


def test_counted_units_match_theoretical_cost():
    for method in ("enkf", "mlenkf"):
        for solver in ("exact", "expeuler"):
            cfg = ExperimentConfig(example=1, method=method, solver=solver,
                                   n_ref=64, n_steps=3, realizations=2)
            data = synthesize_truth_and_obs(cfg)
            sched = make_schedule(0.25, cfg.hierarchy, method)
            before = sum(unit_counter.values())
            run_filter_realizations(cfg, sched, data.ys, [0])
            measured = sum(unit_counter.values()) - before
            want = theoretical_cost(sched, cfg.hierarchy, method, cfg.n_steps, cfg.obs.m)
            assert abs(measured - want) <= 0.05 * want


def test_fit_loglog_slope_recovers_exact_power_law():
    costs = np.array([10.0, 100.0, 1000.0, 10000.0])
    slope, intercept, stderr = fit_loglog_slope(list(zip(costs, 7.0 / costs)))
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(7.0), abs=1e-12)
    assert stderr <= 1e-12
    flat, _, _ = fit_loglog_slope(list(zip(costs, np.full(4, 3.0))))
    assert flat == pytest.approx(0.0, abs=1e-12)


def test_fit_loglog_slope_tolerates_noise():
    rng = np.random.default_rng(101)
    x = np.logspace(2, 6, 9)
    y = 5.0 * x ** (-2.0 / 3.0) * np.exp(rng.normal(0.0, 0.05, 9))
    slope, _, stderr = fit_loglog_slope(list(zip(x, y)))
    assert abs(slope + 2.0 / 3.0) <= 0.1
    assert stderr < 0.1


def test_fit_loglog_slope_accepts_records():
    recs = [RunRecord("enkf", 1, "exact", 0.5 ** k, k, 2.0 ** -k, 4.0 ** k, 0.0, 2)
            for k in range(1, 5)]
    slope, _, _ = fit_loglog_slope(recs)
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_loglog_slope_input_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([(10.0, 1.0), (100.0, 0.1)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(10.0, 1.0), (10.0, 0.5), (10.0, 0.1)])


def test_normalized_series_formula():
    recs = [
        RunRecord("mlenkf", 1, "expeuler", 0.5, 0, 1.0, 10.0, 0.0, 2),
        RunRecord("mlenkf", 1, "expeuler", 0.25, 2, 0.5, 100.0, 0.0, 2),
        RunRecord("mlenkf", 1, "expeuler", 0.125, 3, 0.25, 1000.0, 0.0, 2),
    ]
    out = normalized_series(recs)
    assert out == [(0.25, 2, pytest.approx(0.5 * 100.0 / 8.0)),
                   (0.125, 3, pytest.approx(0.25 * 1000.0 / 27.0))]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_steps=0, realizations=2)
    with pytest.raises(ValueError):
        ExperimentConfig(realizations=1)
    with pytest.raises(ValueError):
        ExperimentConfig(eps_grid=())
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(master_seed=-1)
    with pytest.raises(ValueError, match="jobs"):
        ExperimentConfig(jobs=0)
    with pytest.raises(ValueError, match="eps must be positive"):
        ExperimentConfig(eps_grid=(0.5, 0.0))
    # example 1: eps = 2 gives L = 0 and N_0 = 1 = m
    with pytest.raises(ValueError, match="N_L=1"):
        ExperimentConfig(eps_grid=(0.5, 2.0), n_ref=32)
    # example 1: eps = 0.01 gives L = 7 and N_7 = 128 > n_ref = 32
    with pytest.raises(ValueError, match="n_ref=32"):
        ExperimentConfig(eps_grid=(0.5, 0.01), n_ref=32)
    with pytest.raises(ValueError, match="method"):
        ExperimentConfig(method="foo", n_ref=32)
    for bad in (float("nan"), float("inf"), 0.0, -3.0):
        with pytest.raises(ValueError, match="base_constant"):
            ExperimentConfig(base_constant=bad, n_ref=32)
    for bad in (0, 1, 100):
        with pytest.raises(ValueError, match="n_ref must be a power of two >= 2"):
            ExperimentConfig(eps_grid=(0.5,), n_ref=bad)
    exact = ExperimentConfig(eps_grid=(0.5,), n_ref=32)
    with pytest.raises(ValueError, match="solver"):
        replace(exact, solver="rk4")
    with pytest.raises(ValueError, match="example"):
        replace(exact, example=3)
    assert ExperimentConfig(eps_grid=[0.5], n_ref=32).eps_grid == (0.5,)


def test_config_derives_its_parts_from_the_settings():
    cfg = ExperimentConfig(example=1, eps_grid=(0.5,), n_steps=2, realizations=2, n_ref=32)
    model, hier, obs, u0 = build_example(1, "exact", n_ref=32)
    assert cfg.model == model and cfg.hierarchy == hier
    assert np.array_equal(cfg.obs.H, obs.H) and np.array_equal(cfg.u0, u0)
    # replace re-derives the parts, so a changed example brings its own physics
    two = replace(cfg, example=2)
    model2, _, obs2, _ = build_example(2, "exact", n_ref=32)
    assert two.model.b == model2.b != cfg.model.b
    assert np.array_equal(two.obs.H, obs2.H) and not np.array_equal(two.obs.H, cfg.obs.H)
    euler = replace(cfg, solver="expeuler", n0=2)
    assert euler.hierarchy.gamma_t > 0.0 and euler.hierarchy.n0 == 2
    # the derived arrays take no part in ==
    assert euler == replace(cfg, solver="expeuler", n0=2)


def test_run_experiment_opens_one_pool_per_study(monkeypatch):
    opened, initializers, batches = [], [], []

    class InlinePool:
        def __init__(self, max_workers, initializer):
            opened.append(max_workers)
            initializers.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            # the pool runs the batch function itself, and never with a draw
            # helper, even with CPUs to spare
            assert fn.func is run_filter_realizations and fn.keywords == {"helper": None}
            assert all(isinstance(batch, range) for batch in items)
            batches.append([len(batch) for batch in items])
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cpus(monkeypatch, 8)
    cfg = ExperimentConfig(example=1, eps_grid=(0.5, 0.25), n_ref=16, n_steps=2,
                           realizations=3, jobs=64)
    pooled, _ = run_experiment(cfg)
    assert opened == [3]
    assert initializers == [experiment._worker_heap_policy]
    serial, _ = run_experiment(replace(cfg, jobs=1))
    assert opened == [3]
    assert [r.mse for r in pooled] == [r.mse for r in serial]
    # nor more workers than usable CPUs, while jobs still cuts the batches
    cpus(monkeypatch, 2)
    batches.clear()
    run_experiment(replace(cfg, realizations=64))
    assert opened == [3, 2] and batches == [[1] * 64] * 2


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the worker heap policy sets glibc's malloc parameters only",
)
def test_worker_heap_policy_reuses_freed_level_arrays():
    # the update's three level-0 temporaries at 147,456 members (1.15 MiB
    # each), made, touched and freed every step; without the policy glibc
    # trims them off the heap and every cycle faults hundreds of pages
    script = """
import resource
import numpy as np
from mlenkf.experiment import _worker_heap_policy

_worker_heap_policy()

def cycle():
    temps = [np.ones((1, 147456)) for _ in range(3)]
    del temps

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = Path(experiment.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50


def batch_sizes(cfg):
    return [[len(b) for b in realization_batches(
        cfg, make_schedule(eps, cfg.hierarchy, cfg.method))] for eps in cfg.eps_grid]


def test_realization_batches_follow_the_batch_rule(monkeypatch):
    # the deep exact ladder's finest realization (70,639 entries) is below
    # the entry budget, so every target fills batches up to the budget, at
    # most ceil(R / jobs) realizations each
    cfg = ExperimentConfig(example=1, eps_grid=tuple(2.0 ** -k for k in range(2, 8)),
                           realizations=20, n_ref=1024)
    assert batch_sizes(cfg) == [[20], [20], [20], [20], [10, 10], [3] * 6 + [2]]
    # the wide grids' finest realization reaches the budget alone, so it
    # stays the cap: their finest target runs one realization per batch
    enkf = replace(cfg, method="enkf", solver="expeuler", eps_grid=cfg.eps_grid[:5],
                   realizations=2)
    assert batch_sizes(enkf) == [[2], [2], [2], [2], [1, 1]]
    pooled = replace(cfg, solver="expeuler", eps_grid=cfg.eps_grid[:5], realizations=10, jobs=2)
    assert batch_sizes(pooled) == [[5, 5]] * 4 + [[1] * 10]
    sched = make_schedule(0.25, pooled.hierarchy, "mlenkf")
    assert [list(b) for b in realization_batches(pooled, sched)] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    # the batches that the size needs are cut equal, the first ones larger
    # by one, and none is larger than the size: ceil(R / jobs), or the cap
    # over one realization's entries
    for realizations, jobs, cap in ((20, 1, 15), (7, 2, 99), (11, 3, 99), (10, 1, 4), (3, 1, 1),
                                    (20, 6, 5)):
        entries = experiment.BATCH_ENTRIES // cap + 1
        monkeypatch.setattr(experiment, "BATCH_ENTRIES", entries * cap)
        sizes = [len(b) for b in realization_batches(
            replace(cfg, realizations=realizations, jobs=jobs), Schedule(0.25, 0, entries, "enkf"))]
        size = min(-(-realizations // jobs), cap)
        assert sum(sizes) == realizations and len(sizes) == -(-realizations // size)
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= size
        assert sizes == sorted(sizes, reverse=True)


def test_batched_step_advances_in_place_and_keeps_no_projections():
    # a step on three finest realizations of the deep exact ladder advances
    # its input in place and projects each member only inside the kernel
    # that reads it, so it allocates about 0.94 member copies above its
    # input, one level's draws and temporaries; a step that kept every
    # level's projections for the whole step peaked at about 1.19 copies,
    # one that built its prediction apart from its input at about 2, and
    # one that built its update in fresh arrays at about 2.5
    cfg = ExperimentConfig(example=1, eps_grid=(2.0 ** -7,), realizations=3, n_ref=1024)
    sched = make_schedule(2.0 ** -7, cfg.hierarchy, "mlenkf")
    assert sched.L == 7
    ml = initial_multilevel_ensemble(cfg, sched, realizations=(0, 1, 2))
    copy = sum(pe.coarse.nbytes + pe.fine.nbytes for pe in ml.levels)
    args = (cfg.obs, cfg.model, cfg.hierarchy)
    readers = batch_readers(cfg.master_seed, ml, cfg.obs.m, "exact", 2)
    y = np.array([0.1])
    ml = mlenkf_step(ml, y, *args, "exact", readers)  # fills the coefficient memos
    tracemalloc.start()
    try:
        out = mlenkf_step(ml, y, *args, "exact", readers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out.levels[-1].fine))
    assert peak <= 1.05 * copy, peak / copy


# Each case holds a level whose blocks are longer than einsum's buffer
# (np.getbufsize(), 8192) and levels whose blocks are shorter; the MLEnKF
# cases have an N_0 = 1 base level.
BATCH_CASES = {
    ("mlenkf", "exact"): 2.0 ** -7,  # M_0 = 16384
    ("mlenkf", "expeuler"): 2.0 ** -5,  # M_0 = 25600
    ("enkf", "exact"): None,
    ("enkf", "expeuler"): None,
}


@pytest.mark.parametrize("method,solver", sorted(BATCH_CASES))
def test_batched_realizations_match_solo_runs(method, solver):
    cfg = ExperimentConfig(example=1, method=method, solver=solver, eps_grid=(0.25,),
                           n_steps=2, realizations=5, n_ref=128)
    data = synthesize_truth_and_obs(cfg)
    eps = BATCH_CASES[method, solver]
    if eps is None:
        schedules = (Schedule(0.25, 2, 40, "enkf"), Schedule(0.25, 2, 9000, "enkf"))
    else:
        schedules = (make_schedule(eps, cfg.hierarchy, method),)
    for sched in schedules:
        batch = run_filter_realizations(cfg, sched, data.ys, range(5))
        solo = np.vstack([run_filter_realizations(cfg, sched, data.ys, [r]) for r in range(5)])
        assert np.all(np.isfinite(batch))
        assert np.array_equal(batch, solo)
        # a batch reads each realization's own streams, wherever it sits
        assert np.array_equal(run_filter_realizations(cfg, sched, data.ys, [3, 1]), solo[[3, 1]])


# eps of each case: two or more levels for the MLEnKF, and the EnKF's
# single level, which under expeuler ends each step with an empty draw
HELPER_CASES = {
    ("mlenkf", "exact"): 0.125,
    ("mlenkf", "expeuler"): 0.125,
    ("enkf", "exact"): 0.25,
    ("enkf", "expeuler"): 0.25,
}


def cpus(monkeypatch, count):
    """Patch the usable CPUs to ``count``, and lift the helper's floor: a
    step of these small targets draws far fewer normals than one unit."""
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: count)
    monkeypatch.setattr(experiment, "UNIT_NORMALS", 0)


def count_fills(monkeypatch, draw, helper_delay=0.0):
    """Patch ``rng._draw`` to ``draw`` counting its fills per thread, which
    it returns as ``{"main": n, "helper": n}``; each fill on the helper
    thread first sleeps ``helper_delay`` seconds."""
    fills = {"main": 0, "helper": 0}

    def counted(generator, out):
        if threading.current_thread() is threading.main_thread():
            fills["main"] += 1
        else:
            fills["helper"] += 1
            time.sleep(helper_delay)
        draw(generator, out)

    monkeypatch.setattr(rng, "_draw", counted)
    return fills


def step_plan(cfg, sched):
    """Normals a realization reads in one step per purpose."""
    return experiment._step_normals(experiment._level_rows(sched, cfg.hierarchy), cfg.obs.m,
                                    cfg.solver)


def target_helper(cfg, sched, batches):
    """A draw helper for the target ``sched`` run as ``batches``, built as
    :func:`estimate_mse` builds its own."""
    return Helper(cfg.master_seed, batches, step_plan(cfg, sched), cfg.n_steps)


@pytest.mark.parametrize("method,solver", sorted(HELPER_CASES))
def test_prefetched_draws_leave_the_tracks_byte_identical(monkeypatch, method, solver):
    # without a helper every read draws on the calling thread, CPUs to
    # spare or not; one helper, serving a batch of three and then a batch
    # of one, fills the draws on its thread: also when the threads switch
    # every microsecond, and when the helper's fills are slow, so that the
    # calling thread fills most units itself; the tracks must not tell
    # them apart.  Five steps, more than the helper's slots, so the
    # released slots are refilled
    cfg = ExperimentConfig(example=1, method=method, solver=solver,
                           eps_grid=(HELPER_CASES[method, solver],), n_steps=5,
                           realizations=3, n_ref=128)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(cfg.eps_grid[0], cfg.hierarchy, method)
    cpus(monkeypatch, 4)
    tracks, fills = {}, {}
    draw = rng._draw
    interval = sys.getswitchinterval()
    try:
        for case, switch, delay in (("direct", interval, 0.0), ("helper", 1e-6, 0.0),
                                    ("slow helper", interval, 0.002)):
            sys.setswitchinterval(switch)
            fills[case] = count_fills(monkeypatch, draw, delay)
            with (contextlib.nullcontext() if case == "direct"
                  else target_helper(cfg, sched, [(0, 1, 2), (1,)])) as helper:
                for batch in ((0, 1, 2), (1,)):
                    tracks[case, batch] = run_filter_realizations(cfg, sched, data.ys, batch,
                                                                  helper)
    finally:
        sys.setswitchinterval(interval)
    assert fills["direct"]["helper"] == 0 and fills["helper"]["helper"] > 0
    assert fills["slow helper"]["main"] > fills["slow helper"]["helper"]
    for batch in ((0, 1, 2), (1,)):
        assert np.all(np.isfinite(tracks["direct", batch]))
        for case in ("helper", "slow helper"):
            assert np.array_equal(tracks["direct", batch], tracks[case, batch])
    assert np.array_equal(tracks["helper", (0, 1, 2)][1:2], tracks["helper", (1,)])


@pytest.mark.parametrize("count", [1, 4], ids=["direct", "helper"])
@pytest.mark.parametrize("method,solver", sorted(HELPER_CASES))
def test_a_step_that_draws_an_extra_row_raises_on_either_path(monkeypatch, method, solver,
                                                              count):
    # a forward map that draws one row more than the plan must fail, not
    # shift every later draw of its streams
    cfg = ExperimentConfig(example=1, method=method, solver=solver,
                           eps_grid=(HELPER_CASES[method, solver],), n_steps=2,
                           realizations=2, n_ref=128)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(cfg.eps_grid[0], cfg.hierarchy, method)
    propagate = filters.propagate_pairs

    def extra_row(coarse, fine, level, model, hierarchy, rng, solver):
        out = propagate(coarse, fine, level, model, hierarchy, rng, solver)
        rng.standard_normal((1, fine.shape[1]))
        return out

    monkeypatch.setattr(filters, "propagate_pairs", extra_row)
    cpus(monkeypatch, count)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="reads more than its"):
        estimate_mse(cfg, sched, data)
    assert threading.active_count() == before


def test_helper_needs_a_cpu_beyond_the_jobs(monkeypatch):
    # a target in this process gets one helper, given its batches and
    # allocated before the first batch's ensemble, when the process may
    # run on a CPU beyond the jobs
    assert 1 <= experiment._usable_cpus() <= os.cpu_count()
    cfg = ExperimentConfig(example=1, eps_grid=(0.5,), n_ref=16, n_steps=2, realizations=3)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.5, cfg.hierarchy, "mlenkf")
    events = []
    ensemble = experiment.initial_multilevel_ensemble
    monkeypatch.setattr(experiment, "Helper", lambda *args: events.append(args) or Helper(*args))
    monkeypatch.setattr(experiment, "initial_multilevel_ensemble",
                        lambda *args: events.append(len(args[2])) or ensemble(*args))
    for count, jobs, expected in ((2, 1, True), (2, 2, False), (3, 2, True), (1, 1, False)):
        cpus(monkeypatch, count)
        events.clear()
        estimate_mse(replace(cfg, jobs=jobs), sched, data)
        batches = [range(3)] if jobs == 1 else [range(2), range(2, 3)]
        helper = [(cfg.master_seed, batches, step_plan(cfg, sched), cfg.n_steps)]
        assert events == (helper if expected else []) + list(map(len, batches))
    # and only when a step of its widest batch draws one unit of forward
    # normals or more: an EnKF target at B = 1 draws 4,096 at eps 2^-4 and
    # 32,768, the floor, at 2^-5
    cpus(monkeypatch, 3)
    monkeypatch.setattr(experiment, "UNIT_NORMALS", rng.UNIT_NORMALS)
    enkf = replace(cfg, method="enkf", eps_grid=(0.0625, 0.03125), n_ref=64, n_steps=1,
                   realizations=2, jobs=2)
    data = synthesize_truth_and_obs(enkf)
    for eps, expected in ((0.0625, False), (0.03125, True)):
        sched = make_schedule(eps, enkf.hierarchy, "enkf")
        plan = step_plan(enkf, sched)
        assert plan["forward"] == eps ** -3
        events.clear()
        estimate_mse(enkf, sched, data)
        helper = [(enkf.master_seed, [range(1), range(1, 2)], plan, enkf.n_steps)]
        assert events == (helper if expected else []) + [1, 1]


def test_helper_fills_the_next_batch_before_this_one_finishes(monkeypatch):
    # one helper serves a target's batches of 4 and 3: the first batch's
    # last c steps publish the second's first c steps, c the slots of a
    # purpose (three, for these one-unit steps), before the
    # first batch finishes, also when the helper's fills are slow, and the
    # tracks are those of the direct path
    cfg = ExperimentConfig(example=1, eps_grid=(0.125,), n_steps=5, realizations=7, n_ref=128)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.125, cfg.hierarchy, "mlenkf")
    batches = [range(4), range(4, 7)]
    want = [run_filter_realizations(cfg, sched, data.ys, b) for b in batches]
    fills = count_fills(monkeypatch, rng._draw, 0.002)
    finish = rng.StreamReader.finish
    with target_helper(cfg, sched, batches) as helper:
        published, at_finish = [], []
        publish = helper.publish
        monkeypatch.setattr(helper, "publish", lambda units: published.append(1) or publish(units))
        monkeypatch.setattr(rng.StreamReader, "finish",
                            lambda reader: at_finish.append(len(published)) or finish(reader))
        got = [run_filter_realizations(cfg, sched, data.ys, b, helper) for b in batches]
    # two purposes, each with the first batch's steps and its slots more
    slots = sum(s.shape[0] for s in helper.slots.values())
    assert at_finish[:2] == [2 * cfg.n_steps + slots] * 2
    assert len(published) == 2 * 2 * cfg.n_steps and fills["helper"] > 0
    for g, w in zip(got, want):
        assert np.all(np.isfinite(w)) and np.array_equal(g, w)


def test_helper_keeps_two_slots_for_a_step_of_several_units():
    # a purpose whose step of the widest batch splits into two or more units
    # keeps two slots, one whose step is one unit keeps three; each slot
    # holds one step of the widest batch
    deep = ExperimentConfig(example=1, eps_grid=tuple(2.0 ** -k for k in range(2, 8)),
                            realizations=20, n_ref=1024)
    enkf = replace(deep, method="enkf", solver="expeuler", eps_grid=deep.eps_grid[:5],
                   realizations=2)
    cases = (
        # batches 3,3,3,3,3,3,2: 3 forward units a step, 2 perturbation units
        (deep, 2.0 ** -7, {"forward": (2, 3 * 52_554), "obs-perturbation": (2, 3 * 25_341)}),
        # one batch of 20: forward units of 11 and 9 blocks, 1 perturbation unit
        (deep, 2.0 ** -5, {"forward": (2, 20 * 3_078), "obs-perturbation": (3, 20 * 1_583)}),
        # batches [1, 1]: one unit a step of each purpose
        (enkf, 2.0 ** -6, {"forward": (3, 262_144), "obs-perturbation": (3, 4_096)}),
    )
    for cfg, eps, want in cases:
        sched = make_schedule(eps, cfg.hierarchy, cfg.method)
        with target_helper(cfg, sched, realization_batches(cfg, sched)) as helper:
            assert {p: (len(s), s.nbytes) for p, s in helper.slots.items()} == {
                p: (c, 8 * c * n) for p, (c, n) in want.items()}


def test_step_normals_are_the_reads_of_a_step():
    cfg = ExperimentConfig(example=1, solver="expeuler", eps_grid=(0.25,), n_ref=64)
    sched = make_schedule(0.25, cfg.hierarchy, "mlenkf")
    rows = experiment._level_rows(sched, cfg.hierarchy)
    # expeuler draws the fine noise, then the coarse partners' own
    assert experiment._step_normals(rows, 3, "expeuler") == {
        "forward": sum((n_f + n_c) * m_l for _, n_f, n_c, m_l in rows),
        "obs-perturbation": 3 * sum(m_l for *_, m_l in rows),
    }
    assert experiment._step_normals(rows, 3, "exact")["forward"] == sum(
        n_f * m_l for _, n_f, _, m_l in rows)


def test_a_failing_batch_ends_its_helper_thread(monkeypatch):
    # the gain raises at step 3: the target re-raises it, and the helper
    # that was filling step 4's draws is gone when it does
    cfg = ExperimentConfig(example=1, eps_grid=(0.25,), n_ref=64, n_steps=5, realizations=3)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.25, cfg.hierarchy, "mlenkf")
    cpus(monkeypatch, 4)
    gain = filters.ml_gain
    calls = []

    def failing(r, obs):
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("gain fails at step 3")
        return gain(r, obs)

    monkeypatch.setattr(filters, "ml_gain", failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match="gain fails at step 3"):
        estimate_mse(cfg, sched, data)
    assert len(calls) == 3
    assert threading.active_count() == before
    # a fill that raises on the helper is raised on the calling thread,
    # which holds its own fills until the helper has tried one
    monkeypatch.setattr(filters, "ml_gain", gain)
    tried = threading.Event()
    draw = rng._draw

    def failing_fill(generator, out):
        if threading.current_thread() is threading.main_thread():
            assert tried.wait(10)
            return draw(generator, out)
        tried.set()
        raise FloatingPointError("fill fails on the helper")

    monkeypatch.setattr(rng, "_draw", failing_fill)
    with pytest.raises(FloatingPointError, match="fill fails on the helper"):
        estimate_mse(cfg, sched, data)
    assert threading.active_count() == before


def test_a_finished_study_leaves_no_thread(monkeypatch):
    cpus(monkeypatch, 4)
    before = threading.active_count()
    cfg = ExperimentConfig(example=1, eps_grid=(0.5, 0.25), n_ref=32, n_steps=2, realizations=3)
    records, _ = run_experiment(cfg)
    assert len(records) == 2
    assert threading.active_count() == before


def test_diverging_realization_leaves_its_batch_mates_alone(monkeypatch):
    # realization 2's forward stream returns infinities at step 2, so its
    # covariance action turns non-finite there
    class Blowup:
        def standard_normal(self, out):
            out[...] = np.inf
            return out

    generator = RngKey.generator
    blown = {2}

    def rigged(key):
        if key.purpose == "forward" and key.step == 2 and key.realization in blown:
            return Blowup()
        return generator(key)

    cfg = ExperimentConfig(example=1, method="mlenkf", solver="exact", eps_grid=(0.25, 0.125),
                           n_steps=3, realizations=4, n_ref=64)
    data = synthesize_truth_and_obs(cfg)
    sched = make_schedule(0.25, cfg.hierarchy, "mlenkf")
    assert [len(b) for b in realization_batches(cfg, sched)] == [4]
    clean = run_filter_realizations(cfg, sched, data.ys, range(4))
    monkeypatch.setattr(RngKey, "generator", rigged)
    with np.errstate(invalid="ignore"):
        batch = run_filter_realizations(cfg, sched, data.ys, range(4))
        alone = run_filter_realizations(cfg, sched, data.ys, [2])
    assert np.all(np.isnan(batch[2])) and np.all(np.isnan(alone))
    keep = [0, 1, 3]
    assert np.array_equal(batch[keep], clean[keep])
    with pytest.warns(UserWarning, match="excluded 1 diverged"), np.errstate(invalid="ignore"):
        rec = estimate_mse(cfg, sched, data)
    assert rec.realizations == 3
    errs = np.sum((clean[keep] - data.ref_qoi) ** 2, axis=1)
    assert rec.mse == np.mean(errs)
    # every block blows up: every track is NaN, and nothing raises
    blown.update(range(4))
    with np.errstate(invalid="ignore"):
        batch = run_filter_realizations(cfg, sched, data.ys, range(4))
    assert batch.shape == clean.shape and np.all(np.isnan(batch))
