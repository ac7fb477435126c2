"""The library surface the benchmark reaches into must stay as it expects.

``perfbench/tracer.py`` wraps library functions by name from outside and
unpacks the arguments of ``propagate_pairs``; ``perfbench/setup_probe.py``
stops ``mlenkf run`` at its call into ``run_experiment``; and
``perfbench/run.py`` recomputes each study's expected cells and its slope
fit through the library.  A rename, a deletion or a signature change in
``src/`` would only show up as an error in a benchmark run; these tests
make it fail here instead.
"""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# perfbench/run.py imports mlenkf.cli, which loads every module the
# benchmark reaches into; the package itself re-exports nothing
import mlenkf.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("perfbench_tracer", TRACER)


@pytest.fixture(scope="module")
def runner():
    # run.py imports its tracer as a top-level module
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("perfbench_run", PERFBENCH / "run.py")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_patched_name_resolves(tracer):
    assert tracer.PATCHES
    for path, attr, _ in tracer.PATCHES:
        owner = tracer._resolve(mlenkf, path)
        assert callable(owner.__dict__[attr]), f"{path}.{attr}"


def test_a_step_calls_the_patched_filter_names(monkeypatch):
    # the tracer's filter spans see a step only through the module-global
    # lookups of mlenkf.filters that it patches: the moments, the gain and
    # the update once a step, and the forward map once per level
    names = ("compute_R_ml", "ml_gain", "ml_update", "propagate_pairs")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(mlenkf.filters, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(mlenkf.filters, name, counted(name))
    ex = mlenkf.experiment
    cfg = ex.ExperimentConfig(example=1, eps_grid=(0.125,), realizations=2, n_ref=64)
    sched = ex.make_schedule(0.125, cfg.hierarchy, "mlenkf")
    ml = ex.initial_multilevel_ensemble(cfg, sched, realizations=(0, 1))
    readers = ex.batch_readers(cfg.master_seed, ml, cfg.obs.m, "exact", 1)
    mlenkf.filters.mlenkf_step(ml, np.array([0.1]), cfg.obs, cfg.model, cfg.hierarchy,
                               "exact", readers)
    assert len(ml.levels) > 1
    assert calls == {"compute_R_ml": 1, "ml_gain": 1, "ml_update": 1,
                     "propagate_pairs": len(ml.levels)}


def test_forward_map_and_unit_counter_exist():
    assert callable(mlenkf.filters.propagate_pairs)
    assert {"forward", "moments"} <= set(mlenkf.model.unit_counter)


def test_forward_shape_unpacks_the_propagate_pairs_arguments(tracer):
    # the tracer calls _forward_shape(*args, **kwargs) with the arguments
    # of every propagate_pairs call, positional or by name
    names = list(inspect.signature(tracer._forward_shape).parameters)
    forward = inspect.signature(mlenkf.filters.propagate_pairs)
    assert list(forward.parameters) == names
    forward.bind(*names)
    forward.bind(**{name: name for name in names})


def test_setup_probe_stops_at_run_experiment(tmp_path):
    # the probe swaps run_experiment for a stand-in taking (cfg, data=None),
    # so the run's call into it must bind that signature
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), "--out", str(out),
         "--eps", "0.25", "--n-ref", "64", "--realizations", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0
    assert not (out / "results.csv").exists()


def test_expected_cells_call_the_library_as_the_benchmark_does(runner):
    # expected_cells calls build_example(EXAMPLE, solver, n_ref=N_REF),
    # make_schedule(eps, hierarchy, method), theoretical_cost(sched,
    # hierarchy, method, n_steps, m) and level_params, and reads Schedule.M
    # as an int for the EnKF and a tuple for the MLEnKF
    for wl in runner.WORKLOADS.values():
        cells = runner.expected_cells(mlenkf, wl)
        assert len(cells) == len(wl.eps)
        for level, cost, rows in cells:
            assert isinstance(level, int) and cost > 0.0
            assert len(rows) == (level + 1 if wl.method == "mlenkf" else 1)
            assert all(type(row[5]) is int for row in rows)


def test_slope_fit_takes_cost_mse_pairs():
    # provenance fits the (cost_units, mse) pairs of a study's results rows
    pts = [(10.0, 1.0), (40.0, 0.5), (160.0, 0.25)]
    slope, _, stderr = mlenkf.experiment.fit_loglog_slope(pts)
    assert slope == pytest.approx(-0.5) and stderr == pytest.approx(0.0, abs=1e-12)
