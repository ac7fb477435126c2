"""The library surface the benchmark reaches into must stay as it expects.

``perfbench/tracer.py`` wraps library functions by name from outside and
unpacks the arguments of ``propagate_pairs``; ``perfbench/setup_probe.py``
stops ``mlenkf run`` at its call into ``run_experiment``.  A rename, a
deletion or a signature change in ``src/`` would only show up as an
error in a benchmark run; these tests make it fail here instead.
"""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import mlenkf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves(tracer):
    assert tracer.PATCHES
    for path, attr, _ in tracer.PATCHES:
        owner = tracer._resolve(mlenkf, path)
        assert callable(owner.__dict__[attr]), f"{path}.{attr}"


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
