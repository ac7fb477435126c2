"""Seeded outputs of small studies against the pins in ``tests/golden/``.

Strings, integers and schedules must match exactly.  Floats are held to
1e-12 relative: numpy's SIMD ``exp``/``expm1`` may differ in the last
bits on another CPU, while a change of the random streams moves ``mse``
by about 1e-2.  ``tests/golden/regen.py`` regenerates the pins that moved
beyond that.
"""

import json

import numpy as np
import pytest

import mlenkf.experiment as experiment
from golden.regen import (
    HERE,
    POOL_STUDIES,
    REL,
    STUDIES,
    assert_text_close,
    pin_holds,
    study_outputs,
    truth_record,
)


# a jobs-1 study draws through a helper thread when it may use a CPU beyond
# its one job, else on the calling thread; each path runs on any host, with
# the usable CPUs patched to 4 (helper) or 1 (the "-direct" cases).  The
# helper cases also lift the helper's floor, which every target of these
# small studies is below.  The pool study leaves them as the host has them.
@pytest.mark.parametrize(
    "name, jobs, cpus",
    [pytest.param(name, 1, 4, id=f"{name}-1") for name in STUDIES]
    + [pytest.param(name, 1, 1, id=f"{name}-1-direct") for name in STUDIES]
    + [pytest.param(name, 2, None, id=f"{name}-2") for name in POOL_STUDIES],
)
def test_study_reproduces_its_pins(name, jobs, cpus, monkeypatch):
    if cpus is not None:
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiment, "UNIT_NORMALS", 0)
    outputs = study_outputs(name, jobs)
    assert outputs["schedule.csv"] == (HERE / name / "schedule.csv").read_text()
    for pin in ("results.csv", "summary.txt"):
        assert_text_close(outputs[pin], (HERE / name / pin).read_text(), f"{name}/{pin}")


def test_truth_record_reproduces_its_pins():
    pinned = json.loads((HERE / "truth.json").read_text())
    record = truth_record()
    assert record.keys() == pinned.keys()
    for example, series in pinned.items():
        for key, values in series.items():
            np.testing.assert_allclose(record[example][key], values, rtol=REL, atol=0)


def test_float_tolerance_catches_a_moved_digit():
    assert_text_close("mse 0.0651,5\n", "mse 0.0651,5\n", "same")
    with pytest.raises(AssertionError):
        assert_text_close("mse 0.06512,5\n", "mse 0.06511,5\n", "float")
    with pytest.raises(AssertionError):
        assert_text_close("L=3 0.5\n", "L=4 0.5\n", "integer")


def test_regen_keeps_the_pins_the_test_still_accepts(tmp_path):
    # a regen rewrites only pins that moved beyond what the test accepts,
    # so last-digit noise leaves a pin alone; a schedule is held exactly
    for name in ("results.csv", "schedule.csv"):
        path = tmp_path / name
        assert not pin_holds(path, "mse 0.0651,5\n")
        path.write_text("mse 0.06510000000000001,5\n")
        assert pin_holds(path, "mse 0.06510000000000001,5\n")
        assert pin_holds(path, "mse 0.0651,5\n") == (name == "results.csv")
        assert not pin_holds(path, "mse 0.06511,5\n")
        assert not pin_holds(path, "mse 0.06510000000000001,6\n")
