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
import mlenkf.rng as rng
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
# small studies is below.  Most of their steps are one helper unit, for
# which the helper keeps three slots; the "-units" cases make every block a
# unit, so every step is several units and every purpose keeps two slots.
# The pool study leaves them as the host has them.
@pytest.mark.parametrize(
    "name, jobs, cpus, unit_normals",
    [pytest.param(name, 1, 4, None, id=f"{name}-1") for name in STUDIES]
    + [pytest.param(name, 1, 4, 1, id=f"{name}-1-units") for name in STUDIES]
    + [pytest.param(name, 1, 1, None, id=f"{name}-1-direct") for name in STUDIES]
    + [pytest.param(name, 2, None, None, id=f"{name}-2") for name in POOL_STUDIES],
)
def test_study_reproduces_its_pins(name, jobs, cpus, unit_normals, monkeypatch):
    if cpus is not None:
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiment, "UNIT_NORMALS", 0)
    if unit_normals is not None:
        monkeypatch.setattr(rng, "UNIT_NORMALS", unit_normals)
    slots = set()  # the slot counts of the helpers that the study opens

    class Counted(rng.Helper):
        def __init__(self, *args):
            super().__init__(*args)
            slots.update(len(s) for s in self.slots.values())

    monkeypatch.setattr(experiment, "Helper", Counted)
    outputs = study_outputs(name, jobs)
    if cpus != 4:  # the direct and pool paths open no helper in this process
        assert not slots
    else:
        assert slots == {2} if unit_normals else 3 in slots
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
