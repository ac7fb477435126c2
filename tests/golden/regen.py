"""Golden seeded outputs: small studies whose outputs are pinned in this folder.

Each study is one ``mlenkf run`` (n_ref 256, eps 0.25..0.0625, 5
realizations, the default seed).  Its pins are ``results.csv`` without
the ``wall_seconds`` column, ``schedule.csv`` and ``summary.txt``, in a
folder named after the study; ``truth.json`` pins the data record
``ys`` and the Kalman reference ``ref_qoi`` of each example.
``tests/test_golden.py`` reruns the studies against the pins.

A change that moves the random streams or the arithmetic on purpose
regenerates the pins from the repository root with

    PYTHONPATH=src python tests/golden/regen.py

and shows the diff in its change notes.  A pin whose fresh text the test
would still accept is kept as it is, so last-digit noise of another CPU
leaves it alone and the diff holds only the pins that really moved.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

from mlenkf import cli
from mlenkf.experiment import ExperimentConfig, synthesize_truth_and_obs

HERE = Path(__file__).resolve().parent

GRID = ["--n-ref", "256", "--eps", "0.25,0.125,0.0625", "--realizations", "5"]

STUDIES = {
    f"ex{example}-{method}-{solver}": [
        "--example", str(example), "--method", method, "--solver", solver, *GRID
    ]
    for example, method, solver in (
        (1, "enkf", "exact"),
        (1, "enkf", "expeuler"),
        (1, "mlenkf", "exact"),
        (1, "mlenkf", "expeuler"),
        (2, "mlenkf", "exact"),
    )
}

# studies also rerun at --jobs 2 against the same pins: the process pool
# and its batch sizes must not change any output
POOL_STUDIES = ("ex1-mlenkf-expeuler",)

TEXT_PINS = ("results.csv", "schedule.csv", "summary.txt")

# pins held exactly; the others hold their floats to REL (see test_golden)
EXACT_PINS = ("schedule.csv",)

# a number with a fraction or an exponent; integers stay in the text
_FLOAT = re.compile(r"([-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+))")
REL = 1e-12


def assert_text_close(actual, expected, what):
    got, want = _FLOAT.split(actual), _FLOAT.split(expected)
    assert len(got) == len(want), f"{what}: different layout"
    for i, (g, w) in enumerate(zip(got, want)):
        if i % 2:
            assert math.isclose(float(g), float(w), rel_tol=REL), f"{what}: {g} != {w}"
        else:
            assert g == w, f"{what}: {g!r} != {w!r}"


def pin_holds(path, text):
    """Whether the pin file at ``path`` already holds ``text`` as the test
    reads it: exactly for :data:`EXACT_PINS`, else to :data:`REL`."""
    if not path.exists():
        return False
    pinned = path.read_text()
    if path.name in EXACT_PINS:
        return text == pinned
    try:
        assert_text_close(text, pinned, path.name)
    except AssertionError:
        return False
    return True


def study_outputs(name, jobs=1):
    """``{pin name: text}`` of one study run now, at ``jobs`` workers."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", *STUDIES[name], "--jobs", str(jobs), "--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"mlenkf {' '.join(argv)} exited with {status}")
        out = Path(tmp)
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        wall = cli.RESULT_COLUMNS.index("wall_seconds")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            row[:wall] + row[wall + 1:] for row in rows
        )
        return {
            "results.csv": buf.getvalue(),
            "schedule.csv": (out / "schedule.csv").read_text(),
            "summary.txt": (out / "summary.txt").read_text(),
        }


def truth_record():
    """``ys`` and ``ref_qoi`` of the synthetic record of each example."""
    record = {}
    for example in (1, 2):
        data = synthesize_truth_and_obs(ExperimentConfig(example=example, n_ref=256))
        record[f"example{example}"] = {
            "ys": data.ys.ravel().tolist(),
            "ref_qoi": data.ref_qoi.tolist(),
        }
    return record


def main():
    fresh = {HERE / "truth.json": json.dumps(truth_record(), indent=1) + "\n"}
    for name in STUDIES:
        (HERE / name).mkdir(exist_ok=True)
        fresh.update((HERE / name / pin, text) for pin, text in study_outputs(name).items())
    moved = [path for path, text in fresh.items() if not pin_holds(path, text)]
    for path in moved:
        path.write_text(fresh[path])
    print(f"rewrote {len(moved)} of {len(fresh)} pins under {HERE}, kept the rest")
    for path in moved:
        print(f"  {path.relative_to(HERE)}")


if __name__ == "__main__":
    main()
