"""Smoke test of the benchmark on a tiny grid (eps 2^-2..2^-3, 2 realizations).

    python3 -m pytest perfbench
"""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
TINY = {name: replace(w, eps_exps=(2, 3), realizations=2) for name, w in run.WORKLOADS.items()}
LINE = re.compile(r"^(\S+) = (\S+) (\S+)")


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)

    def invoke(workload, trace, *extra):
        argv = ["--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", str(trace)]
        assert run.main([*argv, *extra], workloads=TINY) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = {m[1]: (float(m[2]), m[3]) for m in map(LINE.match, lines) if m}
        provenance = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
        return printed, json.loads(lines[-1]), provenance

    return invoke


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(bench, workload, trace):
    printed, result, _ = bench(workload, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in spec:
        assert printed[metric["name"]][1] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    assert printed["failed_frac"] == (0.0, "frac")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_second_seed_mode_uses_a_disjoint_master_seed(bench):
    _, result, provenance = bench("mlenkf-exact-deep", 0, "--second-seed")
    assert provenance["master_seed"] == 5 + 2 ** 63 and provenance["second_seed"]
    assert result["correct"]


def test_output_checks_catch_a_wrong_cost_and_a_nondeterministic_row(tmp_path):
    wl = TINY["mlenkf-exact-deep"]
    mlenkf = run.load_mlenkf()
    expected = run.expected_cells(mlenkf, wl)
    study = run.run_study(mlenkf, wl, 5, 1, tmp_path / "study")
    assert run.cell_problems(study, wl, expected, None) == []
    other = replace(study, rows=[list(r) for r in study.rows])
    other.rows[0][5] = repr(float(other.rows[0][5]) + 1.0)
    other.rows[1][7] = repr(math.nextafter(float(other.rows[1][7]), math.inf))
    cells = {cell for cell, _ in run.cell_problems(other, wl, expected, study)}
    assert cells == {0, 1}
