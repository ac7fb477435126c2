import csv
import os
import subprocess
import sys
from importlib.metadata import PathDistribution
from pathlib import Path

import numpy as np
import pytest

import mlenkf.experiment
import mlenkf.filters
import mlenkf.verify
from mlenkf.cli import RESULT_COLUMNS, SCHEDULE_COLUMNS, load_config, main


def tiny_config(tmp_path, **extra):
    lines = {
        "example": 1,
        "method": "mlenkf",
        "solver": "exact",
        "eps": "0.5,0.25",
        "n_steps": 2,
        "realizations": 2,
        "n_ref": 32,
        "seed": 5,
    }
    lines.update(extra)
    path = tmp_path / "study.cfg"
    path.write_text("# tiny study\n" + "".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_writes_results_schedule_summary(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "mlenkf" and row[1] == "1" and row[2] == "exact"
        assert float(row[5]) > 0 and float(row[7]) >= 0
    sched = read_rows(out / "schedule.csv")
    assert sched[0] == list(SCHEDULE_COLUMNS)
    # eps 0.5 -> levels 0..1, eps 0.25 -> levels 0..2
    assert len(sched) == 1 + 2 + 3
    assert (out / "summary.txt").read_text().strip()
    screen = capsys.readouterr().out
    assert "wrote" in screen and "mse=" in screen


def test_failure_at_last_eps_keeps_finished_rows(tmp_path, monkeypatch):
    full = tmp_path / "full"
    assert main(["run", "--config", str(tiny_config(tmp_path)), "--out", str(full)]) == 0
    estimate = mlenkf.experiment.estimate_mse

    def fail_last(cfg, schedule, data, pool):
        if schedule.epsilon == 0.25:
            raise RuntimeError("injected failure at the last eps")
        return estimate(cfg, schedule, data, pool)

    monkeypatch.setattr(mlenkf.experiment, "estimate_mse", fail_last)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="injected"):
        main(["run", "--config", str(tiny_config(tmp_path)), "--out", str(out)])
    # the eps 0.5 rows were on disk before eps 0.25 started, no temp file is left
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "schedule.csv"]
    wall = RESULT_COLUMNS.index("wall_seconds")
    rows = [[c for i, c in enumerate(r) if i != wall] for r in read_rows(out / "results.csv")]
    want = [[c for i, c in enumerate(r) if i != wall] for r in read_rows(full / "results.csv")]
    assert rows == want[:2]
    assert read_rows(out / "schedule.csv") == read_rows(full / "schedule.csv")[:3]


def test_run_numeric_fields_use_period_decimals(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_config(tmp_path)), "--out", str(out)]) == 0
    raw = (out / "results.csv").read_text()
    assert raw.endswith("\n")
    for row in read_rows(out / "results.csv")[1:]:
        assert len(row) == len(RESULT_COLUMNS)
        for cell in (row[3], row[5], row[7]):
            float(cell)
            assert "." in cell and "," not in cell


def test_run_is_deterministic_up_to_wall_time(tmp_path):
    cfg = tiny_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    rows_a, rows_b = (read_rows(o / "results.csv") for o in outs)
    wall = RESULT_COLUMNS.index("wall_seconds")
    for ra, rb in zip(rows_a, rows_b):
        del ra[wall], rb[wall]
        assert ra == rb
    assert (outs[0] / "schedule.csv").read_text() == (outs[1] / "schedule.csv").read_text()


def test_cli_flags_override_config(tmp_path):
    cfg = tiny_config(tmp_path, method="enkf")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--method", "mlenkf", "--eps", "0.5"]) == 0
    rows = read_rows(out / "results.csv")
    assert len(rows) == 2 and rows[1][0] == "mlenkf"


def test_load_config_parses_and_rejects(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("example = 2  # comment\n\nmethod=enkf\n")
    assert load_config(path) == {"example": 2, "method": "enkf"}
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("examples = 2\n")
    assert main(["run", "--config", str(bad_key), "--out", str(tmp_path / "o1")]) == 2
    bad_line = tmp_path / "bad2.cfg"
    bad_line.write_text("example 2\n")
    assert main(["run", "--config", str(bad_line), "--out", str(tmp_path / "o2")]) == 2
    bad_value = tmp_path / "bad3.cfg"
    bad_value.write_text("realizations = many\n")
    assert main(["run", "--config", str(bad_value), "--out", str(tmp_path / "o3")]) == 2


def test_run_rejects_bad_settings(tmp_path):
    cfg = tiny_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--eps", "0.5,-1"]) == 2
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--n-ref", "100"]) == 2
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2


def rejected_before_compute(tmp_path, monkeypatch, capsys, *flags, **settings):
    """Exit status and stderr of a run that must stop before any compute;
    ``settings`` override lines of the tiny config file."""
    def no_compute(*args, **kwargs):
        raise AssertionError("run_experiment reached")

    monkeypatch.setattr(mlenkf.experiment, "run_experiment", no_compute)
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, **settings)
    code = main(["run", "--config", str(cfg), "--out", str(out), *flags])
    assert not out.exists()
    return code, capsys.readouterr().err


def test_run_rejects_single_realization(tmp_path, monkeypatch, capsys):
    code, err = rejected_before_compute(tmp_path, monkeypatch, capsys, "--realizations", "1")
    assert code == 2 and "realizations" in err


def test_run_rejects_negative_seed(tmp_path, monkeypatch, capsys):
    code, err = rejected_before_compute(tmp_path, monkeypatch, capsys, "--seed", "-1")
    assert code == 2 and "seed" in err


def test_run_rejects_eps_that_is_not_a_list_of_numbers(tmp_path, monkeypatch, capsys):
    # the same text as a flag and as a config line
    for flags, settings in ((("--eps", "abc"), {}), ((), {"eps": "abc"})):
        code, err = rejected_before_compute(tmp_path, monkeypatch, capsys, *flags, **settings)
        assert code == 2 and "eps" in err and len(err.strip().splitlines()) == 1
    # the file's error names it and the eps line, after the comment and
    # three keys, as every other bad config value does
    assert "study.cfg:5: bad value for eps" in err


def test_run_rejects_a_repeated_config_key(tmp_path, monkeypatch, capsys):
    # the seed value spills a second seed line, line 10, after the first
    code, err = rejected_before_compute(tmp_path, monkeypatch, capsys, seed="1\nseed = 2")
    assert code == 2 and len(err.strip().splitlines()) == 1
    assert "study.cfg:10: duplicate key 'seed'" in err


def test_verify_rejects_negative_seed(capsys):
    # refused before the battery, so no check reports a failure
    assert main(["verify", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "seed" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_rejects_nonpositive_jobs(tmp_path, monkeypatch, capsys, jobs):
    code, err = rejected_before_compute(tmp_path, monkeypatch, capsys, "--jobs", jobs)
    assert code == 2 and "jobs" in err


def test_run_rejects_eps_without_modes_above_m(tmp_path, monkeypatch, capsys):
    # example 1, eps = 2: L = 0 and N_0 = 1 is not above m = 1
    code, err = rejected_before_compute(tmp_path, monkeypatch, capsys, "--eps", "0.5,2")
    assert code == 2 and "N_L=1" in err


def test_run_rejects_finest_level_wider_than_n_ref(tmp_path, monkeypatch, capsys):
    # example 1, eps = 0.01: L = 7 and N_7 = 128 modes, above n_ref = 32
    code, err = rejected_before_compute(
        tmp_path, monkeypatch, capsys, "--n-ref", "32", "--eps", "0.01"
    )
    assert code == 2 and "n_ref=32" in err and len(err.strip().splitlines()) == 1


def test_run_derives_n_ref_from_the_grid_unless_it_is_set(tmp_path, monkeypatch):
    # without --n-ref or a config value, n_ref is the smallest power of two
    # that is at least 1024 and at least 32 N_L of the grid's finest target;
    # example 1 has N_L = 64 at 2^-6, 256 at 2^-8 and 1024 at 2^-10
    seen = []
    monkeypatch.setattr(mlenkf.experiment, "run_experiment",
                        lambda cfg, on_record: seen.append(cfg.n_ref) or ([], []))
    out = str(tmp_path / "out")
    for eps in ("0.5,0.25", "0.25,0.015625", "0.00390625", "0.0009765625,0.5"):
        assert main(["run", "--eps", eps, "--out", out]) == 0
    assert seen == [1024, 2048, 8192, 2 ** 15]
    # an explicit value wins, from the file or from the flag
    cfg = tiny_config(tmp_path, eps="0.0009765625", n_ref=2048)
    assert main(["run", "--config", str(cfg), "--out", out]) == 0
    assert main(["run", "--config", str(cfg), "--n-ref", "1024", "--out", out]) == 0
    assert seen[4:] == [2048, 1024]


def test_run_reports_an_example_it_cannot_build_at_its_n_ref(tmp_path, monkeypatch, capsys):
    # eps 1e-8 derives n_ref = 2^32 for example 1's N_L = 2^27, whose
    # arrays (32 GiB each) do not fit: a stand-in build fails as numpy's
    # allocation would, so nothing is allocated here, and the run stops with
    # one line naming n_ref and N_L; so does an explicit n_ref
    build = mlenkf.experiment.build_example

    def out_of_memory(example, solver, n_ref, n0=1):
        if n_ref > 2 ** 16:
            raise MemoryError(f"Unable to allocate {n_ref * 8 / 2 ** 30} GiB for an array")
        return build(example, solver, n_ref, n0)

    monkeypatch.setattr(mlenkf.experiment, "build_example", out_of_memory)
    out = tmp_path / "out"
    for flags, n_ref, n_top in ((["--eps", "1e-8"], 2 ** 32, 2 ** 27),
                                (["--eps", "0.5,0.25", "--n-ref", str(2 ** 40)], 2 ** 40, 4)):
        assert main(["run", "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot build n_ref={n_ref} for N_L={n_top}: Unable to")
        assert len(err.strip().splitlines()) == 1 and not out.exists()
    # eps 1e-300 derives an n_ref beyond numpy's largest array, which no
    # build is asked to allocate
    monkeypatch.setattr(mlenkf.experiment, "build_example",
                        lambda *args: build(*args) if args[2] == 2 else pytest.fail("built"))
    assert main(["run", "--out", str(out), "--eps", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert "n_ref=" in err and "N_L=" in err and "no array holds that many modes" in err
    assert len(err.strip().splitlines()) == 1 and not out.exists()


@pytest.mark.skipif(os.name != "posix", reason="the address-space limit is POSIX only")
def test_run_reports_a_target_it_cannot_allocate(tmp_path):
    # n_ref = 2^17 builds, and eps 0.25 runs, in 2 GiB of address space;
    # eps 1e-5 asks for draw arrays of terabytes, which fail to allocate
    # in the draw helper (a pool worker at --jobs 2), after eps 0.25's row
    # is written
    script = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31)); "
              "from mlenkf.cli import main; sys.exit(main(sys.argv[1:]))")
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", "--out", str(out), "--eps", "0.25,1e-5",
             "--n-ref", str(2 ** 17), "--realizations", "2", "--jobs", jobs],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: out of memory after 1 of 2 targets finished: ")
        assert len(proc.stderr.strip().splitlines()) == 1 and "Traceback" not in proc.stderr
        rows = read_rows(out / "results.csv")
        assert len(rows) == 2 and rows[1][3] == "0.25"


def test_summary_states_the_reference_dimension(tmp_path):
    # example 1 has N_L = 4 at 2^-2 and 16 at 2^-4; the derived n_ref of
    # 2^-2 is 1024, 256 times N_L, while 256 at 2^-4 is only 16 times it
    for flags, line in (
        (["--eps", "0.5,0.25"],
         "reference dimension: n_ref=1024, finest target N_L=4, n_ref/N_L=256\n"),
        (["--eps", "0.125,0.0625", "--n-ref", "256"],
         "reference dimension: n_ref=256, finest target N_L=16, n_ref/N_L=16; below 32 "
         "the MSE may read low by about N_L/n_ref = 6%\n"),
    ):
        out = tmp_path / flags[1]
        assert main(["run", *flags, "--realizations", "2", "--out", str(out)]) == 0
        assert (out / "summary.txt").read_text().endswith(line)


@pytest.mark.parametrize("value", ["nan", "-3"])
def test_run_rejects_bad_base_constant(tmp_path, monkeypatch, capsys, value):
    code, err = rejected_before_compute(tmp_path, monkeypatch, capsys, base_constant=value)
    assert code == 2 and "base_constant" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key,value", [("method", "foo"), ("example", "3"), ("solver", "rk4")])
def test_run_rejects_unknown_choice_in_config(tmp_path, monkeypatch, capsys, key, value):
    code, err = rejected_before_compute(tmp_path, monkeypatch, capsys, **{key: value})
    assert code == 2 and key in err and len(err.strip().splitlines()) == 1


def test_summary_reports_balanced_branch_only_when_rates_balance(tmp_path):
    # example 1: beta = 2 equals 1 + gamma_t for expeuler only
    for solver, balanced in (("exact", False), ("expeuler", True)):
        out = tmp_path / solver
        run = ["run", "--config", str(tiny_config(tmp_path, solver=solver)), "--out", str(out)]
        if balanced:
            # at eps 0.5 the expeuler schedule sizes its top level 1, clamped to 2
            with pytest.warns(UserWarning, match=r"ensemble sizes clamped to 2 at eps=0\.5$"):
                assert main(run) == 0
        else:
            assert main(run) == 0
        summary = (out / "summary.txt").read_text()
        assert ("balanced-rate branch" in summary) == balanced


def test_run_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["run", "--config", str(tiny_config(tmp_path)),
                 "--out", str(blocker / "sub")])
    assert code == 1
    assert "not writable" in capsys.readouterr().err


def test_verify_passes(capsys):
    assert main(["verify", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("[ok]") >= 10


def test_verify_catches_injected_fault(monkeypatch, capsys):
    monkeypatch.setattr(mlenkf.filters, "positive_part",
                        lambda a: np.zeros_like(np.atleast_2d(np.asarray(a, dtype=float))))
    assert main(["verify", "--seed", "3"]) == 1
    assert "[FAIL]" in capsys.readouterr().out
    # a check that raises counts as failed, and the checks after it still run
    def broken(seed):
        raise RuntimeError("no result")

    monkeypatch.setattr(mlenkf.verify, "CHECKS", (("crashes", broken),
                                                  ("passes", lambda seed: (True, "fine"))))
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] crashes: raised RuntimeError: no result" in out
    assert "[ok] passes: fine" in out


def test_slope_fits_groups_and_skips_small_ones(tmp_path, capsys):
    path = tmp_path / "results.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_COLUMNS)
        for k in range(4):
            w.writerow(["mlenkf", 1, "exact", 0.5 ** k, k, 10.0 ** (k + 1),
                        0.0, 5.0 * 10.0 ** -(k + 1), 2])
        for k in range(2):
            w.writerow(["enkf", 1, "exact", 0.5 ** k, k, 10.0 ** (k + 1), 0.0, 1.0, 2])
    assert main(["slope", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "-1.0000" in out
    assert "needs >= 3 distinct points" in out


def test_slope_error_paths(tmp_path, capsys):
    assert main(["slope", "--in", str(tmp_path / "missing.csv")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("method,mse\nenkf,1.0\n")
    assert main(["slope", "--in", str(bad)]) == 1
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(",".join(RESULT_COLUMNS) + "\n")
    capsys.readouterr()
    assert main(["slope", "--in", str(header_only)]) == 1
    assert "no data rows" in capsys.readouterr().err
    text = tmp_path / "text.csv"
    with open(text, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_COLUMNS)
        w.writerow(["enkf", 1, "exact", "eps", 0, "x", 0.0, "y", 2])
    assert main(["slope", "--in", str(text)]) == 1
    short = tmp_path / "short.csv"
    with open(short, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_COLUMNS)
        w.writerow(["enkf", 1, "exact", 0.5, 0, 10.0, 0.0, 1.0, 2])
    assert main(["slope", "--in", str(short)]) == 1
    # a zero or NaN mse or a negative cost is refused in its row, not fitted
    for name, bad_row in (("zero", (0, 1.0, 0.0)), ("nan", (0, 1.0, float("nan"))),
                          ("negative", (1, -400.0, 0.5))):
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(RESULT_COLUMNS)
            for k in range(3):
                w.writerow(["enkf", 1, "exact", 0.5 ** k, k, 10.0 ** (k + 1),
                            0.0, 10.0 ** -k, 2])
            k, cost, mse = bad_row
            w.writerow(["enkf", 1, "exact", 0.5 ** k, k, cost, 0.0, mse, 2])
        capsys.readouterr()
        assert main(["slope", "--in", str(path)]) == 1
        out = capsys.readouterr().out
        assert "must be finite and > 0" in out and "nan" not in out.split("\n", 1)[1]
    capsys.readouterr()


def test_cli_import_leaves_the_pool_modules_out():
    # a serial run never opens a pool, so its start-up skips them, and
    # numpy.random (stream opening) loads on first use, and no mlenkf code
    # loads ctypes at all; numpy may load either itself (numpy 1.x imports
    # numpy.random, and every release imports ctypes), so only what mlenkf
    # adds to numpy's own imports counts
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; before = set(sys.modules); import mlenkf.cli; "
         "print(sorted(m for m in set(sys.modules) - before if m.startswith("
         "('concurrent.futures', 'mlenkf.verify', 'numpy.random', 'ctypes'))))"],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mlenkf", "verify", "--seed", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_closed_stdout_exits_1_without_traceback():
    # `mlenkf verify | head -1` with the reader already gone: the first
    # write meets a closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mlenkf", "verify"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


REPO_ROOT = Path(__file__).resolve().parents[1]


def _stray_metadata():
    found = []
    for pattern in ("*.egg-info", "*.dist-info"):
        found += REPO_ROOT.glob(pattern)
        found += (REPO_ROOT / "src").rglob(pattern)
    return sorted(found)


def test_console_script_is_registered(tmp_path):
    # Build the metadata an install would write from this checkout's
    # pyproject.toml, rather than reading whatever is installed in the
    # interpreter.  --egg-base keeps it out of src/: importlib.metadata
    # would find a stray src/mlenkf.egg-info under PYTHONPATH=src.
    pytest.importorskip("setuptools")
    before = _stray_metadata()
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "-q", "egg_info", "--egg-base", str(tmp_path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _stray_metadata() == before, proc.stdout + proc.stderr

    egg_infos = list(tmp_path.glob("*.egg-info"))
    assert len(egg_infos) == 1, proc.stdout + proc.stderr
    scripts = PathDistribution(egg_infos[0]).entry_points.select(
        group="console_scripts")
    assert "mlenkf" in scripts.names
    ep = scripts["mlenkf"]
    assert ep.value == "mlenkf.cli:main"
    assert ep.load() is main


# scipy is not a dependency: with every scipy import made to fail, the
# library still imports, verifies and runs a study
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from mlenkf.cli import main
codes = (main(["verify"]),
         main(["run", "--out", sys.argv[1], "--eps", "0.5,0.25",
               "--realizations", "2", "--n-ref", "32"]))
print("exit codes", *codes)
sys.exit(max(codes))
"""


def test_library_runs_without_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "exit codes 0 0" in proc.stdout, proc.stdout + proc.stderr
    assert (tmp_path / "out" / "results.csv").is_file()


# With the default BLAS threads, an expeuler MLEnKF study once wrote an mse
# that differed in the last digit from a single-threaded run: BLAS summed
# the observed projections in an order that follows its thread count.
BLAS_THREAD_STUDY = ["run", "--method", "mlenkf", "--solver", "expeuler",
                     "--eps", "0.03125", "--realizations", "2", "--n-ref", "1024"]


def assert_outputs_do_not_depend_on_blas_threads(tmp_path, argv, rows):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "mlenkf", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    wall = RESULT_COLUMNS.index("wall_seconds")
    rows_1, rows_2 = (read_rows(o / "results.csv") for o in outs)
    assert len(rows_1) == len(rows_2) == rows
    for r1, r2 in zip(rows_1, rows_2):
        del r1[wall], r2[wall]
        assert r1 == r2
    for name in ("schedule.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_seeded_results_do_not_depend_on_blas_threads(tmp_path):
    assert_outputs_do_not_depend_on_blas_threads(tmp_path, BLAS_THREAD_STUDY, rows=2)


# At n_ref >= 16384 the data record once moved with the BLAS thread count:
# H u of the truth and the reference QoI were BLAS dot products.
@pytest.mark.parametrize("example", ["1", "2"])
def test_data_record_does_not_depend_on_blas_threads(tmp_path, example):
    assert_outputs_do_not_depend_on_blas_threads(
        tmp_path, ["run", "--example", example, "--n-ref", "16384",
                   "--eps", "0.25,0.125,0.0625", "--realizations", "3"], rows=4)


POOL_STUDY = ["run", "--method", "mlenkf", "--solver", "expeuler",
              "--eps", "0.25,0.125,0.0625", "--realizations", "5", "--n-ref", "256"]


def test_real_pool_writes_the_serial_outputs(tmp_path):
    # jobs 2 maps batches of up to 3 realizations over two worker
    # processes; jobs 1 runs them in this process
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main([*POOL_STUDY, "--jobs", jobs, "--out", str(out)]) == 0
        outs.append(out)
    wall = RESULT_COLUMNS.index("wall_seconds")
    rows_1, rows_2 = (read_rows(o / "results.csv") for o in outs)
    assert len(rows_1) == len(rows_2) == 4
    for r1, r2 in zip(rows_1, rows_2):
        del r1[wall], r2[wall]
        assert r1 == r2
    for name in ("schedule.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("method,solver", [("mlenkf", "exact"), ("enkf", "expeuler")])
def test_prefetched_draws_write_the_same_study(tmp_path, monkeypatch, method, solver):
    # at jobs 1, one usable CPU draws in line and four fill the draws
    # ahead on a helper thread, its floor lifted for these small targets:
    # the written study is the same, byte for byte
    outs = []
    monkeypatch.setattr(mlenkf.experiment, "UNIT_NORMALS", 0)
    for cpus in (1, 4):
        monkeypatch.setattr(mlenkf.experiment, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["run", "--method", method, "--solver", solver, "--eps", "0.25,0.125",
                     "--realizations", "3", "--n-ref", "128", "--jobs", "1",
                     "--out", str(out)]) == 0
        outs.append(out)
    wall = RESULT_COLUMNS.index("wall_seconds")
    rows_1, rows_4 = (read_rows(o / "results.csv") for o in outs)
    assert len(rows_1) == len(rows_4) == 3
    for r1, r4 in zip(rows_1, rows_4):
        del r1[wall], r4[wall]
        assert r1 == r4
    for name in ("schedule.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
