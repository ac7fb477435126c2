"""Convergence-study benchmark for mlenkf.

Each workload is one whole convergence study (example 1, n_ref 1024,
10 observation steps) run through the public entry point
``mlenkf.cli.main(["run", ...])``.  Studies repeat until ``--seconds``
is used up; every study's ``results.csv`` and ``schedule.csv`` are
checked against ``make_schedule``/``theoretical_cost`` and against the
first study of the invocation, bit for bit apart from ``wall_seconds``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced study at ``jobs = 1`` (see ``tracer.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one
realization; it fails if it was excluded as diverged, if its study
raised, or if its cell failed an output or determinism check.

Run from the repository root:

    python3 perfbench/run.py --workload enkf-expeuler --seed 1 --seconds 30 --trace 0

Spans, provenance and samples are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

DEFAULT_SEED = 20260823
# --second-seed moves the master seed into a range the default mode never uses
SECOND_SEED_OFFSET = 2 ** 63
EXAMPLE, N_REF = 1, 1024
N_STEPS = 10  # mlenkf run has no flag for it; this is its default
MIN_STUDIES = 2  # the determinism check needs a repeat
SETUP_PROBES = 7
MAX_LEVEL = 7  # deepest ladder of any workload (mlenkf-exact-deep)


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    solver: str
    eps_exps: tuple  # accuracy targets 2**-k
    realizations: int
    jobs: int

    @property
    def eps(self):
        return tuple(2.0 ** -k for k in self.eps_exps)


# Realization counts set the study length: enkf-expeuler runs the minimum
# of 2 (about 11 s a study on 2 vCPUs), the others enough for several
# studies of a few seconds in one run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("enkf-expeuler", "enkf", "expeuler", (2, 3, 4, 5, 6), 2, 1),
        Workload("mlenkf-exact-deep", "mlenkf", "exact", (2, 3, 4, 5, 6, 7), 20, 1),
        Workload("mlenkf-expeuler-jobs2", "mlenkf", "expeuler", (2, 3, 4, 5, 6), 10, 2),
    )
}


@dataclass
class Study:
    jobs: int
    wall: float = math.nan
    rows: list = field(default_factory=list)
    sched: list = field(default_factory=list)
    error: str = ""
    children_cpu: float = 0.0


def load_mlenkf():
    """Import mlenkf from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import mlenkf
        import mlenkf.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mlenkf from {SRC}: {exc}")
    if Path(mlenkf.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: mlenkf imported from {mlenkf.__file__}, not {SRC}")
    return mlenkf


def study_argv(wl, seed, jobs, out_dir):
    return [
        "--out", str(out_dir), "--example", str(EXAMPLE), "--method", wl.method,
        "--solver", wl.solver, "--eps", ",".join(repr(e) for e in wl.eps),
        "--realizations", str(wl.realizations), "--seed", str(seed),
        "--n-ref", str(N_REF), "--jobs", str(jobs),
    ]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_study(mlenkf, wl, seed, jobs, out_dir, tracer=None):
    """One whole study through ``mlenkf.cli.main``; outputs read back."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["run", *study_argv(wl, seed, jobs, out_dir)]
    study = Study(jobs)
    cpu0 = _children_cpu()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            if tracer is None:
                code = mlenkf.cli.main(argv)
            else:
                code = tracer.call("cli.main", mlenkf.cli.main, (argv,), {})
            study.wall = time.perf_counter() - t0
        study.children_cpu = _children_cpu() - cpu0
        if code != 0:
            study.error = f"mlenkf run exited with {code}"
            return study
        study.rows = _read_csv(out_dir / "results.csv")
        study.sched = _read_csv(out_dir / "schedule.csv")
    except Exception:  # a study that raises is a set of failed operations
        study.error = traceback.format_exc()
        print(study.error, file=sys.stderr)
    return study


def expected_cells(mlenkf, wl):
    """Per eps target: (L, cost_units, schedule rows) recomputed here."""
    experiment = mlenkf.experiment
    _, hierarchy, obs, _ = experiment.build_example(EXAMPLE, wl.solver, n_ref=N_REF)
    cells = []
    for eps in wl.eps:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = experiment.make_schedule(eps, hierarchy, wl.method)
        cost = experiment.theoretical_cost(sched, hierarchy, wl.method, N_STEPS, obs.m)
        sizes = sched.M if wl.method == "mlenkf" else (sched.M,)
        rows = []
        for l, m_l in enumerate(sizes):
            level = l if wl.method == "mlenkf" else sched.L
            n_l, j_l, _, _ = hierarchy.level_params(level)
            rows.append((wl.method, EXAMPLE, wl.solver, eps, level, m_l, n_l, j_l))
        cells.append((sched.L, cost, rows))
    return cells


def _parse_sched(row):
    return (row[0], int(row[1]), row[2], float(row[3]), int(row[4]),
            int(row[5]), int(row[6]), int(row[7]))


def cell_problems(study, wl, expected, reference):
    """(cell index, reason) for every cell that fails a check."""
    if study.error:
        return [(i, "study failed") for i in range(len(wl.eps))]
    problems = []
    for i, (eps, (L, cost, sched_rows)) in enumerate(zip(wl.eps, expected)):
        if i >= len(study.rows):
            problems.append((i, "missing results row"))
            continue
        row = study.rows[i]
        mse = float(row[7])
        got_sched = [_parse_sched(r) for r in study.sched if float(r[3]) == eps]
        checks = (
            (tuple(row[:3]) == (wl.method, str(EXAMPLE), wl.solver), "identity columns"),
            (float(row[3]) == eps and int(row[4]) == L, "epsilon or L"),
            (int(row[8]) == wl.realizations, "realizations (diverged runs excluded)"),
            (float(row[5]) == cost, "cost_units != theoretical_cost"),
            (math.isfinite(mse) and mse > 0.0, "mse not finite and positive"),
            (got_sched == sched_rows, "schedule.csv != make_schedule"),
        )
        problems.extend((i, reason) for ok, reason in checks if not ok)
        if reference is not None and not reference.error:
            same = (
                i < len(reference.rows)
                and row[:6] + row[7:] == reference.rows[i][:6] + reference.rows[i][7:]
                and got_sched == [_parse_sched(r) for r in reference.sched if float(r[3]) == eps]
            )
            if not same:
                problems.append((i, f"differs from the reference run (jobs {reference.jobs})"))
    if len(study.rows) != len(wl.eps):
        problems.append((len(wl.eps) - 1, "wrong number of results rows"))
    return problems


def setup_times(wl, seed, out_dir, count):
    """Seconds from ``import mlenkf`` to ``run_experiment``, fresh processes.

    One unrecorded probe first lets the bytecode cache fill.
    """
    times = []
    argv = [sys.executable, str(PROBE), *study_argv(wl, seed, wl.jobs, out_dir)]
    for i in range(count + 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.split()[-1]))
    return times


def summarize(samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    text = f"median of {n}"
    if n >= 11:
        text += f"; p{100 * (n - 10) / n:.0f} = {s[n - 11]:.6g}"
    else:
        text += "; no percentile has 10 samples beyond it"
    return statistics.median(s), text


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def blas_info():
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    env = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads, **env}


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def provenance(mlenkf, args, wl, master_seed, studies):
    import numpy as np
    import scipy

    fit = {"slope": None, "stderr": None}
    good = next((s for s in studies if not s.error and len(s.rows) >= 3), None)
    if good is not None:
        pts = [(float(r[5]), float(r[7])) for r in good.rows]
        slope, _, stderr = mlenkf.experiment.fit_loglog_slope(pts)
        fit = {"slope": slope, "stderr": stderr}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "workload": wl.name,
        "seed": args.seed,
        "second_seed": args.second_seed,
        "master_seed": master_seed,
        "realizations": wl.realizations,
        "jobs": wl.jobs,
        "eps": list(wl.eps),
        "loglog_fit": fit,
    }


def end_to_end(studies, setups):
    walls = [s.wall for s in studies if not s.error]
    finest = [float(s.rows[-1][6]) for s in studies if not s.error and s.rows]
    out = {}
    for name, samples in (("study_s", walls), ("finest_cell_s", finest), ("setup_s", setups)):
        value, text = summarize(samples) if samples else (math.nan, "no samples")
        out[name] = (value, "s", f"  ({text})")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", "  (max of own and children's ru_maxrss)")
    return out


def per_layer(tracer, traced, untraced, pooled, units):
    """Per-layer metrics per traced study; self time excludes child spans."""
    n = len(traced)
    self_s, calls = defaultdict(float), defaultdict(int)
    by_level = [0.0] * (MAX_LEVEL + 1)
    for name, level, seconds in tracer.self_times():
        self_s[name] += seconds / n
        calls[name] += 1
        if name == "model.forward":
            by_level[level] += seconds / n
    normals = tracer.normals / n
    fwd_units, moment_units = units["forward"] / n, units["moments"] / n

    def ns_per(seconds, count):
        return 1e9 * seconds / count if count else 0.0

    pool_cpu = sum(s.children_cpu for s in pooled)
    pool_wall = sum(float(r[6]) for s in pooled for r in s.rows)
    jobs = pooled[0].jobs if pooled else 1
    return {
        "model.forward_s": (self_s["model.forward"], "s"),
        **{f"model.forward_s.l{l}": (t, "s") for l, t in enumerate(by_level)},
        "model.forward_calls": (calls["model.forward"] / n, "count"),
        "model.normals": (normals, "count"),
        "model.forward_units": (fwd_units, "count"),
        "model.forward_ns_per_normal": (ns_per(self_s["model.forward"], normals), "ns"),
        "model.forward_ns_per_unit": (ns_per(self_s["model.forward"], fwd_units), "ns"),
        "rng.keys": (calls["rng.key"] / n, "count"),
        "rng.key_s": (self_s["rng.key"], "s"),
        "filters.moments_s": (self_s["filters.moments"], "s"),
        "filters.moment_units": (moment_units, "count"),
        "filters.moments_ns_per_unit": (ns_per(self_s["filters.moments"], moment_units), "ns"),
        "filters.gain_s": (self_s["filters.gain"], "s"),
        "filters.update_s": (self_s["filters.update"], "s"),
        "filters.qoi_s": (self_s["filters.qoi"], "s"),
        "filters.kalman_s": (self_s["filters.kalman"], "s"),
        "filters.steps": (calls["filters.step"] / n, "count"),
        "filters.self_s": (self_s["filters.step"], "s"),
        "experiment.synth_s": (self_s["experiment.synth"], "s"),
        "experiment.self_s": (self_s["experiment.run"], "s"),
        "experiment.pool_cpu_s": (pool_cpu / len(pooled) if pooled else 0.0, "s"),
        "experiment.pool_busy": (pool_cpu / (jobs * pool_wall) if pool_wall else 0.0, "ratio"),
        "cli.self_s": (self_s["cli.main"], "s"),
        "trace_overhead": (
            statistics.fmean(s.wall for s in traced) / statistics.fmean(s.wall for s in untraced),
            "ratio",
        ),
    }


def measure(seconds, round_fn, min_rounds):
    """Call ``round_fn`` at least ``min_rounds`` times, then while one more
    round of the mean length still fits in ``seconds``."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        round_fn()
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed of every study (default {DEFAULT_SEED})")
    p.add_argument("--second-seed", action="store_true",
                   help="use master seed seed + 2**63, disjoint from the default mode")
    p.add_argument("--seconds", type=float, default=30.0, help="measurement time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < SECOND_SEED_OFFSET:
        p.error("--seed must be in [0, 2**63)")
    return args


def main(argv=None, workloads=WORKLOADS):
    args = parse_args(argv, workloads)
    wl = workloads[args.workload]
    mlenkf = load_mlenkf()
    master_seed = args.seed + (SECOND_SEED_OFFSET if args.second_seed else 0)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    tag = f"{wl.name}-seed{args.seed}{'-second' if args.second_seed else ''}-trace{args.trace}"
    expected = expected_cells(mlenkf, wl)

    studies, traced, untraced, pooled = [], [], [], []
    tracer = Tracer() if args.trace else None
    units = {"forward": 0.0, "moments": 0.0}
    try:
        if not args.trace:
            setups = setup_times(wl, master_seed, work / "probe", SETUP_PROBES)

            def one_round():
                studies.append(run_study(mlenkf, wl, master_seed, wl.jobs, work / "study"))

            measure(args.seconds, one_round, MIN_STUDIES)
        else:
            def one_round():
                if wl.jobs > 1:
                    pooled.append(run_study(mlenkf, wl, master_seed, wl.jobs, work / "study"))
                untraced.append(run_study(mlenkf, wl, master_seed, 1, work / "study"))
                counter = mlenkf.model.unit_counter
                before = dict(counter)
                tracer.install(mlenkf)
                try:
                    traced.append(run_study(mlenkf, wl, master_seed, 1, work / "study", tracer))
                finally:
                    tracer.uninstall()
                for k in units:
                    units[k] += counter[k] - before[k]

            measure(args.seconds, one_round, 1)
            studies = traced + untraced + pooled
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # reference for the determinism check: the first (traced, jobs 1) study
    reference = studies[0]
    problems = []
    for k, study in enumerate(studies):
        for cell, reason in cell_problems(study, wl, expected, None if k == 0 else reference):
            problems.append((k, cell, reason))
    failed_cells = {(k, cell) for k, cell, _ in problems}
    attempted = len(studies) * len(wl.eps) * wl.realizations
    failed = len(failed_cells) * wl.realizations
    for k, cell, reason in problems:
        print(f"check failed: study {k} (jobs {studies[k].jobs}) eps={wl.eps[cell]!r}: {reason}")

    prov = provenance(mlenkf, args, wl, master_seed, studies)
    print(f"workload {wl.name}: {len(studies)} studies, master seed {master_seed}, "
          f"{wl.realizations} realizations, jobs {wl.jobs}, trace {args.trace}")
    print("provenance " + json.dumps(prov))
    if args.trace:
        metrics = {k: (v, u, "") for k, (v, u) in
                   per_layer(tracer, traced, untraced, pooled, units).items()}
        layers = tracer.layer_self()
        total = sum(layers.values()) / len(traced)
        base = statistics.fmean(s.wall for s in untraced)
        print("layer self time per traced study: " + ", ".join(
            f"{k} {v / len(traced):.4f} s" for k, v in sorted(layers.items())))
        print(f"layer self sum {total:.4f} s = {total / base:.4f} x untraced study_s "
              f"{base:.4f} s (trace_overhead {metrics['trace_overhead'][0]:.4f})")
        tracer.write(OUT / f"{wl.name}-spans.jsonl")  # latest traced run only
    else:
        metrics = end_to_end(studies, setups)
    frac = failed / attempted if attempted else 1.0
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_frac = {frac:.6g} frac  ({failed} of {attempted} realizations)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = {"provenance": prov, "result": result, "failed_frac": frac,
              "problems": problems, "study_walls": [s.wall for s in studies]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
