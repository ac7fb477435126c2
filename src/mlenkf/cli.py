"""Batch front-end: convergence runs, self-verification, slope fits.

No plots and no interactivity; ``run`` writes plot-ready CSV plus a
text summary, ``verify`` executes the property battery, ``slope``
refits MSE-versus-cost rates from an existing results file.  CSV output
uses the period as decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from . import experiment

__all__ = ["main", "load_config", "RESULT_COLUMNS", "SCHEDULE_COLUMNS"]

RESULT_COLUMNS = (
    "method", "example", "solver", "epsilon", "L",
    "cost_units", "wall_seconds", "mse", "realizations",
)
SCHEDULE_COLUMNS = (
    "method", "example", "solver", "epsilon", "level", "M", "N_modes", "J_substeps",
)

# config key -> ExperimentConfig field, whose default is the study's default
# and whose type is the type a config value is read as
_FIELDS = {
    "example": "example", "method": "method", "solver": "solver", "eps": "eps_grid",
    "realizations": "realizations", "seed": "master_seed", "n_ref": "n_ref",
    "n_steps": "n_steps", "base_constant": "base_constant", "jobs": "jobs",
}


class ConfigError(Exception):
    pass


def _eps_list(text):
    """Accuracy targets from comma-separated text, as in ``--eps`` and a file."""
    return tuple(float(t) for t in text.split(",") if t.strip())


def load_config(path):
    """Flat ``key = value`` file; '#' starts a comment, blank lines ok."""
    settings = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in settings:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        cast = _eps_list if key == "eps" else type(getattr(experiment.ExperimentConfig, _FIELDS[key]))
        try:
            settings[key] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return settings


def _fmt(value):
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(path, columns, rows):
    # write a sibling temp file, then rename it over the target, so a
    # reader never sees a half-written table
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    os.replace(tmp, path)


def _summary_text(records, cfg):
    lines = []
    try:
        slope, intercept, stderr = experiment.fit_loglog_slope(records)
        lines.append(
            f"log-log MSE vs cost: slope {slope:+.4f} +/- {stderr:.4f} "
            f"(intercept {intercept:+.4f}, {len(records)} points)"
        )
    except ValueError as exc:
        lines.append(f"slope fit skipped: {exc}")
    if records and records[0].method == "mlenkf" and experiment.balanced_rates(cfg.hierarchy):
        lines.append("balanced-rate branch: bounded mse*cost/L^3 expected")
        series = experiment.normalized_series(records)
        for eps, lvl, val in series:
            lines.append(f"  eps={_fmt(eps)} L={lvl} mse*cost/L^3={val:.6e}")
        vals = [v for _, _, v in series]
        if vals:
            lines.append(f"  spread max/min = {max(vals) / min(vals):.3f}")
    n_top = _finest_modes(cfg.hierarchy, cfg.eps_grid)
    ref = (f"reference dimension: n_ref={cfg.n_ref}, finest target N_L={n_top}, "
           f"n_ref/N_L={cfg.n_ref // n_top}")
    if cfg.n_ref < 32 * n_top:
        # a truth cut at n_ref drops the tail beyond it, about N_L/n_ref of the MSE
        ref += f"; below 32 the MSE may read low by about N_L/n_ref = {n_top / cfg.n_ref:.0%}"
    lines.append(ref)
    return "\n".join(lines) + "\n"


def _set_n_ref(fields):
    """N_L of the grid's finest target under ``fields``, setting the CLI's one
    default of its own if n_ref is unset (the library's is 2^13): the least
    power of two that is at least 1024 and at least 32 N_L.  A truth cut at
    n_ref misses the modes beyond it, so the MSE reads low by about N_L/n_ref:
    2-5% at this rule, 9% at eps 2^-6 and a third at 2^-8 with n_ref 1024."""
    example, solver, eps_grid = (fields.get(k, getattr(experiment.ExperimentConfig, k))
                                 for k in ("example", "solver", "eps_grid"))
    n_top = _finest_modes(experiment.build_example(example, solver, 2)[1], eps_grid)
    fields.setdefault("n_ref", 1 << (max(1024, 32 * n_top) - 1).bit_length())
    return n_top


def _finest_modes(hierarchy, eps_grid):
    """N_L of the grid's finest target, 1 for an empty grid."""
    return max((hierarchy.n_modes(experiment._level_count(eps, hierarchy))
                for eps in eps_grid), default=1)


def _cmd_run(args):
    settings = {} if args.config is None else load_config(args.config)
    for key in _FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if args.eps is not None:
        try:
            settings["eps"] = _eps_list(args.eps)
        except ValueError as exc:
            raise ConfigError(f"bad eps list: {exc}") from exc
    try:
        fields = {_FIELDS[k]: v for k, v in settings.items()}
        n_top = _set_n_ref(fields)
        if 8 * fields["n_ref"] > sys.maxsize:  # the bytes of numpy's largest array
            raise MemoryError("no array holds that many modes")
        # ExperimentConfig checks every setting and grid point before any compute
        cfg = experiment.ExperimentConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:
        raise ConfigError(f"cannot build n_ref={fields['n_ref']} for N_L={n_top}: {exc}") from exc
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 1
    result_rows, sched_rows = [], []

    def save(r, sched):
        # rewrite both tables after every target, so a failure later in
        # the grid keeps the rows already computed
        result_rows.append((r.method, r.example, r.solver, r.epsilon, r.L,
                            r.cost_units, round(r.wall_seconds, 6), r.mse, r.realizations))
        for level, m_l in sched.level_sizes():
            n_l, j_l, _, _ = cfg.hierarchy.level_params(level)
            sched_rows.append(
                (cfg.method, cfg.example, cfg.solver, sched.epsilon, level, m_l, n_l, j_l)
            )
        _write_csv(out_dir / "results.csv", RESULT_COLUMNS, result_rows)
        _write_csv(out_dir / "schedule.csv", SCHEDULE_COLUMNS, sched_rows)

    # the callback goes in positionally: perfbench/setup_probe.py stops
    # the run here with a stand-in taking (cfg, data=None)
    try:
        records, _ = experiment.run_experiment(cfg, save)
    except MemoryError as exc:
        # the finished targets' rows are on disk already
        print(f"error: out of memory after {len(result_rows)} of {len(cfg.eps_grid)} "
              f"targets finished: {exc}", file=sys.stderr)
        return 1
    (out_dir / "summary.txt").write_text(_summary_text(records, cfg))
    for r in records:
        print(
            f"{r.method} example={r.example} solver={r.solver} eps={_fmt(r.epsilon)} "
            f"L={r.L} cost={_fmt(r.cost_units)} mse={r.mse:.6e}"
        )
    print(f"wrote {out_dir / 'results.csv'}")
    return 0


def _cmd_verify(args):
    from . import verify  # imported here: only this command runs the battery

    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    ok = verify.run_all(seed=args.seed)
    print("verify:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


def _cmd_slope(args):
    try:
        with open(args.infile, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(RESULT_COLUMNS) <= set(reader.fieldnames):
                print("error: missing results columns", file=sys.stderr)
                return 1
            rows = list(reader)
    except OSError as exc:
        print(f"error: cannot read {args.infile}: {exc}", file=sys.stderr)
        return 1
    groups = {}
    try:
        for row in rows:
            key = (row["method"], row["example"], row["solver"])
            groups.setdefault(key, []).append(
                (float(row["cost_units"]), float(row["mse"]))
            )
    except (KeyError, ValueError) as exc:
        print(f"error: malformed results row: {exc}", file=sys.stderr)
        return 1
    if not groups:
        print("error: no data rows", file=sys.stderr)
        return 1
    fitted = 0
    print(f"{'method':>8} {'example':>7} {'solver':>8} {'points':>6} {'slope':>9} {'stderr':>8}")
    for key in sorted(groups):
        pts = groups[key]
        head = f"{key[0]:>8} {key[1]:>7} {key[2]:>8} {len(pts):>6}"
        try:
            slope, _, stderr = experiment.fit_loglog_slope(pts)
        except ValueError as exc:
            print(f"{head} ({exc})")
            continue
        print(f"{head} {slope:>+9.4f} {stderr:>8.4f}")
        fitted += 1
    return 0 if fitted else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mlenkf",
        description="Multilevel ensemble Kalman filter convergence studies.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run a convergence study, write CSV + summary")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--example", type=int, choices=(1, 2))
    p_run.add_argument("--method", choices=("enkf", "mlenkf"))
    p_run.add_argument("--solver", choices=("exact", "expeuler"))
    p_run.add_argument("--eps", help="comma-separated accuracy targets")
    p_run.add_argument("--realizations", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--n-ref", dest="n_ref", type=int,
                       help="reference dimension (power of two); default: the smallest power "
                            "of two that is at least 1024 and at least 32 N_L of the grid's "
                            "finest target")
    p_run.add_argument("--jobs", type=int, help="worker processes for the realization batches")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the property battery")
    p_verify.add_argument("--seed", type=int, default=experiment.ExperimentConfig.master_seed)
    p_verify.set_defaults(func=_cmd_verify)

    p_slope = sub.add_parser("slope", help="fit slopes from a results.csv")
    p_slope.add_argument("--in", dest="infile", required=True)
    p_slope.set_defaults(func=_cmd_slope)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return status
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): point stdout at devnull so
        # the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
