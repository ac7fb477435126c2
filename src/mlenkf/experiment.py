"""Convergence-study protocol: schedules, synthetic data, MSE, rates.

A study fixes a model/observation example, synthesizes one truth and
observation record at the reference dimension, computes the exact
Kalman reference of the quantity of interest, and then measures the
squared error of EnKF or MLEnKF runs against that reference over a grid
of accuracy targets.  Costs are deterministic operation counts, so the
MSE-versus-cost slopes are machine independent.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .filters import (
    GaussianState,
    MultilevelEnsemble,
    ObservationModel,
    PairEnsemble,
    empirical_qoi,
    enkf_step,  # unused here; the benchmark tracer patches experiment.enkf_step
    kalman_step,
    mlenkf_step,
)
from .model import SOLVERS, ModelConfig, _exact_coefficients
from .rng import UNIT_NORMALS, Helper, RngKey, StreamReader
from .spectral import LevelHierarchy

__all__ = [
    "Schedule",
    "ExperimentConfig",
    "RunRecord",
    "TruthData",
    "build_example",
    "make_schedule",
    "balanced_rates",
    "psi_cost",
    "theoretical_cost",
    "synthesize_truth_and_obs",
    "initial_multilevel_ensemble",
    "batch_readers",
    "run_filter_realizations",
    "realization_batches",
    "estimate_mse",
    "run_experiment",
    "fit_loglog_slope",
    "normalized_series",
]

UPSILON = 1e-3

# Member entries, sum_l (N_l + N_{l-1}) M_l B, that a batch may fill when
# one realization of the finest target holds fewer.  Batching shares numpy's
# fixed cost per level and step between realizations, which is most of the
# work on the few-particle top levels of a deep ladder; 2^18 float64 entries
# are 2 MiB per copy of the ensemble, and a step advances its one copy in place.
# 2^18 is the smallest power of two that batches the finest target (L = 7,
# 70,639 entries a realization) of example 1's exact ladder at eps 2^-7.
BATCH_ENTRIES = 2 ** 18

# rate-branch comparisons are exact in theory but the example exponents
# carry float rounding, so compare with a slack far below any real gap
_BRANCH_TOL = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Level count and ensemble sizes for one accuracy target.

    ``M`` is a tuple of L + 1 sizes, one per level, for the MLEnKF and a
    single integer for the EnKF.
    """

    epsilon: float
    L: int
    M: object
    method: str

    def __post_init__(self):
        if self.method not in ("enkf", "mlenkf"):
            raise ValueError("method must be 'enkf' or 'mlenkf'")
        if self.method == "enkf" and not isinstance(self.M, (int, np.integer)):
            raise ValueError("the EnKF takes one integer ensemble size")
        if self.method == "mlenkf" and np.shape(self.M) != (self.L + 1,):
            raise ValueError("the MLEnKF takes one ensemble size per level 0..L")
        ms = np.atleast_1d(np.asarray(self.M))
        if np.any(ms < 2):
            raise ValueError("all ensemble sizes must be >= 2")
        if np.any(np.diff(ms) > 0):
            raise ValueError("M_l must be nonincreasing in l")

    def level_sizes(self):
        """``(level, M_l)`` for each ensemble the filter runs: levels 0..L
        for the MLEnKF, the single level L for the EnKF."""
        if self.method == "enkf":
            return ((self.L, self.M),)
        return tuple(enumerate(self.M))


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one convergence study.

    ``model``, ``hierarchy``, ``obs`` and ``u0`` are not settings: they
    follow from ``example``, ``solver``, ``n_ref`` and ``n0`` through
    :func:`build_example`, on construction and again on
    ``dataclasses.replace``.  ``n0`` is the base mode count of the ladder.
    """

    example: int = 1
    method: str = "mlenkf"
    solver: str = "exact"
    eps_grid: tuple = (0.25, 0.125, 0.0625)
    n_steps: int = 10
    realizations: int = 20
    master_seed: int = 20260823
    n_ref: int = 2 ** 13
    base_constant: float = 1.0
    jobs: int = 1
    n0: int = 1
    model: ModelConfig = field(init=False, repr=False, compare=False)
    hierarchy: LevelHierarchy = field(init=False, repr=False, compare=False)
    obs: ObservationModel = field(init=False, repr=False, compare=False)
    u0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        if self.n_ref < 2 or self.n_ref & (self.n_ref - 1):
            raise ValueError("n_ref must be a power of two >= 2")
        parts = build_example(self.example, self.solver, self.n_ref, self.n0)
        for name, part in zip(("model", "hierarchy", "obs", "u0"), parts):
            object.__setattr__(self, name, part)
        if self.n_steps < 1:
            raise ValueError("need at least one observation time")
        if self.method not in ("enkf", "mlenkf"):
            raise ValueError("method must be 'enkf' or 'mlenkf'")
        if not 0.0 < self.base_constant < math.inf:
            raise ValueError("base_constant must be finite and > 0")
        if self.realizations < 2:
            raise ValueError("need at least two realizations")
        if self.master_seed < 0:
            raise ValueError("master seed must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.eps_grid:
            raise ValueError("eps grid must be nonempty")
        for eps in self.eps_grid:
            n_top = self.hierarchy.n_modes(_level_count(eps, self.hierarchy))
            if n_top <= self.obs.m:
                raise ValueError(
                    f"eps={eps!r} gives N_L={n_top}, which must exceed the "
                    f"observation dimension m={self.obs.m}"
                )
            if n_top > self.n_ref:
                raise ValueError(
                    f"eps={eps!r} gives N_L={n_top}, which must not exceed the "
                    f"reference dimension n_ref={self.n_ref}"
                )


@dataclass(frozen=True)
class RunRecord:
    """One MSE-versus-cost data point."""

    method: str
    example: int
    solver: str
    epsilon: float
    L: int
    mse: float
    cost_units: float
    wall_seconds: float
    realizations: int

    def __post_init__(self):
        if self.mse < 0.0 or self.cost_units <= 0.0:
            raise ValueError("mse must be >= 0 and cost_units > 0")


@dataclass(frozen=True)
class TruthData:
    """Shared synthetic record: observations and reference QoI."""

    ys: np.ndarray
    ref_qoi: np.ndarray


def build_example(example, solver, n_ref, n0=1):
    """Model, ladder, observation model and initial data of one example.

    Example 1 observes a smoothness-limit combination of the odd modes;
    Example 2 observes the point value at x = 1/2.  Both use m = 1,
    Gamma = 1/4 and T = 1/4.  The norm exponents r1 < r2 < b + 1/4 fix
    the ladder; ``solver`` selects the temporal cost rate gamma_t (0 for
    exact-in-time, 2(r2 - r1) for exponential Euler).
    """
    if example not in (1, 2):
        raise ValueError("example must be 1 or 2")
    if solver not in SOLVERS:
        raise ValueError("solver must be 'exact' or 'expeuler'")
    T = 0.25  # one interval for the exact flow and the ladder's substeps
    j = np.arange(1, n_ref + 1, dtype=float)
    if example == 1:
        b = 0.25 + UPSILON
        r1, r2 = 0.0, 0.5
        h = np.zeros(n_ref)
        odd = np.arange(1, n_ref + 1, 2, dtype=float)
        h[::2] = (-1.0) ** (np.arange(odd.size)) * odd ** -(0.5 + UPSILON)
        qoi = j ** -(0.5 + UPSILON)
        u0 = j ** -(1.5 + UPSILON)
    else:
        b = 0.5 + UPSILON
        r1 = 0.25 + UPSILON / 2.0
        r2 = 0.75 + UPSILON / 2.0
        h = np.sqrt(2.0) * np.sin(j * np.pi / 2.0)
        h[np.abs(h) < 1e-12] = 0.0
        qoi = np.ones(n_ref)
        u0 = j ** (-2.0 + UPSILON)
    model = ModelConfig(T=T, b=b)
    gamma_t = 0.0 if solver == "exact" else 2.0 * (r2 - r1)
    hierarchy = LevelHierarchy.from_equilibration(
        r1, r2, n0=n0, j0=1, T=T, beta=4.0 * (r2 - r1), gamma_t=gamma_t
    )
    obs = ObservationModel(H=h[None, :], Gamma=np.array([[0.25]]), qoi=qoi)
    return model, hierarchy, obs, u0


def _level_count(eps, hierarchy):
    """Finest level ``L = ceil(2 log_kappa(1/eps) / beta)``, at least 0."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    # guard the ceil against float fuzz in log ratios
    raw = 2.0 * math.log(1.0 / eps) / math.log(hierarchy.kappa) / hierarchy.beta
    return max(0, math.ceil(round(raw, 9)))


def balanced_rates(hierarchy):
    """Whether the coupling rate beta equals the cost rate
    1 + gamma_t, the branch with the L^2 factor in the sizes."""
    s = 1.0 + hierarchy.gamma_t
    return abs(hierarchy.beta - s) <= _BRANCH_TOL


def make_schedule(eps, hierarchy, method, base_constant=1.0):
    """Level count and ensemble sizes for accuracy target ``eps``.

    ``L`` comes from :func:`_level_count`; the MLEnKF sizes follow the
    three-branch balance between the coupling rate beta and the cost
    rate 1 + gamma_t, the EnKF uses ``M = ceil(c eps^{-2})``.
    """
    L = _level_count(eps, hierarchy)
    beta = hierarchy.beta
    if method == "enkf":
        m = math.ceil(base_constant / eps ** 2)
        if m < 2:
            warnings.warn(f"ensemble size clamped to 2 at eps={eps!r}")
        return Schedule(eps, L, max(2, m), method)
    s = 1.0 + hierarchy.gamma_t
    h_top = hierarchy.level_params(L)[2]
    if balanced_rates(hierarchy):
        x = max(L, 1) ** 2 * h_top ** -beta
    elif beta > s:
        x = h_top ** -beta
    else:
        x = h_top ** (-(beta + s) / 2.0)
    sizes = []
    clamped = False
    for l in range(L + 1):
        h_l = hierarchy.level_params(l)[2]
        m_l = math.ceil(base_constant * h_l ** ((beta + s) / 2.0) * x)
        clamped = clamped or m_l < 2
        sizes.append(max(2, m_l))
    if clamped:
        warnings.warn(f"ensemble sizes clamped to 2 at eps={eps!r}")
    return Schedule(eps, L, tuple(sizes), method)


def psi_cost(hierarchy, level):
    """Cost units of one forward solve at a level: N_l, or N_l J_l when
    the ladder carries a temporal cost rate (exponential Euler)."""
    n, j, _, _ = hierarchy.level_params(level)
    return float(n * j) if hierarchy.gamma_t > 0.0 else float(n)


def theoretical_cost(schedule, hierarchy, method, n_steps, m):
    """Operation-count cost of a filter run.

    Per step and level: propagation of both pair members plus the
    m N_l M_l moment work.  The lowest level has no coarse partner, so
    the EnKF pays M (cost(Psi^L) + m N_L).  ``method`` must be the
    schedule's.
    """
    if method != schedule.method:
        raise ValueError("schedule was made for another method")
    per_step = 0.0
    for l, n_f, n_c, m_l in _level_rows(schedule, hierarchy):
        fwd = psi_cost(hierarchy, l) + (psi_cost(hierarchy, l - 1) if n_c else 0.0)
        per_step += m_l * (fwd + m * n_f)
    return float(per_step * n_steps)


def synthesize_truth_and_obs(cfg):
    """Observations of a truth path and the Kalman reference QoI sequence.

    The truth runs at the reference dimension with the exact flow and is
    not kept; the reference is the exact filter on the same observations.
    One record is shared by all filter realizations and methods.
    """
    obs, mdl = cfg.obs, cfg.model
    n_ref = obs.n_ref
    a, std, _ = _exact_coefficients(n_ref, mdl.T, mdl.b)
    u = cfg.u0
    state = GaussianState.deterministic(u)
    ys, ref = [], [obs.qoi_value(state.mean)]
    for n in range(1, cfg.n_steps + 1):
        z = RngKey(cfg.master_seed, "truth", 0, 0, n).generator().standard_normal(n_ref)
        u = a * u + std * z
        rng = RngKey(cfg.master_seed, "data-noise", 0, 0, n).generator()
        ys.append(obs.observe(u) + obs.Gamma_factor @ rng.standard_normal(obs.m))
        state = kalman_step(state, ys[-1], obs, mdl)
        ref.append(obs.qoi_value(state.mean))
    return TruthData(np.array(ys), np.array(ref))


def _level_rows(schedule, hierarchy):
    """``(level, N_l, N_{l-1} or 0, M_l)`` of each ensemble the filter runs."""
    sizes = schedule.level_sizes()
    base = sizes[0][0]
    return tuple(
        (l, hierarchy.n_modes(l), hierarchy.n_modes(l - 1) if l > base else 0, m_l)
        for l, m_l in sizes
    )


def initial_multilevel_ensemble(cfg, schedule, realizations=(0,)):
    """All members of the batch of ``realizations`` start at the projected
    deterministic initial state."""
    pairs = tuple(
        PairEnsemble(
            np.tile(cfg.u0[:n_c, None], (1, len(realizations) * m_l)),
            np.tile(cfg.u0[:n_f, None], (1, len(realizations) * m_l)),
            l,
        )
        for l, n_f, n_c, m_l in _level_rows(schedule, cfg.hierarchy)
    )
    return MultilevelEnsemble(pairs, realizations)


def _usable_cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _step_normals(rows, m, solver):
    """Normals a block reads in one step per purpose, over level rows as in
    :func:`_level_rows`: each level's forward draw, plus its coarse
    partners' own under exponential Euler, and m perturbations a pair."""
    coupled = solver == "expeuler"
    return {"forward": sum((n_f + coupled * n_c) * m_l for _, n_f, n_c, m_l in rows),
            "obs-perturbation": m * sum(m_l for *_, m_l in rows)}


def batch_readers(seed, ml, m, solver, n_steps, helper=None):
    """A :class:`~mlenkf.rng.StreamReader` per purpose over the batch ``ml``'s
    draws at steps 1..``n_steps``, planned for engine steps with ``m``
    observed directions and ``solver``, read from ``helper``'s slots if given."""
    b = len(ml.realizations)
    rows = [(pe.level, pe.fine.shape[0], pe.coarse.shape[0], pe.size // b) for pe in ml.levels]
    return {purpose: StreamReader(seed, purpose, ml.realizations, length, n_steps, helper)
            for purpose, length in _step_normals(rows, m, solver).items()}


def run_filter_realizations(cfg, schedule, ys, realizations, helper=None):
    """QoI tracks over steps 0..N, one row per realization.

    The realizations run as the column blocks of one ensemble; each row
    equals the realization's track run alone.  A realization whose filter
    diverges gets a row of NaN.  The draws are read from the step slots of
    the target's :class:`~mlenkf.rng.Helper`, whose next batch this must
    be, when given as ``helper``, else from the readers' own, filled on
    the calling thread.  The tracks are the same, whoever fills the slots.
    Each step advances the batch's one ensemble in place.
    """
    realizations = tuple(realizations)
    tracks = np.empty((len(realizations), cfg.n_steps + 1))
    ml = initial_multilevel_ensemble(cfg, schedule, realizations)
    readers = batch_readers(cfg.master_seed, ml, cfg.obs.m, cfg.solver, cfg.n_steps, helper)
    tracks[:, 0] = empirical_qoi(ml, cfg.obs)
    for n in range(1, cfg.n_steps + 1):
        ml = mlenkf_step(ml, ys[n - 1], cfg.obs, cfg.model, cfg.hierarchy, cfg.solver, readers)
        tracks[:, n] = empirical_qoi(ml, cfg.obs)
    for reader in readers.values():
        reader.finish()
    tracks[~np.all(np.isfinite(tracks), axis=1)] = np.nan
    return tracks


def realization_batches(cfg, schedule):
    """The realization indices cut into consecutive batches, each run as
    one ensemble by :func:`run_filter_realizations`.

    A batch holds at most ceil(R / jobs) realizations, so every worker
    gets one.  Its member entries, sum_l (N_l + N_{l-1}) M_l B, stay within
    the larger of :data:`BATCH_ENTRIES` and one realization of the grid's
    finest target: a deep ladder batches even its finest target, while a
    grid whose finest realization alone exceeds the budget keeps that
    realization as its cap, so a batch never needs more memory than it.
    The n batches that this size needs are cut equal, sizes differing by
    at most one, the first R mod n one larger, so none grows past it.
    """
    def entries(sched):
        return sum((n_f + n_c) * m_l for _, n_f, n_c, m_l in _level_rows(sched, cfg.hierarchy))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # make_schedule warned for it already
        finest = make_schedule(min(cfg.eps_grid), cfg.hierarchy, cfg.method, cfg.base_constant)
    cap = max(entries(finest), BATCH_ENTRIES)
    size = max(1, min(-(-cfg.realizations // cfg.jobs), cap // entries(schedule)))
    n = -(-cfg.realizations // size)
    q, r = divmod(cfg.realizations, n)
    return [range(k * q + min(k, r), (k + 1) * q + min(k + 1, r)) for k in range(n)]


def estimate_mse(cfg, schedule, data, pool=None):
    """Average squared QoI error against the reference over realizations.

    A target maps :func:`run_filter_realizations` over the batches of
    :func:`realization_batches`, through ``pool`` when given (its workers
    draw on their own thread), else in this process, through one
    :class:`~mlenkf.rng.Helper`, allocated before any ensemble.  It gets a
    one-worker executor, opened here and nowhere else, which fills its
    slots ahead across the batches' boundaries, if a CPU beyond
    ``cfg.jobs`` is usable and a step of the widest batch draws at least
    :data:`~mlenkf.rng.UNIT_NORMALS` forward normals; else its one slot a
    purpose is filled on this thread.  Each realization's squared error is
    formed here from the tracks; diverged (non-finite) ones are excluded
    with a warning, and the record carries the number actually averaged.
    """
    t0 = time.perf_counter()
    batches = realization_batches(cfg, schedule)
    plan = _step_normals(_level_rows(schedule, cfg.hierarchy), cfg.obs.m, cfg.solver)
    thread = contextlib.nullcontext()
    if (pool is None and _usable_cpus() > cfg.jobs
            and max(map(len, batches)) * plan["forward"] >= UNIT_NORMALS):
        from concurrent.futures import ThreadPoolExecutor  # loaded only with a spare CPU
        thread = ThreadPoolExecutor(max_workers=1)
    with thread as thread:
        helper = None if pool else Helper(cfg.master_seed, batches, plan, cfg.n_steps, thread)
        run = functools.partial(run_filter_realizations, cfg, schedule, data.ys, helper=helper)
        tracks = np.concatenate(list((map if pool is None else pool.map)(run, batches)))
    errs = np.sum((tracks - data.ref_qoi) ** 2, axis=1)
    ok = np.isfinite(errs)
    if not np.all(ok):
        warnings.warn(f"excluded {int(np.sum(~ok))} diverged realizations "
                      f"at eps={schedule.epsilon!r}")
    if not np.any(ok):
        raise RuntimeError("all realizations diverged")
    wall = time.perf_counter() - t0
    return RunRecord(
        method=cfg.method,
        example=cfg.example,
        solver=cfg.solver,
        epsilon=schedule.epsilon,
        L=schedule.L,
        mse=float(np.mean(errs[ok])),
        cost_units=theoretical_cost(schedule, cfg.hierarchy, cfg.method, cfg.n_steps, cfg.obs.m),
        wall_seconds=wall,
        realizations=int(np.sum(ok)),
    )


def run_experiment(cfg, on_record=None, *, data=None):
    """Records and schedules for every target in the eps grid.

    ``on_record(record, schedule)`` is called as each target finishes,
    so a caller can save finished rows before a later target fails.
    With ``cfg.jobs > 1`` every target's batches go through one process
    pool, opened once for the study, of at most ``cfg.jobs`` workers and
    no more than there are realizations or usable CPUs.
    """
    if data is None:
        data = synthesize_truth_and_obs(cfg)
    records, schedules = [], []
    pool = contextlib.nullcontext()
    if cfg.jobs > 1:
        # imported here: a serial study never pays for the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers up front, so never more than there
        # are realizations or CPUs; the batches, and so the outputs, follow jobs
        pool = ProcessPoolExecutor(max_workers=min(cfg.jobs, cfg.realizations, _usable_cpus()))
    with pool as pool:
        for eps in cfg.eps_grid:
            schedule = make_schedule(eps, cfg.hierarchy, cfg.method, cfg.base_constant)
            records.append(estimate_mse(cfg, schedule, data, pool))
            schedules.append(schedule)
            if on_record is not None:
                on_record(records[-1], schedule)
    return records, schedules


def fit_loglog_slope(records):
    """Least-squares slope of log(mse) against log(cost).

    Accepts RunRecords or (cost, mse) pairs; returns (slope, intercept,
    stderr) with the standard error from the residual variance.  Every
    cost and MSE must be finite and > 0, and the costs must take at
    least 3 distinct values.
    """
    pts = [(r.cost_units, r.mse) if isinstance(r, RunRecord) else r for r in records]
    pts = np.array(pts, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts) & (pts > 0.0)):
        raise ValueError("every cost and mse must be finite and > 0")
    cost, mse = pts.T
    if np.unique(cost).size < 3:
        raise ValueError("needs >= 3 distinct points")
    x, y = np.log(cost), np.log(mse)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / np.sum((x - x.mean()) ** 2)))
    return float(slope), float(intercept), stderr


def normalized_series(records):
    """``mse * cost / L^3`` per record, for the beta = 1 + gamma_t
    branch where boundedness (not a slope) is the prediction."""
    out = []
    for r in records:
        if r.L < 1:
            continue
        out.append((r.epsilon, r.L, r.mse * r.cost_units / r.L ** 3))
    return out
