"""Ensemble and exact Kalman filters over the spectral hierarchy.

One ensemble engine runs both ensemble filters: the multilevel EnKF,
whose moments are telescoping sums over coupled pair ensembles on the
levels 0..L, and the single-level EnKF with perturbed observations,
which is the same engine with one pair ensemble at level L and no
coarse partners.  The exact Kalman recursion serves as the mean-field
reference in the linear-Gaussian setting.  Sample covariances are never
materialized as N x N matrices; everything goes through the action on
the m observation directions.  A step applies H to each level's
predicted members once, and the moments, the update and the QoI are
``np.einsum`` or broadcast kernels: no member array reaches BLAS, so
seeded results do not depend on the BLAS thread count.

An ensemble carries a batch of B independent realizations, whose indices
it holds, as column blocks: each level array is (N_l, B M_l), the i-th
realization's particles in columns ``i M_l .. (i+1) M_l``.  Every step
runs once per level for the whole batch.  The moments, the gain and the
QoI reduce per block, each block by the same kernel and in the same
order as when it runs alone, and every block reads its realization's
own streams (see :class:`~mlenkf.rng.ColumnBlocks`), so a realization's
results do not depend on the batch it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import _exact_coefficients, propagate_pairs
from .rng import ColumnBlocks, RngKey

__all__ = [
    "ObservationModel",
    "PairEnsemble",
    "MultilevelEnsemble",
    "GaussianState",
    "sample_cov_action",
    "compute_R_ml",
    "positive_part",
    "ml_gain",
    "ml_update",
    "ml_predict",
    "mlenkf_step",
    "empirical_qoi",
    "kalman_predict",
    "kalman_update",
    "kalman_step",
]


@dataclass(frozen=True)
class ObservationModel:
    """Observation operator H, noise covariance Gamma and QoI coefficients.

    ``H`` has one row per observed functional, columns are mode
    coefficients truncated at the reference dimension.  ``qoi`` holds
    the coefficients of the scalar quantity of interest.  ``Gamma``
    must be symmetric positive definite.  ``Gamma_factor`` is its
    Cholesky factor F, F F^T = Gamma, computed once; it colours the
    observation noise draws.
    """

    H: np.ndarray
    Gamma: np.ndarray
    qoi: np.ndarray
    Gamma_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        G = np.atleast_2d(np.asarray(self.Gamma, dtype=float))
        q = np.asarray(self.qoi, dtype=float)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "Gamma", G)
        object.__setattr__(self, "qoi", q)
        if G.shape != (H.shape[0], H.shape[0]):
            raise ValueError("Gamma must be m x m")
        if q.shape != (H.shape[1],):
            raise ValueError("qoi must have n_ref entries")
        if not np.allclose(G, G.T):
            raise ValueError("Gamma must be symmetric")
        try:
            factor = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Gamma must be positive definite") from exc
        object.__setattr__(self, "Gamma_factor", factor)

    @property
    def m(self):
        return self.H.shape[0]

    @property
    def n_ref(self):
        return self.H.shape[1]

    def observe(self, v):
        """Apply H to coefficients at any truncation: ``H[:, :n] v``.

        ``v`` is one coefficient vector or an (n, M) member array.  The
        contraction is an ``np.einsum`` kernel, not a BLAS call: with m
        rows it is tiny work per member, and BLAS would wake its threads
        for it and sum in an order that depends on their number.
        """
        n = v.shape[0]
        return np.einsum("kn,n...->k...", self.H[:, :n], v)

    def qoi_value(self, v):
        """QoI of coefficients at any truncation, an einsum kernel like
        :meth:`observe`."""
        n = v.shape[0]
        return np.einsum("n,n...->...", self.qoi[:n], v)


@dataclass(frozen=True)
class PairEnsemble:
    """Coupled pairs of one level: coarse (N_{l-1} x M) and fine (N_l x M).

    At level 0 the coarse array has 0 rows, standing in for the zero
    field convention v^{-1} := 0.  The single level of an EnKF ensemble
    has 0 coarse rows too: its members have no coarse partners.
    """

    coarse: np.ndarray
    fine: np.ndarray
    level: int

    def __post_init__(self):
        if self.coarse.ndim != 2 or self.fine.ndim != 2:
            raise ValueError("members must be (n_modes, M) arrays")
        if self.coarse.shape[1] != self.fine.shape[1]:
            raise ValueError("coarse and fine must pair up")
        if self.size < 2:
            raise ValueError("pair ensemble needs M >= 2")
        if self.level == 0 and self.coarse.shape[0] != 0:
            raise ValueError("level-0 coarse members are the zero field")

    @property
    def size(self):
        return self.fine.shape[1]


@dataclass(frozen=True)
class MultilevelEnsemble:
    """Pair ensembles for contiguous levels, the lowest one without coarse
    partners: levels 0..L for the MLEnKF, the single level L for the EnKF.

    ``realizations`` holds the index of the realization in each column
    block; every level holds one block of at least 2 particles per index.
    """

    levels: tuple
    realizations: tuple = (0,)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "realizations", tuple(self.realizations))
        if not self.levels:
            raise ValueError("need at least one level")
        b = len(self.realizations)
        if not b:
            raise ValueError("need at least one block")
        for pe in self.levels:
            if pe.size % b or pe.size // b < 2:
                raise ValueError("every level needs blocks of M >= 2 particles")
        if self.levels[0].coarse.shape[0] != 0:
            raise ValueError("the lowest level has no coarse partners")
        for below, pe in zip(self.levels, self.levels[1:]):
            if pe.level != below.level + 1:
                raise ValueError("levels must be contiguous")
            if pe.coarse.shape[0] != below.fine.shape[0]:
                raise ValueError("coarse dimension must match the level below")


def _blocks(a, b):
    """(rows, B M) array viewed as (rows, B, M): column block i is ``[:, i]``."""
    return a.reshape(a.shape[0], b, -1)


def _block_means(a, b):
    """Mean over each column block of a (..., B M) array, shape (..., B):
    ``np.mean``'s sum and division without its Python overhead."""
    a = a.reshape(a.shape[:-1] + (b, -1))
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def _cov_action(v, hv, b):
    # Cov_M[v, Hv] = v (Hv - mean Hv)^T / (M - 1) per column block, shape
    # (b, N, m): exact because the centred factor sums to zero over the
    # particles, so v needs no copy
    d = _blocks(hv, b) - _block_means(hv, b)[..., None]
    v = _blocks(v, b)
    m = v.shape[2]
    if m <= np.getbufsize():
        s = np.einsum("nbp,kbp->bnk", v, d)
    else:
        # einsum sums a particle axis longer than its buffer in pieces
        # that depend on the other axes, so a long block is summed alone
        s = np.stack([np.einsum("np,kp->nk", v[:, i], d[:, i]) for i in range(b)])
    return s / (m - 1)


def _project(ml, obs):
    """``(H coarse, H fine)`` of every level, each (m, M_l), with ``None``
    for coarse members without rows (the lowest level's).

    One assimilation step applies H to its predicted members once; the
    covariance action and the update both read these projections.
    """
    return tuple(
        (obs.observe(pe.coarse) if pe.coarse.shape[0] else None, obs.observe(pe.fine))
        for pe in ml.levels
    )


def sample_cov_action(v, obs):
    """Unbiased ``Cov_M[v, Hv]`` of the (N, M) members ``v``, shape (N, m).

    Equals ``(M/(M-1)) (E_M[v (Hv)^T] - E_M[v] E_M[Hv]^T)`` without ever
    forming an N x N matrix: :func:`compute_R_ml` of the one-level
    ensemble ``v``.
    """
    return compute_R_ml(MultilevelEnsemble((PairEnsemble(v[:0], v, 0),)), obs)[0]


def compute_R_ml(ml, obs, hv=None):
    """Multilevel covariance action R^ML of every block, shape (B, N_L, m).

    Adds ``Cov_{M_l}[v^l, Hv^l] - Cov_{M_{l+1}}[v^l, Hv^l]`` into the
    first N_l rows for every level below the top, then the top-level
    fine covariance; the second term of each difference comes from the
    coarse members of the level above, which live at level l.  With one
    level this is the single-level sample covariance action.  ``hv``
    holds the members' projections (see :func:`_project`) when the caller
    has them already.  Cost O(m sum_l M_l N_l).
    """
    if hv is None:
        hv = _project(ml, obs)
    levels = tuple(zip(ml.levels, hv))
    top = ml.levels[-1].fine
    b = len(ml.realizations)
    r = np.zeros((b, top.shape[0], obs.m))
    for (pe, (_, h_fine)), (up, (h_coarse, _)) in zip(levels, levels[1:]):
        r[:, : pe.fine.shape[0]] += _cov_action(pe.fine, h_fine, b)
        r[:, : up.coarse.shape[0]] -= _cov_action(up.coarse, h_coarse, b)
    r += _cov_action(top, hv[-1][1], b)
    model.unit_counter["moments"] += obs.m * sum(pe.fine.size for pe in ml.levels)
    return r


def _mT(a):
    return np.swapaxes(a, -1, -2)


def positive_part(a):
    """Spectral positive part: keep eigenpairs with eigenvalue >= 0.

    The input is symmetrized first; the threshold is exactly zero, no
    clipping tolerance.  A stack (..., m, m) is taken matrix by matrix.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    w, q = np.linalg.eigh(0.5 * (a + _mT(a)))
    return (q * np.where(w >= 0.0, w, 0.0)[..., None, :]) @ _mT(q)


def ml_gain(r, obs):
    """Gain ``K = R S^{-1}`` from a covariance action R, S = (HR)^+ + Gamma.

    ``r`` is one (N, m) action or a (B, N, m) stack, one per block; the
    gain has the same shape.  A diverged block, whose HR is not finite
    (a non-finite R, or a finite one that overflows), gets a NaN gain and
    leaves the other blocks alone, even when every block diverged.
    ``FloatingPointError`` is raised when an S is not positive definite.
    """
    r = np.asarray(r, dtype=float)
    hr = np.einsum("kn,...nj->...kj", obs.H[:, : r.shape[-2]], r)
    bad = ~np.isfinite(hr).all(axis=(-2, -1))
    r = np.where(bad[..., None, None], 0.0, r)
    hr[bad] = 0.0
    s = positive_part(hr) + obs.Gamma
    try:
        low = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise FloatingPointError("innovation covariance not positive definite") from exc
    k = _mT(np.linalg.solve(_mT(low), np.linalg.solve(low, _mT(r))))
    k[bad] = np.nan
    return k


def _add_correction(v, kt, innovation):
    # v += P K (ytilde - Hv) per column block, in place, P the truncation
    # to v's height and kt the gains as (N, m, B, 1): the rank-m product is
    # broadcast one observed direction at a time into one temporary, never
    # a BLAS call, and only then added into v, so v + sum_j k_j innov_j is
    # bit-identical to the written-out sum_j k_j innov_j + v for every m
    n, b = v.shape[0], kt.shape[2]
    innovation = _blocks(innovation, b)
    correction = kt[:n, 0] * innovation[0]
    for j in range(1, innovation.shape[0]):
        correction += kt[:n, j] * innovation[j]
    v += correction.reshape(n, -1)


def _streams(ml, seed, purpose, step):
    """Column-block reader over the step's stream of each block's
    realization."""
    return ColumnBlocks(RngKey(seed, purpose, r, 0, step).generator() for r in ml.realizations)


def ml_update(ml, k, y, obs, seed, step, hv=None):
    """Perturbed-observation update of every pair, in place.

    One perturbed datum ``y + eta`` is shared by the two members of a
    pair and is independent across particles and levels; each member is
    corrected with its block's gain, ``k[i]`` of the (B, N, m) stack that
    :func:`ml_gain` returns, truncated to its own resolution.  The step's
    one perturbation stream of each block's realization,
    ``RngKey(seed, "obs-perturbation", ml.realizations[i], 0, step)``, is
    read in level order: each level takes the next m M_l normals, so
    levels get disjoint blocks.  ``hv`` holds the members' projections
    (see :func:`_project`) when the caller has them already.

    The update consumes its inputs: the corrections are added into the
    member arrays of ``ml``, which it returns, and the innovations
    ``y + eta - Hv`` are written over the projections in ``hv``.  A
    caller that still needs either passes copies.
    """
    if hv is None:
        hv = _project(ml, obs)
    y = np.asarray(y, dtype=float).reshape(obs.m)
    if k.shape[0] != len(ml.realizations):
        raise ValueError(f"{len(ml.realizations)} blocks need as many gains, got {k.shape[0]}")
    kt = k.transpose(1, 2, 0)[..., None]
    rng = _streams(ml, seed, "obs-perturbation", step)
    for pe, projections in zip(ml.levels, hv):
        members = [(v, h) for v, h in zip((pe.coarse, pe.fine), projections) if h is not None]
        ytilde = np.einsum("kj,jp->kp", obs.Gamma_factor, rng.standard_normal((obs.m, pe.size)))
        ytilde += y[:, None]
        for _, h in members:
            np.subtract(ytilde, h, out=h)
        del ytilde  # freed first, so the corrections' temporary can reuse its memory
        for v, h in members:
            _add_correction(v, kt, h)
    return ml


def ml_predict(ml, cfg, hierarchy, seed, step, solver):
    """Propagate every pair one interval with coupled noise.

    The step's one forward stream of each block's realization,
    ``RngKey(seed, "forward", ml.realizations[i], 0, step)``, is read in
    level order: each level's :func:`~mlenkf.model.propagate_pairs` call
    draws the next block, so levels get disjoint draws and the two
    members of a pair share theirs.  The prediction carries the same
    realizations.
    """
    rng = _streams(ml, seed, "forward", step)
    out = []
    for pe in ml.levels:
        coarse, fine = propagate_pairs(
            pe.coarse, pe.fine, pe.level, cfg, hierarchy, rng, solver
        )
        out.append(PairEnsemble(coarse, fine, pe.level))
    return MultilevelEnsemble(tuple(out), ml.realizations)


def mlenkf_step(ml, y, obs, cfg, hierarchy, seed, step, solver):
    """One assimilation step of the ensemble engine: predict, gain, update.

    A multilevel ensemble makes this an MLEnKF step; a single level L
    without coarse partners makes it an EnKF step at level L.  A batch
    of realizations steps as one ensemble, each block reading its own
    realization's streams.  The update writes into the prediction and
    its projections, which the step owns; ``ml`` itself is never
    written.  The step drops ``ml`` once it has predicted, so on CPython
    3.11 and later a caller that hands over its last reference frees the
    input before the update runs; before 3.11 the caller's frame holds
    every argument until the call returns, and the input lives through it.
    """
    n_top = ml.levels[-1].fine.shape[0]
    if obs.m >= n_top:
        raise ValueError(
            "observation dimension must stay below N_L "
            f"(m={obs.m}, N_L={n_top}); larger m is outside the regime"
        )
    pred = ml_predict(ml, cfg, hierarchy, seed, step, solver)
    del ml
    hv = _project(pred, obs)
    k = ml_gain(compute_R_ml(pred, obs, hv), obs)
    return ml_update(pred, k, y, obs, seed, step, hv)


# No caller in the library; the benchmark tracer (perfbench/tracer.py) patches this name.
enkf_step = mlenkf_step
# No caller in the library; the benchmark tracer (perfbench/tracer.py) patches this name.
enkf_update = ml_update


def empirical_qoi(ml, obs):
    """QoI of the empirical measure of every block, shape (B,).

    The telescoping sum of fine-minus-coarse averages per level; with
    one level, the ensemble average of ``phi(v_i)``.  ``phi`` is
    :meth:`ObservationModel.qoi_value`.
    """
    b = len(ml.realizations)
    total = np.zeros(b)
    for pe in ml.levels:
        total += _block_means(obs.qoi_value(pe.fine), b)
        if pe.coarse.shape[0]:
            total -= _block_means(obs.qoi_value(pe.coarse), b)
    return total


@dataclass(frozen=True)
class GaussianState:
    """Kalman reference state with diagonal-plus-low-rank covariance.

    ``cov = diag(cov_diag) - factors factors^T``; the rank
    grows by m per assimilation step.  Exact here because the initial
    covariance is zero and prediction is mode-diagonal.
    """

    mean: np.ndarray
    cov_diag: np.ndarray
    factors: np.ndarray

    @classmethod
    def deterministic(cls, u0):
        u0 = np.asarray(u0, dtype=float)
        n = u0.size
        return cls(u0.copy(), np.zeros(n), np.zeros((n, 0)))

    def cov_action(self, w):
        """``cov @ w`` for an (n, p) probe without forming the covariance."""
        w = np.asarray(w, dtype=float)
        return self.cov_diag[:, None] * w - self.factors @ (self.factors.T @ w)


def kalman_predict(state, cfg):
    """Exact mean/covariance push-forward over one interval, with the
    exact-flow coefficients that :func:`~mlenkf.model.propagate_pairs`
    reads."""
    a, _, q = _exact_coefficients(state.mean.size, cfg.T, cfg.b)
    return GaussianState(
        a * state.mean,
        a * a * state.cov_diag + q,
        a[:, None] * state.factors,
    )


def kalman_update(state, y, obs):
    """Exact Kalman update; appends a rank-m downdate to the covariance.

    ``S = H C H* + Gamma`` must be positive definite.  The mean update
    uses the plain datum y, not a perturbed copy.
    """
    y = np.asarray(y, dtype=float).reshape(obs.m)
    n = state.mean.size
    ch = state.cov_action(obs.H[:, :n].T)
    s = obs.observe(ch) + obs.Gamma
    s = 0.5 * (s + s.T)
    try:
        low = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("innovation covariance not positive definite") from exc
    # (I - KH)C = C - G G^T with G = C H* L^{-T}, and K = G L^{-1}
    g = np.linalg.solve(low, ch.T).T
    k = np.linalg.solve(low.T, g.T).T
    mean = state.mean + k @ (y - obs.observe(state.mean))
    return GaussianState(mean, state.cov_diag.copy(), np.hstack([state.factors, g]))


def kalman_step(state, y, obs, cfg):
    """Predict then update; the exact filtering recursion."""
    return kalman_update(kalman_predict(state, cfg), y, obs)

