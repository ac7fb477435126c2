"""Scalar reference implementations that the library's batched paths are
checked against.

``propagate_pairs`` advances a whole level of coupled pairs with
particles as columns; the functions here do the same work for one
member at a time, as the plain recursions of the paper, with the noise
of a coupled pair drawn as one explicit block.
``expeuler_pairs_substeps`` runs the J_l exponential Euler substeps of
a whole level one by one, the reference for the joint law that
``propagate_pairs`` samples in one draw.  ``enkf_step`` is the
single-level EnKF written out directly, the reference for the ensemble
engine run with one level.  ``dense_cov_action`` is the sample covariance
action from the full N x N sample covariance; the brute-force multilevel
action R^ML is ``mlenkf.verify._dense_r_ml``, which ``verify`` checks too.
"""

import numpy as np

from mlenkf.filters import ml_gain, sample_cov_action
from mlenkf.model import exact_noise_var, g_factor, propagate_pairs, propagator, substep_noise_var
from mlenkf.rng import RngKey
from mlenkf.spectral import eigenvalues


def draw_noise_block(level, cfg, hierarchy, key):
    """J_l x N_l independent increments R_{l,k}^{(j)} with the per-mode
    variances, indexed by (substep k, mode j)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    n, j, _, dt = hierarchy.level_params(level)
    std = np.sqrt(substep_noise_var(eigenvalues(n), dt, cfg.b))
    return key.generator().standard_normal((j, n)) * std


def exact_mode_step(u, cfg, key):
    """One interval of the exact mode flow for one member.

    Mode j is multiplied by ``e^{(1-lambda_j)T}`` and receives draw j of
    the keyed stream scaled by the exact increment deviation, so a
    coarser member sharing the key shares the first draws.
    """
    lam = eigenvalues(u.size)
    z = key.generator().standard_normal(u.size)
    return propagator(lam, cfg.T) * u + np.sqrt(exact_noise_var(lam, cfg.T, cfg.b)) * z


def expeuler_fine_solve(u0, cfg, draws):
    """Exponential Euler ``U <- g(lambda, dt) U + R_k`` over the rows of
    ``draws`` (one row per substep, dt = T / rows)."""
    j, n = draws.shape
    if u0.size != n:
        raise ValueError("initial data does not match the noise dimension")
    g = g_factor(eigenvalues(n), cfg.T / j)
    u = u0.copy()
    for k in range(j):
        u = g * u + draws[k]
    return u


def coupled_coarse_solve(u0, cfg, draws):
    """Coarse solve driven by a fine noise block: each coarse substep takes
    ``U <- g(lambda, 2 dt) U + e^{-lambda dt} R_{2k} + R_{2k+1}`` for the
    modes of ``u0``; fine draws beyond them are never read."""
    jf, nf = draws.shape
    nc = u0.size
    if jf % 2 or nc > nf:
        raise ValueError("need an even substep count and a coarse state within the fine noise")
    dt = cfg.T / jf
    lam = eigenvalues(nc)
    g = g_factor(lam, 2.0 * dt)
    damp = np.exp(-lam * dt)
    u = u0.copy()
    for k in range(jf // 2):
        u = g * u + damp * draws[2 * k, :nc] + draws[2 * k + 1, :nc]
    return u


def expeuler_pairs_substeps(coarse, fine, level, cfg, hierarchy, rng):
    """``propagate_pairs(..., "expeuler")`` as J_l batched substeps.

    Each substep draws an (N_l, M) block R; the fine members take
    ``U <- g(lambda, dt) U + R`` and, after every second substep, the
    coarse members take ``U <- g(lambda, 2 dt) U + e^{-lambda dt}
    R_{2k} + R_{2k+1}`` on their first N_{l-1} modes.
    """
    n, j, _, dt = hierarchy.level_params(level)
    nc, m = coarse.shape
    lam = eigenvalues(n)
    std = np.sqrt(substep_noise_var(lam, dt, cfg.b))
    gf = g_factor(lam, dt)
    gc = g_factor(lam[:nc], 2.0 * dt)
    damp = np.exp(-lam[:nc] * dt)
    fine_out, coarse_out = fine, coarse
    held = None
    for k in range(j):
        r = std[:, None] * rng.standard_normal((n, m))
        fine_out = gf[:, None] * fine_out + r
        if k % 2 == 0:
            held = r
        else:
            coarse_out = gc[:, None] * coarse_out + damp[:, None] * held[:nc] + r[:nc]
    return coarse_out, fine_out


def enkf_step(v, level, y, obs, cfg, hierarchy, seed, realization, step, solver):
    """Single-level EnKF step on the (N_level, M) members ``v``.

    Forecast with the level's forward map, gain from the sample
    covariance action, then every member corrected with its own
    perturbed datum ``y + Gamma^{1/2} z``.
    """
    m_size = v.shape[1]
    # the step's streams have level slot 0; one level reads the first block
    rng = RngKey(seed, "forward", realization, 0, step).generator()
    _, pred = propagate_pairs(np.zeros((0, m_size)), v.copy(), level, cfg, hierarchy, rng, solver)
    k = ml_gain(sample_cov_action(pred, obs), obs)
    rng = RngKey(seed, "obs-perturbation", realization, 0, step).generator()
    eta = np.linalg.cholesky(obs.Gamma) @ rng.standard_normal((obs.m, m_size))
    y = np.asarray(y, dtype=float).reshape(obs.m)
    return pred + k @ (y[:, None] + eta - obs.H[:, : pred.shape[0]] @ pred)


def dense_cov_action(v, obs):
    """``Cov_M[v, Hv]`` by forming the full N x N sample covariance."""
    c = np.atleast_2d(np.cov(v, ddof=1))
    return c @ obs.H[:, : v.shape[0]].T

