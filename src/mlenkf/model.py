"""Forward solution operators for the stochastic heat equation.

The model is du = (Laplacian u + u) dt + dW on (0, 1) with Dirichlet
conditions, driven by a B-Wiener process whose modes are damped by
lambda_j^{-b}.  With linear forcing every mode evolves independently,
so one observation interval T is either a single exact flow map or J_l
exponential Euler substeps.  Coarse and fine solves of a coupled pair
consume the same keyed noise: the exact solver shares the per-mode
draws, the discrete solver combines two fine increments into one coarse
increment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import eigenvalues

__all__ = [
    "ModelConfig",
    "SOLVERS",
    "propagator",
    "exact_noise_var",
    "g_factor",
    "substep_noise_var",
    "propagate_pairs",
    "unit_counter",
    "reset_unit_counter",
]

SOLVERS = ("exact", "expeuler")

# cost-unit instrumentation: mode-substeps actually executed, bumped by
# propagate_pairs and the moment accumulation (see
# experiment.theoretical_cost)
unit_counter = {"forward": 0.0, "moments": 0.0}


def reset_unit_counter():
    for k in unit_counter:
        unit_counter[k] = 0.0


@dataclass(frozen=True)
class ModelConfig:
    """Model parameters: interval T, noise exponent b and norm exponents.

    ``r1 < r2 < b + 1/4`` is the well-posedness window; ``r1``/``r2``
    fix the norms used for coupling rates and the ladder growth factor.
    The forcing is linear, ``f(u) = u``.
    """

    T: float
    b: float
    r1: float
    r2: float

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.b < 0.0:
            raise ValueError("b must be >= 0")
        if not (self.r1 < self.r2 < self.b + 0.25):
            raise ValueError("need r1 < r2 < b + 1/4")


def propagator(lam, T):
    """Exact one-interval mode factor ``e^{(1-lambda)T}``."""
    return np.exp((1.0 - np.asarray(lam, dtype=float)) * T)


def exact_noise_var(lam, T, b):
    """Variance of the exact mode increment over one interval T.

    ``lambda^{-2b} (1 - e^{2(1-lambda)T}) / (2(lambda-1))``, written via
    expm1 to stay accurate when (lambda-1)T is small.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 1.0):
        raise ValueError("mode variance formula needs lambda > 1")
    return lam ** (-2.0 * b) * (-np.expm1(-2.0 * (lam - 1.0) * T)) / (2.0 * (lam - 1.0))


def g_factor(lam, dt):
    """Deterministic substep factor ``e^{-lambda dt} + (1-e^{-lambda dt})/lambda``."""
    lam = np.asarray(lam, dtype=float)
    return np.exp(-lam * dt) - np.expm1(-lam * dt) / lam


def substep_noise_var(lam, dt, b):
    """Variance ``(1 - e^{-2 lambda dt}) / (2 lambda^{1+2b})`` of R_{l,k}."""
    lam = np.asarray(lam, dtype=float)
    return -np.expm1(-2.0 * lam * dt) / (2.0 * lam ** (1.0 + 2.0 * b))


def propagate_pairs(coarse, fine, level, cfg, hierarchy, rng, solver):
    """One interval for a whole level of coupled pairs, particles as columns.

    Parameters
    ----------
    coarse : ndarray, shape (N_{l-1}, M)
        Coarse members; 0 rows at level 0 (the v^{-1} := 0 convention).
    fine : ndarray, shape (N_l, M)
        Fine members.
    rng : numpy.random.Generator
        Keyed stream for this (realization, level, step); the pair
        coupling comes from both members reading the same draws.
    solver : str
        "exact" or "expeuler".

    Returns
    -------
    (coarse_out, fine_out) arrays of the input shapes.
    """
    n, j, _, dt = hierarchy.level_params(level)
    nc, m = coarse.shape
    if fine.shape != (n, m):
        raise ValueError("fine ensemble does not match the level dimension")
    # 0 coarse rows means no coarse partner (level 0, or a single-level run)
    if nc != 0 and nc != (hierarchy.n_modes(level - 1) if level > 0 else 0):
        raise ValueError("coarse ensemble does not match level - 1")
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    lam = eigenvalues(n)
    if solver == "exact":
        a = propagator(lam, cfg.T)
        std = np.sqrt(exact_noise_var(lam, cfg.T, cfg.b))
        z = rng.standard_normal((n, m))
        fine_out = a[:, None] * fine + std[:, None] * z
        coarse_out = a[:nc, None] * coarse + std[:nc, None] * z[:nc]
        unit_counter["forward"] += m * (n + nc)
        return coarse_out, fine_out
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
    unit_counter["forward"] += m * (n * j + nc * (j // 2))
    return coarse_out, fine_out

