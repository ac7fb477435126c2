"""Forward solution operators for the stochastic heat equation.

The model is du = (Laplacian u + u) dt + dW on (0, 1) with Dirichlet
conditions, driven by a B-Wiener process whose modes are damped by
lambda_j^{-b}.  With linear forcing every mode evolves independently,
so one observation interval T is either a single exact flow map or J_l
exponential Euler substeps.  The exact solver gives the coarse and fine
member of a pair the same per-mode draws.  The discrete solver draws a
pair from the exact joint law of J_l fine substeps and the J_l / 2
coarse substeps that combine two fine increments each: per mode the
fine noise and the pair difference are a bivariate Gaussian, so one
normal per fine mode and one more per coarse mode replace J_l each.
A level's coefficients depend only on its sizes and the model
parameters, so they are built once and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
]

SOLVERS = ("exact", "expeuler")

# cost units of the paper's cost model, bumped by propagate_pairs (N_l J_l
# mode-substeps per expeuler member, though a pair is drawn in one go) and
# the moment accumulation (see experiment.theoretical_cost)
unit_counter = {"forward": 0.0, "moments": 0.0}


@dataclass(frozen=True)
class ModelConfig:
    """Model parameters: observation interval T and noise exponent b.

    The forcing is linear, ``f(u) = u``.  The norm exponents r1 < r2 of
    an example fix its ladder (see ``experiment.build_example``).
    """

    T: float
    b: float

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.b < 0.0:
            raise ValueError("b must be >= 0")


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


def _conj(p, s):
    """``p s p^T`` for a lower-triangular ``p = (p11, p21, p22)`` and a
    symmetric ``s = (s11, s21, s22)``, per mode."""
    p11, p21, p22 = p
    s11, s21, s22 = s
    return (p11 * p11 * s11, p11 * (p21 * s11 + p22 * s21),
            p21 * p21 * s11 + 2.0 * p21 * p22 * s21 + p22 * p22 * s22)


def _pair_noise_moments(lam, dt, b, j):
    """Per-mode (Var X, Cov(X, D), Var D) of the noise of j substeps.

    X is the noise that j exponential Euler substeps of width dt add to
    a fine member, D = X - X_c its difference from the noise that j / 2
    coupled coarse substeps add to the coarse member.  One coarse step
    maps (X, D) to A (X, D) + w with A = [[g^2, 0], [g^2 - G, G]], g and
    G the fine and coarse factors, and adds w = (g R_0 + R_1, (g - e) R_0)
    of covariance Q, e = e^{-lambda dt}; the j / 2 steps are summed by
    binary doubling of (A^n, sum_{i<n} A^i Q A^{iT}).  The small entries
    g^2 - G and g - e come from expm1, so no nearly equal numbers are
    subtracted.  An odd j (no coarse partner) adds one fine substep.
    """
    e1 = -np.expm1(-lam * dt)  # 1 - e^{-lambda dt}
    g = g_factor(lam, dt)
    v = substep_noise_var(lam, dt, b)
    a = (g * g, -e1 * e1 * (1.0 - 1.0 / lam) / lam, g_factor(lam, 2.0 * dt))
    w = e1 / lam
    q = (v * (g * g + 1.0), v * g * w, v * w * w)
    one, zero = np.ones_like(lam), np.zeros_like(lam)
    p, s = (one, zero, one), (zero, zero, zero)
    for bit in bin(j // 2)[2:]:
        s = tuple(x + y for x, y in zip(s, _conj(p, s)))
        p = (p[0] * p[0], p[1] * (p[0] + p[2]), p[2] * p[2])
        if bit == "1":
            s = tuple(x + y for x, y in zip(q, _conj(a, s)))
            p = (a[0] * p[0], a[1] * p[0] + a[2] * p[1], a[2] * p[2])
    if j % 2:
        s = (g * g * s[0] + v,) + s[1:]
    return s


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _exact_coefficients(n, T, b):
    """Read-only ``(a, std, var)`` of the exact flow on the first n modes:
    the mode factor and the increment deviation and variance over one
    interval T."""
    lam = eigenvalues(n)
    var = exact_noise_var(lam, T, b)
    return _frozen(propagator(lam, T), np.sqrt(var), var)


@lru_cache(maxsize=32)
def _expeuler_coefficients(n, nc, j, dt, b):
    """Read-only ``(g^j, std_x, G^{j/2}, std_x - beta, std_d)`` of a pair
    of j fine substeps of width dt on n modes, the last three on the
    first nc (coarse) modes; see :func:`propagate_pairs`."""
    lam = eigenvalues(n)
    var_x, cov_xd, var_d = _pair_noise_moments(lam, dt, b, j)
    std_x = np.sqrt(var_x)
    beta = cov_xd[:nc] / std_x[:nc]
    return _frozen(
        g_factor(lam, dt) ** j,
        std_x,
        g_factor(lam[:nc], 2.0 * dt) ** (j // 2),
        std_x[:nc] - beta,
        np.sqrt(var_d[:nc] - beta * beta),
    )


def _blocks(z):
    # a reader's (rows, B, M) draw as it is, a generator's (rows, M) as one block
    return z if z.ndim == 3 else z[:, None]


def propagate_pairs(coarse, fine, level, cfg, hierarchy, rng, solver):
    """One interval for a whole level of coupled pairs, particles as columns.

    Parameters
    ----------
    coarse : ndarray, shape (N_{l-1}, M)
        Coarse members; 0 rows at level 0 (the v^{-1} := 0 convention).
    fine : ndarray, shape (N_l, M)
        Fine members.
    rng : numpy.random.Generator or mlenkf.rng.StreamReader
        Stream positioned at this level's block.  The exact solver
        draws N_l M normals and the coarse member reuses the first
        N_{l-1} rows.  The expeuler solver draws the fine noise X
        (N_l M normals), then the pair difference D given X (N_{l-1} M
        more), from the joint law of the discrete scheme.  A reader's
        draws are scaled where it hands them out.
    solver : str
        "exact" or "expeuler".

    Returns
    -------
    (coarse, fine)
        The input arrays, advanced in place through (rows, B, M) views,
        which a reshape that only splits the column axis gives for any
        strides: each member is scaled and has its noise added where it
        lies, so a call makes no full-size array beyond the draw.  Members
        that share memory, which the in-place writes would step twice,
        raise ``ValueError``.
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
    if np.may_share_memory(coarse, fine):
        raise ValueError("coarse and fine members must not share memory")
    # each in-place sum adds the same two products as the written-out
    # a * x + s * z, and IEEE addition commutes, so results are bit-identical
    z = _blocks(rng.standard_normal((n, m)))
    f, c = fine.reshape(z.shape), coarse.reshape(z[:nc].shape)  # (rows, B, M) views
    if solver == "exact":
        a, std, _ = _exact_coefficients(n, cfg.T, cfg.b)
        z *= std[:, None, None]
        f *= a[:, None, None]
        f += z
        c *= a[:nc, None, None]
        c += z[:nc]
        unit_counter["forward"] += m * (n + nc)
        return coarse, fine
    g_j, std_x, g_coarse, std_xc, std_d = _expeuler_coefficients(n, nc, j, dt, cfg.b)
    f *= g_j[:, None, None]
    # coarse = G^{J/2} coarse + X - D with X = std_x z: D given X is
    # beta z, beta = cov / std_x, plus an independent normal of deviation
    # std_d; corr(X, D)^2 <= 0.19, so std_d does not cancel
    c *= g_coarse[:, None, None]
    c += std_xc[:, None, None] * z[:nc]
    w = _blocks(rng.standard_normal((nc, m)))
    w *= std_d[:, None, None]
    c -= w
    z *= std_x[:, None, None]
    f += z
    unit_counter["forward"] += m * (n * j + nc * (j // 2))
    return coarse, fine
