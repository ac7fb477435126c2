"""Laplacian eigenvalues and the resolution ladder.

States live in the eigenbasis of the negative Dirichlet Laplacian on
(0, 1): phi_j = sqrt(2) sin(j pi x) with eigenvalue lambda_j = pi^2 j^2.
A field is stored as its coefficient vector, truncated at the N_l modes
of its resolution level; physical-space values are never needed because
all dynamics used here are mode-diagonal or mode-linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LevelHierarchy", "eigenvalues"]


def eigenvalues(n):
    """Eigenvalues ``pi^2 j^2`` for modes ``j = 1..n`` as a float array."""
    j = np.arange(1, n + 1, dtype=float)
    return (np.pi * j) ** 2


@dataclass(frozen=True)
class LevelHierarchy:
    """Geometric resolution ladder plus the rate constants attached to it.

    ``N_l = round(n0 * kappa^l)`` (ties up), ``J_l = j0 * 2^l``,
    ``h_l = 1 / N_l`` and ``dt_l = T / J_l``.  ``beta`` is the strong
    coupling rate and ``gamma_t`` the temporal cost exponent (0 for the
    exact-in-time solver); the spatial cost exponent is 1, one unit per
    mode, so the cost rate is ``1 + gamma_t``.
    """

    kappa: float
    n0: int = 1
    j0: int = 1
    T: float = 0.25
    beta: float = 2.0
    gamma_t: float = 0.0

    def __post_init__(self):
        if self.kappa <= 1.0:
            raise ValueError("kappa must exceed 1")
        if self.n0 < 1 or self.j0 < 1:
            raise ValueError("n0, j0 must be positive integers")
        if self.T <= 0.0:
            raise ValueError("T must be positive")

    @classmethod
    def from_equilibration(cls, r1, r2, **kwargs):
        """Ladder with ``kappa = 2^{1/(2(r2-r1))}`` (error equilibration)."""
        if not r2 > r1:
            raise ValueError("need r2 > r1")
        return cls(kappa=2.0 ** (1.0 / (2.0 * (r2 - r1))), **kwargs)

    def n_modes(self, level):
        if level < 0:
            raise ValueError("level must be >= 0")
        # round half up so ties go to the larger grid
        return int(math.floor(self.n0 * self.kappa ** level + 0.5))

    def level_params(self, level):
        """``(N_l, J_l, h_l, dt_l)`` for one level."""
        n = self.n_modes(level)
        j = self.j0 * 2 ** level
        return n, j, float(n) ** -1.0, self.T / j

