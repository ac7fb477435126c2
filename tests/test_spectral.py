import math

import numpy as np
import pytest

from mlenkf.spectral import (
    LevelHierarchy,
    SpectralField,
    eigenvalues,
    fractional_norm,
    project,
    zero_field,
)


def test_eigenvalue_closed_form():
    lam = eigenvalues(8)
    assert lam[0] == pytest.approx(math.pi ** 2, rel=1e-15)
    assert lam[1] == pytest.approx(4.0 * math.pi ** 2, rel=1e-15)
    assert lam[2] > lam[1]
    assert np.allclose(lam, [(math.pi * j) ** 2 for j in range(1, 9)])
    assert eigenvalues(0).size == 0


def test_fractional_norm_examples():
    phi1 = SpectralField(np.array([1.0]), 0)
    assert fractional_norm(phi1, 0.5) == pytest.approx(math.pi, rel=1e-15)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(12)
    assert fractional_norm(u, 0.0) == pytest.approx(np.linalg.norm(u), rel=1e-14)
    assert fractional_norm(zero_field(), 1.3) == 0.0
    assert fractional_norm(np.zeros(6), -0.7) == 0.0


def test_project_truncates_and_pads():
    hier = LevelHierarchy(kappa=2.0, n0=2)
    u = SpectralField(np.array([1.0, 2.0, 3.0, 4.0]), 1)
    down = project(u, 0, hier)
    assert down.level == 0
    assert np.array_equal(down.coeffs, [1.0, 2.0])
    again = project(down, 0, hier)
    assert np.array_equal(again.coeffs, down.coeffs)
    up = project(u, 2, hier)
    assert np.array_equal(up.coeffs, [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    assert project(u, -1, hier).coeffs.size == 0


def test_project_is_orthogonal_in_every_norm():
    hier = LevelHierarchy(kappa=2.0, n0=2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = SpectralField(rng.standard_normal(16), 3)
        level = int(rng.integers(0, 3))
        r = float(rng.uniform(-1.0, 1.0))
        pu = project(u, level, hier)
        tail = u.coeffs.copy()
        tail[: hier.n_modes(level)] = 0.0
        assert fractional_norm(pu, r) <= fractional_norm(u, r) * (1 + 1e-12)
        assert fractional_norm(u, r) ** 2 == pytest.approx(
            fractional_norm(pu, r) ** 2 + fractional_norm(tail, r) ** 2, rel=1e-10
        )


def test_level_params_arithmetic():
    hier = LevelHierarchy(kappa=2.0, n0=1, j0=1, T=0.25)
    assert hier.level_params(3) == (8, 8, 0.125, 0.25 / 8)
    assert hier.level_params(0) == (1, 1, 1.0, 0.25)
    for level in range(6):
        n, j, h, dt = hier.level_params(level)
        assert hier.n_modes(level + 1) == 2 * n
        assert h == 1.0 / n  # d = 1
        assert dt == pytest.approx(0.25 / j, rel=1e-15)
    with pytest.raises(ValueError):
        hier.level_params(-1)


def test_non_integer_kappa_rounds_ties_up():
    hier = LevelHierarchy(kappa=1.5, n0=2)
    # 2 * 1.5^2 = 4.5 sits on a tie and must go up
    assert [hier.n_modes(l) for l in range(4)] == [2, 3, 5, 7]


def test_equilibration_constructor():
    assert LevelHierarchy.from_equilibration(0.0, 0.5).kappa == pytest.approx(2.0)
    assert LevelHierarchy.from_equilibration(0.0, 0.25).kappa == pytest.approx(4.0)
    with pytest.raises(ValueError):
        LevelHierarchy.from_equilibration(0.5, 0.5)


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        LevelHierarchy(kappa=1.0)
    with pytest.raises(ValueError):
        LevelHierarchy(kappa=2.0, n0=0)
    with pytest.raises(ValueError):
        LevelHierarchy(kappa=2.0, T=0.0)


def test_field_level_validation():
    with pytest.raises(ValueError):
        SpectralField(np.zeros(3), -2)
    with pytest.raises(ValueError):
        SpectralField(np.zeros(3), -1)
    assert zero_field().level == -1
