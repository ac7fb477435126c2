import math

import numpy as np
import pytest

from mlenkf.spectral import LevelHierarchy, eigenvalues


def test_eigenvalue_closed_form():
    lam = eigenvalues(8)
    assert lam[0] == pytest.approx(math.pi ** 2, rel=1e-15)
    assert lam[1] == pytest.approx(4.0 * math.pi ** 2, rel=1e-15)
    assert lam[2] > lam[1]
    assert np.allclose(lam, [(math.pi * j) ** 2 for j in range(1, 9)])
    assert eigenvalues(0).size == 0


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
