import math

import numpy as np
import pytest

from mlenkf.model import (
    ModelConfig,
    exact_noise_var,
    g_factor,
    propagate_pairs,
    propagator,
    reset_unit_counter,
    substep_noise_var,
    unit_counter,
)
from mlenkf.rng import RngKey
from mlenkf.spectral import LevelHierarchy, eigenvalues
from oracles import coupled_coarse_solve, draw_noise_block, exact_mode_step, expeuler_fine_solve

LAM1 = math.pi ** 2
CFG = ModelConfig(T=0.25, b=0.251, r1=0.0, r2=0.5)
HIER = LevelHierarchy(kappa=2.0, n0=1, j0=1, T=0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(T=0.0, b=0.251, r1=0.0, r2=0.5)
    with pytest.raises(ValueError):
        ModelConfig(T=0.25, b=-0.1, r1=0.0, r2=0.5)
    with pytest.raises(ValueError):
        ModelConfig(T=0.25, b=0.251, r1=0.5, r2=0.5)
    with pytest.raises(ValueError):
        ModelConfig(T=0.25, b=0.251, r1=0.0, r2=0.6)


def test_propagator_value():
    want = math.exp((1.0 - LAM1) * 0.25)
    assert propagator(LAM1, 0.25) == pytest.approx(want, rel=1e-15)
    assert propagator(LAM1, 0.25) == pytest.approx(0.10889174011441433, rel=1e-13)


def test_exact_noise_var_value():
    want = LAM1 ** (-0.502) * (1.0 - math.exp(2.0 * (1.0 - LAM1) * 0.25)) / (2.0 * (LAM1 - 1.0))
    got = exact_noise_var(LAM1, 0.25, 0.251)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.017650089011145165, rel=1e-13)


def test_exact_noise_var_requires_lam_above_one():
    with pytest.raises(ValueError, match="lambda > 1"):
        exact_noise_var(0.5, 0.25, 0.251)


def test_exact_noise_var_stable_near_lam_one():
    # limit (1 - e^{-2 eps T}) / (2 eps) -> T; the expm1 form must not cancel
    assert exact_noise_var(1.0 + 1e-12, 0.25, 0.0) == pytest.approx(0.25, rel=1e-9)


def test_g_factor_value():
    e = math.exp(-LAM1 * 0.25)
    want = e + (1.0 - e) / LAM1
    assert g_factor(LAM1, 0.25) == pytest.approx(want, rel=1e-15)
    assert g_factor(LAM1, 0.25) == pytest.approx(0.17753361592392247, rel=1e-13)


def test_substep_noise_var_value():
    want = (1.0 - math.exp(-2.0 * LAM1 * 0.25)) / (2.0 * LAM1 ** 1.502)
    got = substep_noise_var(LAM1, 0.25, 0.251)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.015936652606442923, rel=1e-13)


def test_coarse_increment_variance_identity():
    # e^{-2 lam dt} v(dt) + v(dt) = v(2 dt) is what makes the combined
    # coarse increment exact in law
    for lam in eigenvalues(16):
        for dt in (0.25, 0.0625, 1e-3):
            v_f = substep_noise_var(lam, dt, 0.251)
            v_c = substep_noise_var(lam, 2.0 * dt, 0.251)
            damp = math.exp(-lam * dt)
            assert (damp ** 2 + 1.0) * v_f == pytest.approx(v_c, rel=1e-13)


def pair_step(coarse, fine, level, key, solver, hier=HIER):
    """propagate_pairs on single columns, returned as 1-D arrays."""
    c, f = propagate_pairs(coarse[:, None], fine[:, None], level, CFG, hier,
                           key.generator(), solver)
    return c[:, 0], f[:, 0]


def test_exact_mode_step_linearity_and_draw_order():
    key = RngKey(42, "forward", 0, 2, 3)
    u = np.array([1.0, -2.0, 0.5, 3.0])
    _, out_u = pair_step(np.zeros(0), u, 2, key, "exact")
    _, out_0 = pair_step(np.zeros(0), np.zeros(4), 2, key, "exact")
    lam = eigenvalues(4)
    a = propagator(lam, CFG.T)
    assert np.allclose(out_u - out_0, a * u, rtol=0, atol=1e-14)
    z = key.generator().standard_normal(4)
    std = np.sqrt(exact_noise_var(lam, CFG.T, CFG.b))
    assert np.array_equal(out_0, std * z)
    assert np.array_equal(out_u, exact_mode_step(u, CFG, key))


def test_exact_mode_step_coarse_shares_draw_prefix():
    key = RngKey(7, "forward", 2, 3, 0)
    fine = np.linspace(1.0, 2.0, 8)
    coarse = fine[:4].copy()
    out_c, out_f = pair_step(coarse, fine, 3, key, "exact")
    assert np.array_equal(out_c, out_f[:4])
    assert np.array_equal(out_c, exact_mode_step(coarse, CFG, key))


def test_draw_noise_block_shape_and_determinism():
    hier = LevelHierarchy(kappa=2.0, n0=2, j0=4, T=0.25)
    key = RngKey(3, "forward", 0, 1, 0)
    blk = draw_noise_block(1, CFG, hier, key)
    assert blk.shape == (8, 4)
    assert np.array_equal(blk, draw_noise_block(1, CFG, hier, key))
    with pytest.raises(ValueError):
        draw_noise_block(-1, CFG, hier, key)


def test_draw_noise_block_variance_within_three_se():
    hier = LevelHierarchy(kappa=2.0, n0=4, j0=8, T=0.25)
    n_blocks = 12500  # 8 rows each -> 1e5 samples per mode
    cols = {1: [], 3: []}
    for i in range(n_blocks):
        blk = draw_noise_block(0, CFG, hier, RngKey(77, "forward", i, 0, 0))
        for j in cols:
            cols[j].append(blk[:, j - 1])
    _, _, _, dt = hier.level_params(0)
    for j, chunks in cols.items():
        samples = np.concatenate(chunks)
        want = substep_noise_var(eigenvalues(4)[j - 1], dt, CFG.b)
        se = want * math.sqrt(2.0 / (samples.size - 1))
        assert abs(samples.var(ddof=1) - want) <= 3.0 * se


def test_expeuler_single_substep_is_g_times_u0():
    # level 0 of HIER has one substep: the noise is additive, so the
    # response to the initial data is g(lambda, T) u0
    key = RngKey(4, "forward", 0, 0, 1)
    u0 = np.array([2.0])
    _, out_u = pair_step(np.zeros(0), u0, 0, key, "expeuler")
    _, out_0 = pair_step(np.zeros(0), np.zeros(1), 0, key, "expeuler")
    want = g_factor(eigenvalues(1), 0.25) * u0
    assert np.allclose(out_u - out_0, want, rtol=1e-15)


def test_expeuler_matches_hand_iteration():
    rng = np.random.default_rng(8)
    key = RngKey(8, "forward", 0, 2, 1)
    u0 = rng.standard_normal(4)
    _, out = pair_step(np.zeros(0), u0, 2, key, "expeuler")
    draws = draw_noise_block(2, CFG, HIER, key)
    lam = eigenvalues(4)
    dt = 0.25 / 4
    e = np.exp(-lam * dt)
    w = (1.0 - e) / lam
    u = u0.copy()
    for k in range(4):
        u = e * u + w * u + draws[k]
    assert np.allclose(out, u, rtol=0, atol=1e-14)


def test_expeuler_zero_in_zero_noise_out():
    out = expeuler_fine_solve(np.zeros(5), CFG, np.zeros((2, 5)))
    assert np.array_equal(out, np.zeros(5))


def test_expeuler_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        propagate_pairs(np.zeros((0, 2)), np.zeros((3, 2)), 2, CFG, HIER, rng, "expeuler")
    with pytest.raises(ValueError):
        propagate_pairs(np.zeros((2, 2)), np.zeros((4, 3)), 2, CFG, HIER, rng, "expeuler")
    with pytest.raises(ValueError):
        expeuler_fine_solve(np.zeros(4), CFG, np.zeros((2, 3)))


def test_coupled_coarse_two_substeps_zero_noise():
    # level 1 of HIER: two fine substeps make one coarse substep of width T
    key = RngKey(9, "forward", 0, 1, 0)
    fine = np.array([1.5, 0.0])
    c_u, _ = pair_step(fine[:1], fine, 1, key, "expeuler")
    c_0, _ = pair_step(np.zeros(1), np.zeros(2), 1, key, "expeuler")
    want = g_factor(LAM1, 0.25) * 1.5
    assert c_u[0] - c_0[0] == pytest.approx(want, rel=1e-14)


def test_coupled_coarse_matches_hand_iteration():
    rng = np.random.default_rng(13)
    key = RngKey(13, "forward", 0, 2, 0)
    coarse = rng.standard_normal(2)
    out, _ = pair_step(coarse, rng.standard_normal(4), 2, key, "expeuler")
    draws = draw_noise_block(2, CFG, HIER, key)
    lam = eigenvalues(2)
    dt_f = 0.25 / 4
    g = g_factor(lam, 2.0 * dt_f)
    damp = np.exp(-lam * dt_f)
    u = coarse.copy()
    for k in range(2):
        u = g * u + damp * draws[2 * k, :2] + draws[2 * k + 1, :2]
    assert np.allclose(out, u, rtol=0, atol=1e-14)


def test_coupled_coarse_never_reads_fine_tail():
    fine = np.zeros(4)
    fine[2:] = np.nan
    out, _ = pair_step(np.zeros(2), fine, 2, RngKey(1, "forward", 0, 2, 0), "expeuler")
    assert np.all(np.isfinite(out))
    draws = np.ones((2, 4))
    draws[:, 2:] = np.nan
    assert np.all(np.isfinite(coupled_coarse_solve(np.zeros(2), CFG, draws)))


def test_coupled_coarse_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        propagate_pairs(np.zeros((1, 2)), np.zeros((1, 2)), 0, CFG, HIER, rng, "expeuler")
    with pytest.raises(ValueError):
        propagate_pairs(np.zeros((2, 2)), np.zeros((2, 2)), 1, CFG, HIER, rng, "expeuler")
    with pytest.raises(ValueError):
        coupled_coarse_solve(np.zeros(1), CFG, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        coupled_coarse_solve(np.zeros(4), CFG, np.zeros((2, 2)))


def test_forward_pair_level_zero_coarse_is_zero_field():
    key = RngKey(1, "forward", 0, 0, 0)
    c, f = propagate_pairs(np.zeros((0, 1)), np.array([[0.3]]), 0, CFG, HIER,
                           key.generator(), "exact")
    assert c.shape == (0, 1) and f.shape == (1, 1)
    with pytest.raises(ValueError):
        propagate_pairs(np.array([[1.0]]), np.array([[0.3]]), 0, CFG, HIER,
                        key.generator(), "exact")


def test_forward_pair_exact_matches_single_mode_steps():
    key = RngKey(21, "forward", 1, 2, 4)
    fine = np.array([1.0, -0.5, 0.25, 0.1])
    coarse = np.array([0.7, 0.2])
    c, f = pair_step(coarse, fine, 2, key, "exact")
    assert np.array_equal(f, exact_mode_step(fine, CFG, key))
    assert np.array_equal(c, exact_mode_step(coarse, CFG, key))


def test_forward_pair_exact_preserves_nesting():
    key = RngKey(5, "forward", 0, 3, 2)
    fine = np.linspace(-1, 1, 8)
    c, f = pair_step(fine[:4].copy(), fine, 3, key, "exact")
    assert np.array_equal(c, f[:4])


def test_forward_pair_expeuler_matches_block_route():
    key = RngKey(31, "forward", 2, 2, 1)
    fine = np.array([0.9, -0.3, 0.2, 0.05])
    coarse = np.array([0.8, -0.25])
    c, f = pair_step(coarse, fine, 2, key, "expeuler")
    blk = draw_noise_block(2, CFG, HIER, key)
    assert np.array_equal(f, expeuler_fine_solve(fine, CFG, blk))
    assert np.array_equal(c, coupled_coarse_solve(coarse, CFG, blk))


def test_propagate_pairs_batch_replays_keyed_draws():
    key = RngKey(12, "forward", 0, 2, 0)
    rng = np.random.default_rng(40)
    fine = rng.standard_normal((4, 3))
    coarse = fine[:2].copy()
    cout, fout = propagate_pairs(coarse, fine, 2, CFG, HIER, key.generator(), "exact")
    lam = eigenvalues(4)
    a = propagator(lam, CFG.T)
    std = np.sqrt(exact_noise_var(lam, CFG.T, CFG.b))
    z = key.generator().standard_normal((4, 3))
    assert np.array_equal(fout, a[:, None] * fine + std[:, None] * z)
    assert np.array_equal(cout, fout[:2])


def test_propagate_pairs_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        propagate_pairs(np.zeros((1, 3)), np.zeros((4, 3)), 2, CFG, HIER, rng, "exact")
    with pytest.raises(ValueError):
        propagate_pairs(np.zeros((2, 3)), np.zeros((5, 3)), 2, CFG, HIER, rng, "exact")
    with pytest.raises(ValueError):
        propagate_pairs(np.zeros((2, 3)), np.zeros((4, 3)), 2, CFG, HIER, rng, "spectral")


def test_pair_difference_shrinks_with_level():
    u0 = np.array([1.0 / (j + 1) ** 1.5 for j in range(16)])
    spread = {}
    for level in (2, 4):
        n = HIER.n_modes(level)
        nc = HIER.n_modes(level - 1)
        fine = np.tile(u0[:n, None], (1, 500))
        coarse = fine[:nc].copy()
        key = RngKey(99, "forward", 0, level, 0)
        cout, fout = propagate_pairs(coarse, fine, level, CFG, HIER, key.generator(), "expeuler")
        diff = fout.copy()
        diff[:nc] -= cout
        spread[level] = np.mean(np.sum(diff ** 2, axis=0))
    assert spread[4] < spread[2]


def test_unit_counter_tracks_mode_substeps():
    rng = np.random.default_rng(0)
    reset_unit_counter()
    propagate_pairs(np.zeros((0, 5)), np.zeros((4, 5)), 2, CFG, HIER, rng, "exact")
    assert unit_counter["forward"] == 5 * 4
    reset_unit_counter()
    propagate_pairs(np.zeros((0, 3)), np.zeros((4, 3)), 2, CFG, HIER, rng, "expeuler")
    assert unit_counter["forward"] == 3 * 4 * 4
    reset_unit_counter()
    propagate_pairs(np.zeros((2, 3)), np.zeros((4, 3)), 2, CFG, HIER, rng, "expeuler")
    assert unit_counter["forward"] == 3 * (4 * 4 + 2 * 2)
    reset_unit_counter()
    propagate_pairs(np.zeros((2, 5)), np.zeros((4, 5)), 2, CFG, HIER, rng, "exact")
    assert unit_counter["forward"] == 5 * 6
    reset_unit_counter()
