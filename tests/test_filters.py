import math
import sys
import weakref

import numpy as np
import pytest

from mlenkf import filters
from mlenkf.filters import (
    GaussianState,
    MultilevelEnsemble,
    ObservationModel,
    PairEnsemble,
    compute_R_ml,
    empirical_qoi,
    kalman_predict,
    kalman_step,
    kalman_update,
    ml_gain,
    ml_predict,
    ml_update,
    mlenkf_step,
    positive_part,
    sample_cov_action,
)
from mlenkf.model import ModelConfig, _exact_coefficients, _expeuler_coefficients, unit_counter
from mlenkf.rng import RngKey
from mlenkf.spectral import LevelHierarchy
from mlenkf.verify import _cov_matrix, _dense_r_ml, _kalman_dense_step
from oracles import dense_cov_action, enkf_step

CFG = ModelConfig(T=0.25, b=0.251)
HIER = LevelHierarchy(kappa=2.0, n0=1, j0=1, T=0.25)


def obs_1d(n_ref, gamma=0.25):
    h = np.zeros(n_ref)
    h[0] = 1.0
    return ObservationModel(h[None, :], np.array([[gamma]]), np.ones(n_ref))


def one_level(fine, level, realizations=(0,)):
    """EnKF ensemble: one pair ensemble at ``level`` without coarse partners."""
    return MultilevelEnsemble((PairEnsemble(np.zeros((0, fine.shape[1])), fine, level),),
                              realizations)


def random_multilevel(rng, hier, L, sizes, m=1, realizations=(0,)):
    pairs = []
    for l in range(L + 1):
        n = hier.n_modes(l)
        nc = hier.n_modes(l - 1) if l else 0
        pairs.append(PairEnsemble(rng.standard_normal((nc, sizes[l])),
                                  rng.standard_normal((n, sizes[l])), l))
    return MultilevelEnsemble(tuple(pairs), realizations)


def copied(ml):
    """The ensemble with member arrays of its own: ``ml_update`` writes into
    the members it is given, so a test that reads its input afterwards
    updates a copy."""
    return MultilevelEnsemble(
        tuple(PairEnsemble(pe.coarse.copy(), pe.fine.copy(), pe.level) for pe in ml.levels),
        ml.realizations,
    )


def test_observation_model_validation():
    with pytest.raises(ValueError):
        ObservationModel(np.ones((1, 3)), np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        ObservationModel(np.ones((2, 3)), np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(3))
    with pytest.raises(ValueError):
        ObservationModel(np.ones((1, 3)), np.array([[-0.5]]), np.ones(3))
    with pytest.raises(ValueError):
        ObservationModel(np.ones((1, 3)), np.array([[1.0]]), np.ones(4))
    with pytest.raises(ValueError, match="positive definite"):
        ObservationModel(np.ones((1, 3)), np.array([[0.0]]), np.ones(3))
    obs = ObservationModel(np.ones((1, 3)), np.array([[0.25]]), np.ones(3))
    assert obs.m == 1 and obs.n_ref == 3 and obs.Gamma_factor[0, 0] == 0.5


def test_observe_truncates_columns():
    obs = ObservationModel(np.array([[1.0, 2.0, 3.0]]), np.array([[1.0]]), np.zeros(3))
    assert obs.observe(np.array([1.0, 1.0])) == pytest.approx([3.0])
    v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(obs.observe(v), [[4.0, 5.0]])


def test_ensemble_containers_validate():
    with pytest.raises(ValueError):
        PairEnsemble(np.zeros((0, 1)), np.zeros((3, 1)), 2)
    with pytest.raises(ValueError):
        PairEnsemble(np.zeros((1, 2)), np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        PairEnsemble(np.zeros((1, 2)), np.zeros((2, 3)), 1)
    p0 = PairEnsemble(np.zeros((0, 2)), np.zeros((1, 2)), 0)
    with pytest.raises(ValueError):
        MultilevelEnsemble((p0, PairEnsemble(np.zeros((1, 2)), np.zeros((2, 2)), 2)))
    with pytest.raises(ValueError):
        MultilevelEnsemble((p0, PairEnsemble(np.zeros((2, 2)), np.zeros((2, 2)), 1)))
    ml = MultilevelEnsemble((p0, PairEnsemble(np.zeros((1, 3)), np.zeros((2, 3)), 1)))
    assert ml.levels[-1].level == 1 and tuple(pe.size for pe in ml.levels) == (2, 3)
    # any base level, as long as its members have no coarse partners
    p2 = PairEnsemble(np.zeros((0, 4)), np.zeros((4, 4)), 2)
    ml = MultilevelEnsemble((p2, PairEnsemble(np.zeros((4, 2)), np.zeros((8, 2)), 3)))
    assert ml.levels[-1].level == 3 and tuple(pe.size for pe in ml.levels) == (4, 2)
    with pytest.raises(ValueError):
        MultilevelEnsemble((PairEnsemble(np.zeros((2, 2)), np.zeros((4, 2)), 2),))


def test_sample_cov_action_antithetic_pair():
    v = np.array([1.0, -2.0, 0.5])
    obs = obs_1d(3)
    got = sample_cov_action(np.column_stack([v, -v]), obs)
    want = 2.0 * np.outer(v, obs.observe(v))
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    const = np.column_stack([v, v, v])
    assert np.allclose(sample_cov_action(const, obs), 0.0, atol=1e-15)
    with pytest.raises(ValueError):
        sample_cov_action(v[:, None], obs)


def test_sample_cov_action_matches_dense_route():
    rng = np.random.default_rng(17)
    obs = ObservationModel(rng.standard_normal((2, 6)), np.eye(2), np.zeros(6))
    v = rng.standard_normal((6, 5))
    assert np.allclose(sample_cov_action(v, obs), dense_cov_action(v, obs),
                       rtol=0, atol=1e-12)


def test_sample_cov_action_is_unbiased():
    rng = np.random.default_rng(23)
    n, m_size, trials = 4, 5, 10000
    sig = np.array([1.0, 0.5, 0.25, 0.125])
    mu = np.array([0.3, -0.1, 0.2, 0.0])
    obs = ObservationModel(rng.standard_normal((2, n)), np.eye(2), np.zeros(n))
    z = rng.standard_normal((trials, n, m_size))
    members = mu[None, :, None] + sig[None, :, None] * z
    x = (members - members.mean(axis=2, keepdims=True)) / math.sqrt(m_size - 1)
    hx = np.einsum("kn,tnm->tkm", obs.H, x)
    r_hat = np.einsum("tnm,tkm->tnk", x, hx).mean(axis=0)
    want = np.diag(sig ** 2) @ obs.H.T
    assert np.allclose(r_hat, want, atol=6.0 / math.sqrt(trials))


def test_compute_r_ml_single_level_degenerates():
    # sample_cov_action is the one-level engine moment, counted once: m N M units
    rng = np.random.default_rng(3)
    obs = ObservationModel(rng.standard_normal((2, 8)), np.eye(2), np.zeros(8))
    for level, n in ((0, 4), (2, 8)):
        fine = rng.standard_normal((n, 6))
        want = compute_R_ml(one_level(fine, level), obs)[0]
        before = unit_counter["moments"]
        assert np.array_equal(sample_cov_action(fine, obs), want)
        assert unit_counter["moments"] - before == 2 * n * 6


def test_compute_r_ml_matches_dense_telescoping():
    rng = np.random.default_rng(29)
    hier = LevelHierarchy(kappa=2.0, n0=2)
    obs = ObservationModel(rng.standard_normal((2, 16)), np.eye(2), np.zeros(16))
    ml = random_multilevel(rng, hier, L=2, sizes=(7, 4, 3), m=2)
    assert np.allclose(compute_R_ml(ml, obs), _dense_r_ml(ml, obs), rtol=0, atol=1e-12)


def test_compute_r_ml_constant_ensembles_vanish():
    obs = obs_1d(4)
    p0 = PairEnsemble(np.zeros((0, 3)), np.ones((2, 3)), 0)
    p1 = PairEnsemble(np.ones((2, 2)) * 0.5, np.ones((4, 2)) * 2.0, 1)
    ml = MultilevelEnsemble((p0, p1))
    assert np.allclose(compute_R_ml(ml, obs), 0.0, atol=1e-15)


def test_positive_part_examples():
    got = positive_part(np.diag([1.0, -2.0]))
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-14)
    rng = np.random.default_rng(31)
    b = rng.standard_normal((3, 3))
    psd = b @ b.T
    assert np.allclose(positive_part(psd), psd, atol=1e-12)
    q = rng.standard_normal(3)
    assert np.allclose(positive_part(-np.outer(q, q)), 0.0, atol=1e-12)


def test_positive_part_symmetrizes_first():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    want = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(positive_part(a), want, atol=1e-14)


def test_positive_part_output_is_psd():
    rng = np.random.default_rng(37)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        w = np.linalg.eigvalsh(positive_part(a))
        assert w.min() >= -1e-12


def test_positive_part_rejects_non_finite():
    with pytest.raises(ValueError):
        positive_part(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        positive_part(np.array([[np.inf]]))


def test_ml_gain_zero_covariance():
    obs = obs_1d(3, gamma=0.7)
    assert np.array_equal(ml_gain(np.zeros((3, 1)), obs), np.zeros((3, 1)))


def test_ml_gain_scalar_formula():
    obs = obs_1d(1, gamma=0.2)
    # S = 0.3 + 0.2 = 0.5, K = 0.3 / 0.5
    k = ml_gain(np.array([[0.3]]), obs)
    assert k[0, 0] == pytest.approx(0.6)


def test_ml_gain_clips_negative_eigendirection():
    # R = q1 q1^T - a q2 q2^T with H = I: the negative direction is
    # dropped from S but kept in R, so K maps q2 to -(a/gamma) q2
    q1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    q2 = np.array([1.0, -1.0]) / math.sqrt(2.0)
    a, gamma = 0.5, 0.2
    r = np.outer(q1, q1) - a * np.outer(q2, q2)
    obs = ObservationModel(np.eye(2), gamma * np.eye(2), np.zeros(2))
    k = ml_gain(r, obs)
    assert np.allclose(k @ q1, q1 / (1.0 + gamma), atol=1e-12)
    assert np.allclose(k @ q2, -(a / gamma) * q2, atol=1e-12)


def test_ml_gain_failure_modes(monkeypatch):
    # a diverged action is no error: its gain is NaN
    k = ml_gain(np.array([[np.nan], [0.0]]), obs_1d(2))
    assert k.shape == (2, 1) and np.all(np.isnan(k))
    # an S that is not positive definite is: a positive part of -1 (m = 1)
    # puts S = -1 + Gamma = -3/4 below zero
    monkeypatch.setattr(filters, "positive_part", lambda a: -np.ones_like(a))
    with pytest.raises(FloatingPointError, match="not positive definite"):
        ml_gain(np.zeros((2, 1)), obs_1d(2))


def test_ensemble_blocks_split_every_level():
    p0 = PairEnsemble(np.zeros((0, 6)), np.zeros((1, 6)), 0)
    assert MultilevelEnsemble((p0,), [4, 0, 9]).realizations == (4, 0, 9)
    assert MultilevelEnsemble((p0,)).realizations == (0,)
    for realizations in ((), range(4), range(6)):  # none, uneven, one particle each
        with pytest.raises(ValueError, match="block"):
            MultilevelEnsemble((p0,), realizations)
    ml = MultilevelEnsemble((p0,), (0, 1))
    with pytest.raises(ValueError, match="2 blocks need as many gains"):
        ml_update(ml, np.zeros((1, 1, 1)), np.zeros(1), obs_1d(1), 1, 0)


def test_ml_gain_stack_matches_each_block_and_isolates_a_diverged_one():
    rng = np.random.default_rng(61)
    g = rng.standard_normal((3, 3))
    obs = ObservationModel(rng.standard_normal((3, 7)), g @ g.T + 0.1 * np.eye(3), np.zeros(7))
    r = rng.standard_normal((4, 7, 3))
    r[1, 2, 0] = np.inf
    # block 1 of the second input is finite, but its HR overflows
    sums = ObservationModel(np.ones((1, 4)), np.eye(1), np.zeros(4))
    huge = rng.standard_normal((3, 4, 1))
    huge[1] = 1e308
    for stack, model in ((r, obs), (huge, sums)):
        k = ml_gain(stack, model)
        assert k.shape == stack.shape and np.all(np.isnan(k[1]))
        assert np.all(np.isnan(ml_gain(stack[1], model)))
        for i in range(stack.shape[0]):
            if i != 1:
                assert np.array_equal(k[i], ml_gain(stack[i], model))
    # every block diverged: every gain is NaN, and nothing raises
    assert np.all(np.isnan(ml_gain(np.full((2, 7, 3), np.nan), obs)))


def test_ml_update_zero_gain_is_identity():
    rng = np.random.default_rng(41)
    ml = random_multilevel(rng, HIER, L=1, sizes=(4, 3))
    obs = obs_1d(2)
    given = copied(ml)
    out = ml_update(given, np.zeros((1, 2, 1)), np.array([0.4]), obs, seed=1, step=0)
    for l in range(2):
        assert np.array_equal(out.levels[l].fine, ml.levels[l].fine)
        assert np.array_equal(out.levels[l].coarse, ml.levels[l].coarse)
    # the update is written into the members it was given
    members = [(pe.fine, up.fine) for pe, up in zip(given.levels, out.levels)]
    members.append((given.levels[1].coarse, out.levels[1].coarse))
    assert all(np.shares_memory(a, b) for a, b in members)


def test_ml_update_unit_gain_pins_members_to_datum():
    rng = np.random.default_rng(43)
    fine = rng.standard_normal((2, 5))
    ml = MultilevelEnsemble((PairEnsemble(np.zeros((0, 5)), fine, 0),))
    obs = ObservationModel(np.eye(2), 1e-30 * np.eye(2), np.zeros(2))
    y = np.array([0.7, -0.2])
    out = ml_update(ml, np.eye(2)[None], y, obs, seed=2, step=0)
    assert np.allclose(out.levels[0].fine, y[:, None], atol=1e-12)


def test_ml_update_pair_coherence_under_coarse_supported_h():
    # H blind to the fine-only modes: the updated coarse member equals
    # the truncation of the updated fine member when the pair is nested
    rng = np.random.default_rng(47)
    fine = rng.standard_normal((4, 3))
    ml = MultilevelEnsemble((
        PairEnsemble(np.zeros((0, 3)), rng.standard_normal((2, 3)), 0),
        PairEnsemble(fine[:2].copy(), fine, 1),
    ), (1,))
    h = np.array([[0.3, -1.1, 0.0, 0.0]])
    obs = ObservationModel(h, np.array([[0.5]]), np.zeros(4))
    k = ml_gain(compute_R_ml(ml, obs), obs)
    out = ml_update(ml, k, np.array([0.1]), obs, seed=3, step=2)
    assert np.allclose(out.levels[1].coarse, out.levels[1].fine[:2], atol=1e-13)


def test_ml_update_pair_residual_identity_general_h():
    rng = np.random.default_rng(53)
    coarse = rng.standard_normal((2, 3))
    fine = rng.standard_normal((4, 3))
    ml = MultilevelEnsemble((
        PairEnsemble(np.zeros((0, 3)), rng.standard_normal((2, 3)), 0),
        PairEnsemble(coarse, fine, 1),
    ))
    obs = ObservationModel(rng.standard_normal((1, 4)), np.array([[0.5]]), np.zeros(4))
    k = ml_gain(compute_R_ml(ml, obs), obs)
    out = ml_update(copied(ml), k, np.array([-0.3]), obs, seed=4, step=1)
    got = out.levels[1].coarse - out.levels[1].fine[:2]
    want = (coarse - fine[:2]) + k[0, :2] @ (obs.observe(fine) - obs.observe(coarse))
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_ml_update_shares_perturbation_within_pair():
    # identical coarse and fine members with a full-width H stay identical
    # only if the pair sees one perturbed datum; distinct draws would split it
    rng = np.random.default_rng(59)
    fine = rng.standard_normal((2, 4))
    ml = MultilevelEnsemble((
        PairEnsemble(np.zeros((0, 4)), rng.standard_normal((1, 4)), 0),
        PairEnsemble(fine[:1].copy(), fine, 1),
    ))
    h = np.array([[1.0, 0.0]])
    obs = ObservationModel(h, np.array([[0.25]]), np.zeros(2))
    k = ml_gain(compute_R_ml(ml, obs), obs)
    out = ml_update(ml, k, np.array([0.2]), obs, seed=5, step=0)
    assert np.allclose(out.levels[1].coarse, out.levels[1].fine[:1], atol=1e-13)


def test_zero_gain_update_then_predict_is_open_loop():
    rng = np.random.default_rng(61)
    ml = random_multilevel(rng, HIER, L=2, sizes=(5, 3, 2))
    obs = obs_1d(4)
    upd = ml_update(copied(ml), np.zeros((1, 4, 1)), np.array([1.0]), obs, seed=6, step=0)
    a = ml_predict(upd, CFG, HIER, seed=6, step=0, solver="exact")
    b = ml_predict(ml, CFG, HIER, seed=6, step=0, solver="exact")
    for l in range(3):
        assert np.array_equal(a.levels[l].fine, b.levels[l].fine)
        assert np.array_equal(a.levels[l].coarse, b.levels[l].coarse)


def test_ml_predict_keeps_nested_pairs_nested():
    rng = np.random.default_rng(67)
    fine1 = rng.standard_normal((2, 4))
    ml = MultilevelEnsemble((
        PairEnsemble(np.zeros((0, 4)), rng.standard_normal((1, 4)), 0),
        PairEnsemble(fine1[:1].copy(), fine1, 1),
    ))
    out = ml_predict(ml, CFG, HIER, seed=7, step=3, solver="exact")
    assert np.array_equal(out.levels[1].coarse, out.levels[1].fine[:1])


def test_enkf_two_member_hand_oracle():
    seed, realization, step = 11, 2, 4
    pred = one_level(np.array([[1.0, 3.0], [2.0, 0.0]]), 1, (realization,))
    obs = obs_1d(2, gamma=0.5)
    r = compute_R_ml(pred, obs)
    assert np.allclose(r, [[[2.0], [-2.0]]], atol=1e-14)
    # S = 2.0 + 0.5 = 2.5, K = R / S
    k = ml_gain(r, obs)
    assert np.allclose(k, [[[0.8], [-0.8]]], atol=1e-14)
    y = np.array([0.6])
    out = ml_update(copied(pred), k, y, obs, seed, step)
    # the step's perturbation stream has level slot 0 whatever the
    # ensemble's level; its one level reads the first block
    eta = math.sqrt(0.5) * RngKey(seed, "obs-perturbation", realization, 0, step)\
        .generator().standard_normal((1, 2))
    want = np.empty((2, 2))
    for i in range(2):
        v = pred.levels[0].fine[:, i]
        want[:, i] = v + k[0, :, 0] * (y[0] + eta[0, i] - v[0])
    assert np.allclose(out.levels[0].fine, want, rtol=0, atol=1e-14)
    assert out.levels[-1].level == 1 and out.levels[0].coarse.shape == (0, 2)


def test_gain_norm_bounded_by_noise_floor():
    rng = np.random.default_rng(71)
    obs = ObservationModel(rng.standard_normal((2, 6)), 1e6 * np.eye(2), np.zeros(6))
    e = one_level(rng.standard_normal((6, 8)), 0)
    r = compute_R_ml(e, obs)
    k = ml_gain(r, obs)
    bound = np.linalg.norm(r[0], 2) / 1e6
    assert np.linalg.norm(k[0], 2) <= bound * (1 + 1e-12)
    out = ml_update(copied(e), k, np.array([0.5, -0.5]), obs, seed=8, step=0)
    # K eta has size ~ |R| / sqrt(Gamma), tiny against the members
    assert np.max(np.abs(out.levels[0].fine - e.levels[0].fine)) <= 1e-2


def test_step_drivers_reject_wide_observation():
    obs = ObservationModel(np.eye(2), 0.1 * np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="outside the regime"):
        mlenkf_step(one_level(np.zeros((2, 3)), 1), np.zeros(2), obs, CFG, HIER, 0, 0, "exact")
    ml = MultilevelEnsemble((
        PairEnsemble(np.zeros((0, 3)), np.zeros((1, 3)), 0),
        PairEnsemble(np.zeros((1, 3)), np.zeros((2, 3)), 1),
    ))
    with pytest.raises(ValueError, match="outside the regime"):
        mlenkf_step(ml, np.zeros(2), obs, CFG, HIER, 0, 0, "exact")


def test_empirical_qoi_single_level():
    e = one_level(np.array([[1.0, 3.0], [2.0, 4.0]]), 1)
    obs = ObservationModel(np.ones((1, 2)), np.eye(1), np.array([1.0, -1.0]))
    assert empirical_qoi(e, obs) == pytest.approx(((1 - 2) + (3 - 4)) / 2.0)


def test_empirical_qoi_telescopes_by_hand():
    f0 = np.array([[1.0, 2.0]])
    f1 = np.array([[3.0, 5.0], [1.0, -1.0]])
    ml = MultilevelEnsemble((
        PairEnsemble(np.zeros((0, 2)), f0, 0),
        PairEnsemble(f1[:1].copy(), f1, 1),
    ))
    obs = ObservationModel(np.ones((1, 2)), np.eye(1), np.array([1.0, 0.5]))
    want = (1.0 + 2.0) / 2 + ((3.0 + 0.5) + (5.0 - 0.5)) / 2 - (3.0 + 5.0) / 2
    assert empirical_qoi(ml, obs) == pytest.approx(want, rel=1e-14)


def three_direction_problem(seed):
    # m = 3 observed directions on a 3-level ensemble: both examples have
    # m = 1, so no study runs the kernels over more than one direction
    rng = np.random.default_rng(seed)
    hier = LevelHierarchy(kappa=2.0, n0=4)
    b = rng.standard_normal((3, 3))
    obs = ObservationModel(rng.standard_normal((3, 16)), b @ b.T + 0.1 * np.eye(3),
                           rng.standard_normal(16))
    return obs, random_multilevel(rng, hier, L=2, sizes=(9, 6, 4), m=3)


def test_compute_r_ml_three_directions_matches_dense():
    obs, ml = three_direction_problem(89)
    assert np.allclose(compute_R_ml(ml, obs), _dense_r_ml(ml, obs), rtol=0, atol=1e-12)


def test_ml_update_three_directions_matches_matmul_formula():
    obs, ml = three_direction_problem(97)
    k = ml_gain(compute_R_ml(ml, obs), obs)
    y = np.array([0.3, -0.8, 1.1])
    seed, realization, step = 12, 1, 3
    out = ml_update(MultilevelEnsemble(copied(ml).levels, (realization,)), k, y, obs, seed, step)
    chol = np.linalg.cholesky(obs.Gamma)
    # the levels read consecutive blocks of the step's one stream
    rng = RngKey(seed, "obs-perturbation", realization, 0, step).generator()
    for pe, got in zip(ml.levels, out.levels):
        z = rng.standard_normal((3, pe.size))
        ytilde = y[:, None] + chol @ z
        for v, v_new in ((pe.fine, got.fine), (pe.coarse, got.coarse)):
            n = v.shape[0]
            want = v + k[0, :n] @ (ytilde - obs.H[:, :n] @ v)
            assert np.allclose(v_new, want, rtol=0, atol=1e-13)


def test_empirical_qoi_three_directions_matches_matmul_formula():
    obs, ml = three_direction_problem(101)
    q = obs.qoi
    want = sum(np.mean(q[: pe.fine.shape[0]] @ pe.fine)
               - np.mean(q[: pe.coarse.shape[0]] @ pe.coarse) for pe in ml.levels)
    assert empirical_qoi(ml, obs) == pytest.approx(want, rel=0, abs=1e-14)


def hand_step(ml, y, obs, seed, realization, step, solver):
    """An MLEnKF step assembled by hand from the documented stream layout:
    one forward draw split into the levels' blocks in level order (N_l M_l
    normals, then N_{l-1} M_l more for the expeuler pair difference), and
    one perturbation draw split into m M_l blocks."""
    sizes = [(pe.fine.shape[0], pe.coarse.shape[0], pe.size) for pe in ml.levels]
    per_level = [(n + (nc if solver == "expeuler" else 0)) * m for n, nc, m in sizes]
    flat = RngKey(seed, "forward", realization, 0, step).generator()\
        .standard_normal(sum(per_level))
    blocks = np.split(flat, np.cumsum(per_level)[:-1])
    pred = []
    for pe, block in zip(ml.levels, blocks):
        n, j, _, dt = HIER.level_params(pe.level)
        nc, m = pe.coarse.shape
        z = block[: n * m].reshape(n, m)
        if solver == "exact":
            a, std, _ = _exact_coefficients(n, CFG.T, CFG.b)
            fine = a[:, None] * pe.fine + std[:, None] * z
            coarse = a[:nc, None] * pe.coarse + std[:nc, None] * z[:nc]
        else:
            g_j, std_x, g_c, std_xc, std_d = _expeuler_coefficients(n, nc, j, dt, CFG.b)
            fine = g_j[:, None] * pe.fine + std_x[:, None] * z
            coarse = (g_c[:, None] * pe.coarse + std_xc[:, None] * z[:nc]
                      - std_d[:, None] * block[n * m:].reshape(nc, m))
        pred.append(PairEnsemble(coarse, fine, pe.level))
    pred = MultilevelEnsemble(tuple(pred))
    (k,) = ml_gain(compute_R_ml(pred, obs), obs)
    per_level = [obs.m * m for _, _, m in sizes]
    flat = RngKey(seed, "obs-perturbation", realization, 0, step).generator()\
        .standard_normal(sum(per_level))
    chol = np.linalg.cholesky(obs.Gamma)
    out = []
    for pe, block in zip(pred.levels, np.split(flat, np.cumsum(per_level)[:-1])):
        ytilde = y[:, None] + chol @ block.reshape(obs.m, pe.size)
        fine, coarse = (v + k[: v.shape[0]] @ (ytilde - obs.H[:, : v.shape[0]] @ v)
                        for v in (pe.fine, pe.coarse))
        out.append(PairEnsemble(coarse, fine, pe.level))
    return pred, MultilevelEnsemble(tuple(out))


@pytest.mark.parametrize("solver", ["exact", "expeuler"])
@pytest.mark.parametrize("L", [2, 3])
def test_mlenkf_step_reads_one_stream_per_purpose_in_level_blocks(solver, L, monkeypatch):
    rng = np.random.default_rng(107 + L)
    b = rng.standard_normal((2, 2))
    obs = ObservationModel(rng.standard_normal((2, 8)), b @ b.T + 0.1 * np.eye(2),
                           np.zeros(8))
    seed, realization, step = 23, 4, 2
    ml = random_multilevel(rng, HIER, L, (9, 6, 4, 3)[: L + 1], realizations=(realization,))
    y = rng.standard_normal(2)
    opened = []
    generator = RngKey.generator

    def counted(key):
        opened.append(key)
        return generator(key)

    monkeypatch.setattr(RngKey, "generator", counted)
    got = mlenkf_step(ml, y, obs, CFG, HIER, seed, step, solver)
    assert opened == [RngKey(seed, "forward", realization, 0, step),
                      RngKey(seed, "obs-perturbation", realization, 0, step)]
    monkeypatch.undo()
    pred, want = hand_step(ml, y, obs, seed, realization, step, solver)
    engine_pred = ml_predict(ml, CFG, HIER, seed, step, solver)
    for pe, hand, upd, ref in zip(engine_pred.levels, pred.levels, got.levels, want.levels):
        assert np.array_equal(pe.fine, hand.fine) and np.array_equal(pe.coarse, hand.coarse)
        tol = 1e-13 * max(1.0, np.max(np.abs(ref.fine)))
        for v, w in ((upd.fine, ref.fine), (upd.coarse, ref.coarse)):
            assert np.allclose(v, w, rtol=0, atol=tol)
    # a two-block batch opens each purpose's keys in block order
    batch = random_multilevel(rng, HIER, L, (12, 8, 6, 4)[: L + 1], realizations=(5, 3))
    opened.clear()
    monkeypatch.setattr(RngKey, "generator", counted)
    mlenkf_step(batch, y, obs, CFG, HIER, seed, step, solver)
    assert opened == [RngKey(seed, purpose, r, 0, step)
                      for purpose in ("forward", "obs-perturbation") for r in (5, 3)]


@pytest.mark.parametrize("solver", ["exact", "expeuler"])
@pytest.mark.parametrize("L", [2, None], ids=["mlenkf", "enkf"])
def test_mlenkf_step_leaves_the_callers_batch_untouched(solver, L):
    rng = np.random.default_rng(47)
    if L is None:
        ml = one_level(rng.standard_normal((HIER.n_modes(2), 8)), 2)
    else:
        ml = random_multilevel(rng, HIER, L, (8, 6, 4))
    ml = MultilevelEnsemble(ml.levels, (3, 5))
    inputs = [a for pe in ml.levels for a in (pe.coarse, pe.fine)]
    kept = [a.copy() for a in inputs]
    out = mlenkf_step(ml, np.array([0.3]), obs_1d(4), CFG, HIER, 11, 1, solver)
    outputs = [a for pe in out.levels for a in (pe.coarse, pe.fine)]
    assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))
    for i, a in enumerate(outputs):
        assert not any(np.shares_memory(a, b) for b in inputs + outputs[i + 1:])


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before CPython 3.11 the caller's value stack holds every argument "
           "until the call returns, so a handed-over input lives through the step",
)
def test_mlenkf_step_frees_an_input_it_was_handed_before_the_update(monkeypatch):
    # a caller that passes its last reference gets the input's memory back
    # for the update's temporaries; one that keeps a reference keeps it
    rng = np.random.default_rng(29)
    held = [random_multilevel(rng, HIER, 2, (8, 6, 4))]
    kept = held[0]
    refs = [weakref.ref(pe.fine) for pe in held[0].levels]
    alive = []
    update = filters.ml_update

    def spy(*args, **kwargs):
        alive.append(any(r() is not None for r in refs))
        return update(*args, **kwargs)

    monkeypatch.setattr(filters, "ml_update", spy)
    y, obs = np.array([0.3]), obs_1d(4)
    # plain positional calls: a star-args call would hold the input in its tuple
    mlenkf_step(held[0], y, obs, CFG, HIER, 11, 1, "exact")
    del kept
    mlenkf_step(held.pop(), y, obs, CFG, HIER, 11, 1, "exact")
    assert alive == [True, False]


@pytest.mark.parametrize("solver", ["exact", "expeuler"])
def test_one_level_engine_at_level_l_matches_reference_enkf(solver):
    # the EnKF is the ensemble engine with one level: at level 3, over 5
    # steps, it must reproduce the reference EnKF, whose update is the
    # matmul formula; the engine's einsum kernels sum in another order,
    # so the two agree to rounding, not bit for bit
    rng = np.random.default_rng(83)
    level, m_size = 3, 7
    n = HIER.n_modes(level)
    obs = ObservationModel(rng.standard_normal((2, n)), np.array([[0.4, 0.1], [0.1, 0.3]]),
                           np.zeros(n))
    v = np.tile(rng.standard_normal(n)[:, None], (1, m_size))
    ml = one_level(v, level, (2,))
    for step in range(1, 6):
        y = rng.standard_normal(2)
        ml = mlenkf_step(ml, y, obs, CFG, HIER, 19, step, solver)
        v = enkf_step(v, level, y, obs, CFG, HIER, 19, 2, step, solver)
        assert ml.levels[-1].level == level and ml.levels[0].coarse.shape == (0, m_size)
        gap = np.max(np.abs(ml.levels[0].fine - v))
        assert gap <= 1e-13 * np.max(np.abs(v))


def test_kalman_scalar_toy():
    state = GaussianState(np.array([0.0]), np.array([1.0]), np.zeros((1, 0)))
    obs = ObservationModel(np.array([[1.0]]), np.array([[1.0]]), np.ones(1))
    out = kalman_update(state, np.array([1.0]), obs)
    assert out.mean[0] == pytest.approx(0.5, rel=1e-14)
    assert _cov_matrix(out)[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert out.factors.shape[1] == 1


def test_kalman_zero_innovation_keeps_mean():
    rng = np.random.default_rng(73)
    state = GaussianState(rng.standard_normal(4), np.abs(rng.standard_normal(4)) + 0.1,
                          np.zeros((4, 0)))
    obs = ObservationModel(rng.standard_normal((1, 4)), np.array([[0.3]]), np.zeros(4))
    y = obs.observe(state.mean)
    out = kalman_update(state, y, obs)
    assert np.allclose(out.mean, state.mean, atol=1e-14)
    assert _cov_matrix(out)[0, 0] < _cov_matrix(state)[0, 0] + 1e-15


def test_kalman_lowrank_matches_dense():
    rng = np.random.default_rng(79)
    n = 16
    u0 = 1.0 / np.arange(1, n + 1) ** 1.5
    obs = ObservationModel(rng.standard_normal((2, n)), 0.3 * np.eye(2), np.zeros(n))
    state = GaussianState.deterministic(u0)
    mean, cov = u0.copy(), np.zeros((n, n))
    for step in range(4):
        y = rng.standard_normal(2)
        state = kalman_step(state, y, obs, CFG)
        mean, cov = _kalman_dense_step(mean, cov, y, obs, CFG)
        assert np.allclose(state.mean, mean, rtol=0, atol=1e-11)
        assert np.allclose(_cov_matrix(state), cov, rtol=0, atol=1e-11)
    assert state.factors.shape[1] == 4 * 2
    assert np.linalg.eigvalsh(_cov_matrix(state)).min() >= -1e-10


def test_kalman_predict_is_mode_diagonal_affine():
    state = GaussianState(np.array([1.0, -1.0]), np.array([0.5, 0.25]), np.zeros((2, 0)))
    out = kalman_predict(state, CFG)
    from mlenkf.model import exact_noise_var, propagator
    from mlenkf.spectral import eigenvalues
    # bit for bit: the prediction reads the exact-flow memo, whose entries
    # are these formulas
    lam = eigenvalues(2)
    a = propagator(lam, CFG.T)
    assert np.array_equal(out.mean, a * state.mean)
    assert np.array_equal(out.cov_diag,
                          a * a * state.cov_diag + exact_noise_var(lam, CFG.T, CFG.b))
