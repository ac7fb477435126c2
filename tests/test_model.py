import math

import numpy as np
import pytest

from mlenkf.model import (
    ModelConfig,
    _exact_coefficients,
    _expeuler_coefficients,
    _pair_noise_moments,
    exact_noise_var,
    g_factor,
    propagate_pairs,
    propagator,
    substep_noise_var,
    unit_counter,
)
from mlenkf.rng import RngKey, StreamReader
from mlenkf.spectral import LevelHierarchy, eigenvalues
from oracles import (
    coupled_coarse_solve,
    draw_noise_block,
    exact_mode_step,
    expeuler_fine_solve,
    expeuler_pairs_substeps,
)

LAM1 = math.pi ** 2
CFG = ModelConfig(T=0.25, b=0.251)
HIER = LevelHierarchy(kappa=2.0, n0=1, j0=1, T=0.25)
# J_l = 3 * 2^l: the J_l / 2 coarse substeps are not a power of two
HIER3 = LevelHierarchy(kappa=2.0, n0=1, j0=3, T=0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(T=0.0, b=0.251)
    with pytest.raises(ValueError):
        ModelConfig(T=0.25, b=-0.1)


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
    """propagate_pairs on copies of single columns, returned as 1-D arrays."""
    c, f = propagate_pairs(coarse[:, None].copy(), fine[:, None].copy(), level, CFG, hier,
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


class ImpulseDraws:
    """Generator stand-in for a linear solve run on as many columns as it
    makes draw calls: call c of ``standard_normal`` returns ones in
    column c and zeros elsewhere (zeros everywhere with ``zero=True``).

    Every mode reads only its own row of each call, so column c of the
    output is each mode's response to the draws of call c, and the sum
    of the squared columns is the variance of the output's noise.
    """

    def __init__(self, zero=False):
        self.calls = 0
        self.zero = zero

    def standard_normal(self, shape):
        out = np.zeros(shape)
        if not self.zero:
            out[:, self.calls] = 1.0
        self.calls += 1
        return out


def expeuler_routes(coarse, fine, level, hier, rng):
    """(law, substeps): the joint-law draw on copies and the substep oracle."""
    law = propagate_pairs(coarse.copy(), fine.copy(), level, CFG, hier, rng(), "expeuler")
    return law, expeuler_pairs_substeps(coarse, fine, level, CFG, hier, rng())


def impulse_variances(outputs, nc):
    """Per-mode Var coarse, Var fine and Var (fine - coarse) from the
    impulse responses of one solve."""
    coarse, fine = outputs
    return (coarse ** 2).sum(axis=1), (fine ** 2).sum(axis=1), ((fine[:nc] - coarse) ** 2).sum(axis=1)


def ladder_cases():
    """(hierarchy, level, coarse modes) for levels 0-6 of both ladders,
    with and without coarse rows."""
    for hier in (HIER, HIER3):
        for level in range(7):
            for nc in {0, hier.n_modes(level - 1) if level else 0}:
                yield hier, level, nc


def test_expeuler_matches_hand_iteration():
    # mean response: with zero draws both routes are G^{J/2} coarse and
    # g^J fine
    rng = np.random.default_rng(8)
    for hier, level, nc in ladder_cases():
        n, m = hier.n_modes(level), 3
        coarse, fine = rng.standard_normal((nc, m)), rng.standard_normal((n, m))
        law, loop = expeuler_routes(coarse, fine, level, hier, lambda: ImpulseDraws(zero=True))
        for got, want in zip(law, loop):
            assert np.allclose(got, want, rtol=0, atol=1e-14), (hier.j0, level, nc)


def test_coupled_coarse_matches_hand_iteration():
    # law: the per-mode variances of the one-draw route are the substep
    # oracle's impulse-response sums
    for hier, level, nc in ladder_cases():
        n, j = hier.n_modes(level), hier.level_params(level)[1]
        m = max(j, 2)  # one column per draw call of either route
        law, loop = expeuler_routes(np.zeros((nc, m)), np.zeros((n, m)), level, hier, ImpulseDraws)
        for got, want in zip(impulse_variances(law, nc), impulse_variances(loop, nc)):
            assert np.allclose(got, want, rtol=1e-12, atol=0), (hier.j0, level, nc)


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
    # the substep oracle is the paper's per-member recursion on one noise block
    c, f = expeuler_pairs_substeps(coarse[:, None], fine[:, None], 2, CFG, HIER, key.generator())
    blk = draw_noise_block(2, CFG, HIER, key)
    assert np.array_equal(f[:, 0], expeuler_fine_solve(fine, CFG, blk))
    assert np.array_equal(c[:, 0], coupled_coarse_solve(coarse, CFG, blk))
    # Monte Carlo: 2e5 zero-state pairs of the one-draw route put every
    # mode's variances within 4 SE of the oracle's impulse-response sums
    level, m = 3, 200_000
    n, nc = HIER.n_modes(level), HIER.n_modes(level - 1)
    j = HIER.level_params(level)[1]
    sample = propagate_pairs(np.zeros((nc, m)), np.zeros((n, m)), level, CFG, HIER,
                             RngKey(31, "forward", 0, level, 0).generator(), "expeuler")
    impulses = expeuler_pairs_substeps(np.zeros((nc, j)), np.zeros((n, j)), level, CFG, HIER,
                                       ImpulseDraws())
    for got, want in zip(impulse_variances(sample, nc), impulse_variances(impulses, nc)):
        se = want * math.sqrt(2.0 / m)  # zero-mean samples: Var(x^2) = 2 sigma^4
        assert np.all(np.abs(got / m - want) <= 4.0 * se)


def test_pair_moments_match_long_double_sums_at_level_13():
    # low modes at J = 8192: g is within 3e-4 of 1, where differencing
    # variances, or fine and coarse weights, would cancel
    level = 13
    n, j, _, dt = HIER.level_params(level)
    var_x, cov_xd, var_d = _pair_noise_moments(eigenvalues(n), dt, CFG.b, j)
    lam = eigenvalues(4).astype(np.longdouble)[:, None]
    dt = np.longdouble(dt)
    e1 = -np.expm1(-lam * dt)  # 1 - e^{-lambda dt}
    g = 1 - e1 + e1 / lam
    big_g = (1 - e1) ** 2 + e1 * (2 - e1) / lam
    g2_minus_g = -e1 * e1 * (1 - 1 / lam) / lam
    # the identity resolves g^2 - G where long double subtraction cannot
    assert np.allclose(g * g - big_g, g2_minus_g, rtol=1e-9, atol=0)
    v = e1 * (2 - e1) / (2 * lam ** (1 + 2 * np.longdouble(CFG.b)))
    # weights of R_{2i} and R_{2i+1} with p = J/2 - 1 - i coarse steps
    # left: fine g^{2p+1} and g^{2p}, difference g d_p + (g - e) G^p and
    # d_p = g^{2p} - G^p, built as d_{p+1} = g^2 d_p + (g^2 - G) G^p
    # from terms of one sign
    p = np.arange(j // 2)
    fine_w = g ** (2 * p)
    coarse_w = big_g ** p
    d = np.zeros_like(fine_w)
    for i in range(1, j // 2):
        d[:, i:i + 1] = g * g * d[:, i - 1:i] + g2_minus_g * coarse_w[:, i - 1:i]
    w_fine = np.concatenate((g * fine_w, fine_w), axis=1)
    w_diff = np.concatenate((g * d + e1 / lam * coarse_w, d), axis=1)
    for got, want in ((var_x, w_fine * w_fine), (cov_xd, w_fine * w_diff), (var_d, w_diff * w_diff)):
        want = (v[:, 0] * want.sum(axis=1)).astype(float)
        assert np.allclose(got[:4], want, rtol=1e-12, atol=0)


def test_expeuler_draws_one_normal_per_mode_and_member():
    level, m = 4, 3
    n, nc = HIER.n_modes(level), HIER.n_modes(level - 1)
    for rows in (0, nc):
        rng = RngKey(5, "forward", 0, level, 1).generator()
        propagate_pairs(np.zeros((rows, m)), np.zeros((n, m)), level, CFG, HIER, rng, "expeuler")
        fresh = RngKey(5, "forward", 0, level, 1).generator()
        fresh.standard_normal((n + rows) * m)
        assert rng.standard_normal() == fresh.standard_normal()


def test_propagate_pairs_batch_replays_keyed_draws():
    key = RngKey(12, "forward", 0, 2, 0)
    rng = np.random.default_rng(40)
    fine = rng.standard_normal((4, 3))
    coarse = fine[:2].copy()
    cout, fout = propagate_pairs(coarse, fine.copy(), 2, CFG, HIER, key.generator(), "exact")
    lam = eigenvalues(4)
    a = propagator(lam, CFG.T)
    std = np.sqrt(exact_noise_var(lam, CFG.T, CFG.b))
    z = key.generator().standard_normal((4, 3))
    assert np.array_equal(fout, a[:, None] * fine + std[:, None] * z)
    assert np.array_equal(cout, fout[:2])


@pytest.mark.parametrize("solver", ["exact", "expeuler"])
@pytest.mark.parametrize("level, rows", [(0, 0), (3, 4), (3, 0)],
                         ids=["level0", "pair", "single-level"])
def test_propagate_pairs_advances_its_inputs_in_place(solver, level, rows):
    # the members are scaled and get their noise where they lie, bit for
    # bit the written-out formula on copies of them
    rng = np.random.default_rng(44)
    n, j, _, dt = HIER.level_params(level)
    coarse, fine = rng.standard_normal((rows, 6)), rng.standard_normal((n, 6))
    c0, f0 = coarse.copy(), fine.copy()
    key = RngKey(3, "forward", 0, level, 1)
    outs = propagate_pairs(coarse, fine, level, CFG, HIER, key.generator(), solver)
    assert outs[0] is coarse and outs[1] is fine
    draws = key.generator()
    z = draws.standard_normal((n, 6))
    if solver == "exact":
        a, std, _ = _exact_coefficients(n, CFG.T, CFG.b)
        want_f = a[:, None] * f0 + std[:, None] * z
        want_c = a[:rows, None] * c0 + std[:rows, None] * z[:rows]
    else:
        g_j, std_x, g_c, std_xc, std_d = _expeuler_coefficients(n, rows, j, dt, CFG.b)
        want_f = g_j[:, None] * f0 + std_x[:, None] * z
        want_c = (g_c[:, None] * c0 + std_xc[:, None] * z[:rows]
                  - std_d[:, None] * draws.standard_normal((rows, 6)))
    assert np.array_equal(fine, want_f) and np.array_equal(coarse, want_c)


@pytest.mark.parametrize("solver", ["exact", "expeuler"])
def test_propagate_pairs_advances_column_sliced_members_in_place(solver):
    # a batch reader's (rows, B, M) draw views a column slice's two blocks
    # in place too: the slice steps as a contiguous copy of it would, and
    # the columns beside it are not written
    rng = np.random.default_rng(45)
    n, nc = HIER.n_modes(2), HIER.n_modes(1)
    wide_f, wide_c = rng.standard_normal((n, 8)), rng.standard_normal((nc, 8))
    kept = wide_f.copy(), wide_c.copy()

    def step(c, f):
        length = (n + nc * (solver == "expeuler")) * 2
        reader = StreamReader(3, "forward", (4, 1), length, 1).begin()
        return propagate_pairs(c, f, 2, CFG, HIER, reader, solver)

    want = step(wide_c[:, :4].copy(), wide_f[:, :4].copy())
    got = step(wide_c[:, :4], wide_f[:, :4])
    assert np.shares_memory(got[0], wide_c) and np.shares_memory(got[1], wide_f)
    assert np.array_equal(wide_c[:, :4], want[0]) and np.array_equal(wide_f[:, :4], want[1])
    assert np.array_equal(wide_c[:, 4:], kept[1][:, 4:])
    assert np.array_equal(wide_f[:, 4:], kept[0][:, 4:])


@pytest.mark.parametrize("solver", ["exact", "expeuler"])
def test_propagate_pairs_refuses_members_that_share_memory(solver):
    # a nested pair built as a view of its fine member would be stepped
    # twice in the shared rows; it is refused before anything is written
    fine = np.random.default_rng(46).standard_normal((4, 3))
    kept = fine.copy()
    with pytest.raises(ValueError, match="share memory"):
        propagate_pairs(fine[:2], fine, 2, CFG, HIER, RngKey(3, "forward", 0, 2, 1).generator(),
                        solver)
    assert np.array_equal(fine, kept)


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
    for nc, m, solver, units in ((0, 5, "exact", 5 * 4), (0, 3, "expeuler", 3 * 4 * 4),
                                 (2, 3, "expeuler", 3 * (4 * 4 + 2 * 2)), (2, 5, "exact", 5 * 6)):
        before = unit_counter["forward"]
        propagate_pairs(np.zeros((nc, m)), np.zeros((4, m)), 2, CFG, HIER, rng, solver)
        assert unit_counter["forward"] - before == units


@pytest.mark.parametrize("hier", [HIER, HIER3], ids=["j0=1", "j0=3"])
def test_level_coefficients_are_cached_read_only_formula_values(hier):
    # propagate_pairs reads each level's coefficients from a memo; they
    # must be the direct formulas bit for bit, built once, and read-only
    # because every caller shares them
    for level in (0, 1, 3, 6):
        n, j, _, dt = hier.level_params(level)
        lam = eigenvalues(n)
        exact = _exact_coefficients(n, CFG.T, CFG.b)
        var = exact_noise_var(lam, CFG.T, CFG.b)  # the Kalman prediction reads it too
        want = (propagator(lam, CFG.T), np.sqrt(var), var)
        cases = [(exact, want, _exact_coefficients(n, CFG.T, CFG.b))]
        for nc in {0, hier.n_modes(level - 1) if level else 0}:
            got = _expeuler_coefficients(n, nc, j, dt, CFG.b)
            var_x, cov_xd, var_d = _pair_noise_moments(lam, dt, CFG.b, j)
            std_x = np.sqrt(var_x)
            beta = cov_xd[:nc] / std_x[:nc]
            want = (g_factor(lam, dt) ** j, std_x, g_factor(lam[:nc], 2.0 * dt) ** (j // 2),
                    std_x[:nc] - beta, np.sqrt(var_d[:nc] - beta * beta))
            cases.append((got, want, _expeuler_coefficients(n, nc, j, dt, CFG.b)))
        for got, want, again in cases:
            assert again is got
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (level, n)
                with pytest.raises(ValueError, match="read-only"):
                    g[...] = 0.0
