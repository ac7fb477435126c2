"""Self-checks behind the ``verify`` subcommand.

Each check exercises one of the library's structural properties at
small scale and returns a pass/fail line.  Statistical gates use three
or four standard errors, so a fresh seed is expected to pass; checks
call through the module namespaces on purpose, so fault injection in
tests (e.g. corrupting the positive part) is visible here.
"""

from __future__ import annotations

import numpy as np

from . import experiment, filters, model
from .rng import RngKey
from .spectral import LevelHierarchy, eigenvalues

__all__ = ["run_all", "CHECKS"]

_MODEL = model.ModelConfig(T=0.25, b=0.251)
_LADDER_BY_N0 = {n0: LevelHierarchy(kappa=2.0, n0=n0, T=0.25) for n0 in (2, 4)}


def _random_observation(rng, n, m):
    h = rng.standard_normal((m, n))
    g = rng.standard_normal((m, m))
    return filters.ObservationModel(H=h, Gamma=g @ g.T + np.eye(m), qoi=rng.standard_normal(n))


def _random_multilevel(rng, hierarchy, L):
    pairs = []
    for l in range(L + 1):
        m_l = int(rng.integers(2, 8))
        n_f = hierarchy.n_modes(l)
        n_c = hierarchy.n_modes(l - 1) if l > 0 else 0
        pairs.append(
            filters.PairEnsemble(
                rng.standard_normal((n_c, m_l)), rng.standard_normal((n_f, m_l)), l
            )
        )
    return filters.MultilevelEnsemble(tuple(pairs))


def _dense_r_ml(ml, obs):
    # brute-force telescoping oracle: pad every level to N_L and use the
    # two-pass E-form of the covariance
    n_top = ml.levels[-1].fine.shape[0]

    def pad(v):
        out = np.zeros((n_top, v.shape[1]))
        out[: v.shape[0]] = v
        return out

    def cov(v):
        m = v.shape[1]
        hv = obs.H[:, :n_top] @ v
        ev = v.mean(axis=1)
        ehv = hv.mean(axis=1)
        return (m / (m - 1.0)) * (v @ hv.T / m - np.outer(ev, ehv))

    total = np.zeros((n_top, obs.m))
    for pe in ml.levels:
        total += cov(pad(pe.fine))
        if pe.coarse.shape[0]:
            total -= cov(pad(pe.coarse))
    return total


def _cov_matrix(state):
    """Dense covariance of a ``GaussianState``; small dimensions only."""
    return np.diag(state.cov_diag) - state.factors @ state.factors.T


def _kalman_dense_step(mean, cov, y, obs, cfg):
    """Dense-matrix Kalman recursion, the oracle for the low-rank path.

    Returns the updated ``(mean, cov)``; quadratic memory, use only for
    small reference dimensions.
    """
    y = np.asarray(y, dtype=float).reshape(obs.m)
    n = mean.size
    lam = eigenvalues(n)
    a = model.propagator(lam, cfg.T)
    mean = a * mean
    cov = a[:, None] * cov * a[None, :] + np.diag(model.exact_noise_var(lam, cfg.T, cfg.b))
    h = obs.H[:, :n]
    s = h @ cov @ h.T + obs.Gamma
    k = np.linalg.solve(s, h @ cov).T
    mean = mean + k @ (y - h @ mean)
    cov = cov - k @ h @ cov
    return mean, 0.5 * (cov + cov.T)


def check_coupling_variance(seed):
    """Coupled coarse output from a zero state has the coarse-chain
    variance (3 SE)."""
    cfg, hier = _MODEL, _LADDER_BY_N0[4]
    level, j_mode, n_draws = 3, 2, 20000
    n, j_sub, _, dt = hier.level_params(level)
    nc = hier.n_modes(level - 1)
    rng = RngKey(seed, "forward", 0, level).generator()
    coarse, _ = model.propagate_pairs(
        np.zeros((nc, n_draws)), np.zeros((n, n_draws)), level, cfg, hier, rng, "expeuler"
    )
    samples = coarse[j_mode - 1]
    # J/2 coarse steps U <- g U + e^{-lam dt} R_{2k} + R_{2k+1}: each combined
    # increment has variance v(2 dt), so Var U = v(2 dt) sum_k g^{2k}
    lam = float(np.pi ** 2 * j_mode ** 2)
    g2 = float(model.g_factor(lam, 2.0 * dt)) ** 2
    steps = j_sub // 2
    want = float(model.substep_noise_var(lam, 2.0 * dt, cfg.b)) * (1.0 - g2 ** steps) / (1.0 - g2)
    got = float(np.var(samples, ddof=1))
    se = want * np.sqrt(2.0 / (samples.size - 1))
    return abs(got - want) <= 3.0 * se, (
        f"var {got:.6e} vs {want:.6e} ({abs(got-want)/se:.2f} SE)"
    )


def check_telescoping(seed):
    """Exact-in-time coupling: the fine output truncated to the coarse
    modes equals the coarse output."""
    cfg, hier = _MODEL, _LADDER_BY_N0[2]
    rng = np.random.default_rng(seed)
    for level in (1, 2, 3):
        n_f = hier.n_modes(level)
        n_c = hier.n_modes(level - 1)
        fine_in = rng.standard_normal((n_f, 1))
        key = RngKey(seed, "forward", 0, level)
        coarse, fine = model.propagate_pairs(
            fine_in[:n_c].copy(), fine_in, level, cfg, hier, key.generator(), "exact"
        )
        if not np.array_equal(fine[:n_c], coarse):
            return False, f"level {level} mismatch"
    return True, "exact for levels 1..3"


def check_g_bound(seed):
    """g(lambda, dt) < 1 for all retained eigenvalues."""
    lam = np.pi ** 2 * np.arange(1, 601, dtype=float) ** 2
    for dt in (1.0, 0.25, 2.0 ** -8, 2.0 ** -16):
        g = model.g_factor(lam, dt)
        if not np.all(g < 1.0):
            return False, f"g >= 1 at dt={dt}"
    return True, "checked 600 modes x 4 step sizes"


def check_r_ml_oracle(seed):
    """Algorithm-style accumulation equals the dense telescoping sum."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        hier = LevelHierarchy(kappa=2.0, n0=int(rng.integers(1, 3)))
        L = int(rng.integers(0, 4))
        ml = _random_multilevel(rng, hier, L)
        obs = _random_observation(rng, ml.levels[L].fine.shape[0], int(rng.integers(1, 3)))
        got = filters.compute_R_ml(ml, obs)
        want = _dense_r_ml(ml, obs)
        worst = max(worst, np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))
    return worst < 1e-12, f"worst relative error {worst:.2e}"


def check_positive_part(seed):
    """positive_part outputs are PSD and annihilate negative directions."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((m, m))
        p = filters.positive_part(a)
        w = np.linalg.eigvalsh(p)
        if w[0] < -1e-10:
            return False, f"negative eigenvalue {w[0]:.2e}"
    q = np.array([3.0, -4.0]) / 5.0
    if np.max(np.abs(filters.positive_part(-np.outer(q, q)))) > 1e-14:
        return False, "negative rank-1 matrix not annihilated"
    return True, "PSD over 50 random matrices"


def check_degeneracy(seed):
    """The one-level engine at level 1 reproduces a hand-written EnKF
    (sample gain, one perturbed datum per member) under shared keys."""
    cfg, hier = _MODEL, _LADDER_BY_N0[4]
    rng = np.random.default_rng(seed)
    level, m_size = 1, 6
    n = hier.n_modes(level)
    obs = _random_observation(rng, n, 1)
    v = np.tile(rng.standard_normal(n)[:, None], (1, m_size))
    empty = np.zeros((0, m_size))
    ml = filters.MultilevelEnsemble((filters.PairEnsemble(empty, v, level),))
    for step in range(1, 6):
        y = rng.standard_normal(1)
        ml = filters.mlenkf_step(ml, y, obs, cfg, hier, seed, step, "exact")
        # one level reads the first block of each of the step's streams
        fwd = RngKey(seed, "forward", 0, 0, step).generator()
        _, v = model.propagate_pairs(empty, v, level, cfg, hier, fwd, "exact")
        k = filters.ml_gain(filters.sample_cov_action(v, obs), obs)
        pert = RngKey(seed, "obs-perturbation", 0, 0, step).generator()
        ytilde = y[:, None] + obs.Gamma_factor @ pert.standard_normal((1, m_size))
        v = v + k @ (ytilde - obs.H @ v)
    gap = np.max(np.abs(v - ml.levels[0].fine))
    return gap <= 1e-14, f"coefficient gap {gap:.2e}"


def check_gain_consistency(seed):
    """ml_gain on the exact covariance action equals the Kalman gain."""
    rng = np.random.default_rng(seed)
    n = 16
    obs = _random_observation(rng, n, 2)
    state = filters.GaussianState.deterministic(rng.standard_normal(n))
    for k in range(3):
        state = filters.kalman_step(state, rng.standard_normal(2), obs, _MODEL)
    pred = filters.kalman_predict(state, _MODEL)
    ch = pred.cov_action(obs.H.T)
    k = filters.ml_gain(ch, obs)
    s = obs.H @ ch + obs.Gamma
    k_ref = np.linalg.solve(0.5 * (s + s.T), ch.T).T
    gap = np.max(np.abs(k - k_ref)) / np.max(np.abs(k_ref))
    return gap <= 1e-12, f"relative gain gap {gap:.2e}"


def check_cov_unbiased(seed):
    """E[sample_cov] equals the true covariance (4 SE gate per entry)."""
    rng = np.random.default_rng(seed)
    n, m_members, trials = 3, 5, 10000
    a = rng.standard_normal((n, n))
    cov_true = a @ a.T
    obs = filters.ObservationModel(H=np.eye(n)[:1], Gamma=np.eye(1), qoi=np.zeros(n))
    chol = np.linalg.cholesky(cov_true)
    draws = chol @ rng.standard_normal((trials, n, m_members))
    x = draws - draws.mean(axis=2, keepdims=True)
    covs = np.einsum("tij,tkj->tik", x, x) / (m_members - 1)
    est = covs.mean(axis=0)[:, :1]
    se = covs[:, :, :1].std(axis=0, ddof=1) / np.sqrt(trials)
    gap = np.abs(est - cov_true[:, :1])
    ok = np.all(gap <= 4.0 * se)
    # spot-check the library path against the same estimator on one draw
    lib = filters.sample_cov_action(draws[0], obs)
    ok = ok and np.allclose(lib, covs[0][:, :1], rtol=1e-10, atol=1e-12)
    return bool(ok), f"max deviation {np.max(gap / se):.2f} SE"


def check_update_finite(seed):
    """Filter steps keep finite ensembles finite (smoke)."""
    cfg, hier = _MODEL, _LADDER_BY_N0[2]
    rng = np.random.default_rng(seed)
    obs = _random_observation(rng, hier.n_modes(2), 1)
    ml = _random_multilevel(rng, hier, 2)
    for n in range(1, 4):
        ml = filters.mlenkf_step(ml, rng.standard_normal(1), obs, cfg, hier, seed, n, "expeuler")
        for pe in ml.levels:
            if not (np.all(np.isfinite(pe.fine)) and np.all(np.isfinite(pe.coarse))):
                return False, f"non-finite member at step {n}"
    return True, "3 steps finite"


def check_kalman_lowrank(seed):
    """Low-rank Kalman covariance matches the dense oracle."""
    rng = np.random.default_rng(seed)
    n = 2 ** 6
    _, _, obs_full, u0 = experiment.build_example(1, "exact", n_ref=n)
    state = filters.GaussianState.deterministic(u0)
    mean_d, cov_d = u0.copy(), np.zeros((n, n))
    worst = 0.0
    for k in range(1, 6):
        y = rng.standard_normal(1)
        state = filters.kalman_step(state, y, obs_full, _MODEL)
        mean_d, cov_d = _kalman_dense_step(mean_d, cov_d, y, obs_full, _MODEL)
        worst = max(worst, float(np.max(np.abs(_cov_matrix(state) - cov_d))))
        worst = max(worst, float(np.max(np.abs(state.mean - mean_d))))
    return worst <= 1e-10, f"worst abs gap {worst:.2e}"


def check_cost_counter(seed):
    """theoretical_cost agrees with the instrumented counter (<= 5%)."""
    results = []
    for method, solver in (("mlenkf", "exact"), ("mlenkf", "expeuler"), ("enkf", "expeuler")):
        cfg = experiment.ExperimentConfig(
            example=1, method=method, solver=solver, eps_grid=(0.25,),
            n_steps=3, realizations=2, master_seed=seed, n_ref=2 ** 7,
        )
        data = experiment.synthesize_truth_and_obs(cfg)
        schedule = experiment.make_schedule(0.25, cfg.hierarchy, method, 1.0)
        before = sum(model.unit_counter.values())
        experiment.run_filter_realizations(cfg, schedule, data.ys, [0])
        counted = sum(model.unit_counter.values()) - before
        predicted = experiment.theoretical_cost(
            schedule, cfg.hierarchy, method, cfg.n_steps, cfg.obs.m
        )
        results.append(abs(counted - predicted) / predicted)
    worst = max(results)
    return worst <= 0.05, f"worst relative gap {worst:.2%}"


CHECKS = (
    ("coupling-variance-identity", check_coupling_variance),
    ("telescoping-consistency", check_telescoping),
    ("g-factor-bound", check_g_bound),
    ("multilevel-cov-oracle", check_r_ml_oracle),
    ("positive-part-psd", check_positive_part),
    ("single-level-degeneracy", check_degeneracy),
    ("gain-consistency", check_gain_consistency),
    ("sample-cov-unbiased", check_cov_unbiased),
    ("update-finiteness", check_update_finite),
    ("kalman-lowrank-vs-dense", check_kalman_lowrank),
    ("cost-accounting", check_cost_counter),
)


def run_all(seed):
    """Run every check; returns True iff all passed."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
