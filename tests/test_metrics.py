import numpy as np
import pytest

from saddlesim import metrics, shepherd
from saddlesim.convex_sets import Ball, Box
from saddlesim.dynamics import ControllerConfig, TrajectoryLog, simulate
from saddlesim.offline import OfflineSolution, TimeGrid

from helpers import quadratic_env, regret_bound


def _make_log(t, f, f0=None, x=None, lam=None, eps=1.0):
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    S, m = f.shape
    f0 = np.zeros(S) if f0 is None else np.asarray(f0, dtype=float)
    x = np.zeros((S, 2)) if x is None else x
    lam = np.zeros((S, m)) if lam is None else lam
    h = float(t[1] - t[0])
    fit = np.vstack([[np.zeros(m)], np.cumsum(0.5 * np.diff(t)[:, None] * (f[:-1] + f[1:]), axis=0)])
    cost = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (f0[:-1] + f0[1:]))])
    return TrajectoryLog(
        t=t, x=x, lam=lam, f=f, f0=f0, fit_accum=fit, cost_accum=cost,
        config=ControllerConfig(epsilon=eps, h=h), T=float(t[-1]), h_eff=h,
        lambda_max=lam.max(axis=0) if S else np.zeros(m), max_field_norm=1.0,
    )


def test_fit_constant_integrand():
    t = np.linspace(0.0, 2.0, 21)
    f = np.tile([1.0, -2.0], (21, 1))
    assert np.allclose(metrics.fit(_make_log(t, f)), [2.0, -4.0])


def test_fit_nonpositive_for_feasible_action():
    t = np.linspace(0.0, 1.0, 11)
    f = np.tile([-0.09, -0.02], (11, 1))
    assert np.all(metrics.fit(_make_log(t, f)) <= 0.0)


def test_fit_matches_refined_quadrature(small_scenario):
    env = shepherd.shepherd_env(small_scenario, "none")
    X = small_scenario.action_set()
    # step divides the noise cells so the held-noise jumps sit on step
    # boundaries and each step's integrand is smooth; the within-step
    # curvature is set by the basis time-variation, so h must be well under
    # sqrt(tol / (T * curvature))
    h = small_scenario.T / small_scenario.noise_cells / 64.0
    cfg = ControllerConfig(epsilon=1.0, h=h, mode="feasibility")
    log = simulate(env, cfg, T=0.25, X=X, sample_stride=1)
    coarse = metrics.fit(log)
    # 10x-refined quadrature along the linearly interpolated state
    refined = np.zeros_like(coarse)
    for k in range(log.t.shape[0] - 1):
        ts = log.t[k] + (log.t[k + 1] - log.t[k]) * np.linspace(0.0, 1.0, 11)
        xs = np.linspace(0.0, 1.0, 11)[:, None] * (log.x[k + 1] - log.x[k])[None, :] + log.x[k]
        at = env.grid_evaluator(ts)
        vals = np.array([at(i, xx)[2] for i, xx in enumerate(xs)])
        refined += np.trapezoid(vals, ts, axis=0)
    assert np.max(np.abs(coarse - refined)) <= 1e-6


def test_fit_additive_over_concatenation(small_scenario):
    env = shepherd.shepherd_env(small_scenario, "none")
    X = small_scenario.action_set()
    log = simulate(env, ControllerConfig(epsilon=5.0, h=1e-3, mode="feasibility"),
                   T=small_scenario.T, X=X, sample_stride=1)
    cut = log.t.shape[0] // 2

    def slice_log(a, b):
        return TrajectoryLog(
            t=log.t[a:b], x=log.x[a:b], lam=log.lam[a:b], f=log.f[a:b],
            f0=log.f0[a:b], fit_accum=log.fit_accum[a:b], cost_accum=log.cost_accum[a:b],
            config=log.config, T=float(log.t[b - 1]), h_eff=log.h_eff,
            lambda_max=log.lambda_max, max_field_norm=log.max_field_norm,
        )

    total = metrics.fit(log)
    part = metrics.fit(slice_log(0, cut + 1)) + metrics.fit(slice_log(cut, log.t.shape[0]))
    assert np.max(np.abs(total - part)) <= 1e-9


def test_saturated_fit_values():
    t = np.linspace(0.0, 1.0, 11)
    f = np.tile([-5.0], (11, 1))
    log = _make_log(t, f)
    assert metrics.saturated_fit(log, 0.3)[0] == pytest.approx(-0.3)
    f2 = np.tile([2.0], (11, 1))
    log2 = _make_log(t, f2)
    assert metrics.saturated_fit(log2, 0.3)[0] == pytest.approx(metrics.fit(log2)[0])


def test_saturated_fit_dominates_fit(rng):
    t = np.linspace(0.0, 1.5, 31)
    f = rng.uniform(-3.0, 1.0, size=(31, 4))
    log = _make_log(t, f)
    for delta in (0.05, 0.3, 1.0):
        sat = metrics.saturated_fit(log, delta)
        assert np.all(sat >= metrics.fit(log) - 1e-12)
        assert np.all(sat >= -delta * log.T - 1e-12)


def test_energy_values():
    assert metrics.energy(np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(1)) == 0.0
    assert metrics.energy(np.zeros(2), np.zeros(0), np.array([3.0, 4.0]), np.zeros(0)) == pytest.approx(12.5)
    a, b = np.array([1.0, 2.0]), np.array([0.5])
    c, d = np.array([-1.0, 0.3]), np.array([2.0])
    assert metrics.energy(a, b, c, d) == pytest.approx(metrics.energy(c, d, a, b))
    with pytest.raises(ValueError):
        metrics.energy(np.zeros(2), np.zeros(1), np.zeros(3), np.zeros(1))


def test_regret_zero_when_pinned_at_optimum():
    env = quadratic_env(np.array([0.4, -0.2]))
    X = Box([-1.0, -1.0], [1.0, 1.0])
    cfg = ControllerConfig(epsilon=2.0, h=1e-3, mode="gradient")
    log = simulate(env, cfg, T=1.0, X=X, x0=np.array([0.4, -0.2]), sample_stride=10)
    grid = TimeGrid.from_step(1.0, 1e-3)
    sol = OfflineSolution(
        xstar=np.array([0.4, -0.2]), offline_cost=0.0, xdagger=np.array([0.4, -0.2]),
        viability_residual=float("-inf"), K=0.0, grid=grid,
        cost_cumulative=np.zeros(grid.num_steps + 1),
    )
    rep = metrics.regret(log, sol)
    assert rep.regret == pytest.approx(0.0, abs=1e-12)
    assert rep.bound == pytest.approx(0.0, abs=1e-12)


def test_regret_grid_mismatch_rejected():
    t = np.linspace(0.0, 1.0, 11)
    log = _make_log(t, np.zeros((11, 1)))
    sol = OfflineSolution(
        xstar=np.zeros(2), offline_cost=0.0, xdagger=np.zeros(2),
        viability_residual=0.0, K=0.0, grid=TimeGrid.from_step(2.0, 0.1),
        cost_cumulative=np.zeros(21),
    )
    with pytest.raises(ValueError):
        metrics.regret(log, sol)


def test_gradient_regret_bound_values():
    x0 = np.zeros(2)
    xstar = np.array([3.0, 4.0])
    assert regret_bound(50.0, x0, xstar) == pytest.approx(12.5 / 50.0)
    assert regret_bound(1.0, xstar, xstar) == 0.0
    assert regret_bound(2.0, x0, xstar) == pytest.approx(regret_bound(1.0, x0, xstar) / 2.0)
    with pytest.raises(ValueError):
        regret_bound(0.0, x0, xstar)


def test_fit_bound_values():
    x0 = np.zeros(3)
    xd = np.zeros(3)
    lam0 = np.zeros(2)
    assert metrics.fit_bound(4.0, x0, lam0, xd, 0) == pytest.approx(1.0 / 8.0)
    assert metrics.fit_bound(1e12, x0, lam0, xd, 1) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        metrics.fit_bound(-1.0, x0, lam0, xd, 0)
    with pytest.raises(ValueError):
        metrics.fit_bound(1.0, x0, lam0, xd, 5)


def test_multiplier_bound_values():
    assert metrics.multiplier_bound(1.0) == pytest.approx(5.0)
    assert metrics.multiplier_bound(0.0) == pytest.approx(1.0)
    ball = Ball(np.zeros(2), 0.7)
    assert metrics.multiplier_bound(ball.norm_bound()) == pytest.approx(4.0 * 0.49 + 1.0)
    with pytest.raises(ValueError):
        metrics.multiplier_bound(-1.0)
    with pytest.raises(ValueError):
        metrics.multiplier_bound(float("inf"))


def test_clipped_fit_norm_values():
    assert metrics.clipped_fit_norm(np.array([-1.0, -2.0])) == 0.0
    assert metrics.clipped_fit_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert metrics.clipped_fit_norm(np.array([3.0, -4.0])) == pytest.approx(3.0)


def test_slack_rule():
    assert metrics.slack(10.0, 1e-4, 1.0, 1.0) == pytest.approx(0.5)
    assert metrics.slack(0.0, 1e-4, 2.0, 500.0) == pytest.approx(1.0)
