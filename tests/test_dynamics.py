import math
import warnings

import numpy as np
import pytest

from saddlesim import shepherd
from saddlesim.convex_sets import (Ball, Box, FullSpace, MembershipError, NonnegativeOrthant,
                                   StateSet)
from saddlesim.cli import write_trajectory_csv
from saddlesim.dynamics import (DIVERGENCE_LIMIT, GRID_BLOCK, MODES, ControllerConfig,
                                DivergenceError, TrajectoryLog, simulate, simulate_rows)
from saddlesim.environment import Environment, EvaluatorError, pointwise

from helpers import from_functions, quadratic_env, stationary_points_env, tracking_env


def run_steps(env, cfg, X, x0=None, steps=1):
    """Run ``steps`` integrator steps of size cfg.h, logging every state."""
    return simulate(env, cfg, T=steps * cfg.h, X=X, x0=x0, sample_stride=1)


def test_gradient_field_interior_quadratic():
    c = np.array([1.0, 0.0])
    env = quadratic_env(c)
    X = Box([-2.0, -2.0], [2.0, 2.0])
    x = np.array([0.0, 0.0])
    h = 1e-3
    for eps in (0.5, 2.0):
        log = run_steps(env, ControllerConfig(epsilon=eps, h=h, mode="gradient"), X, x0=x)
        field = -2.0 * eps * (x - c)
        assert np.allclose((log.x[1] - log.x[0]) / h, field)
        assert log.max_field_norm == pytest.approx(np.linalg.norm(field))


def test_gradient_field_clipped_at_box_bound():
    env = quadratic_env(np.array([-3.0, 0.0]))  # pulls toward x_0 = -3, outside the box
    X = Box([-1.0, -1.0], [1.0, 1.0])
    cfg = ControllerConfig(epsilon=1.0, h=1e-3, mode="gradient")
    log = run_steps(env, cfg, X, x0=np.array([-1.0, 0.0]))
    # the step clamps the outward move back onto the face, and the
    # tangent-cone field, whose norm the log keeps, has no outward component
    assert log.x[1, 0] == -1.0
    assert log.max_field_norm == 0.0


def test_ball_step_projects_the_point_of_the_raw_step():
    # From a boundary point with an outward field, the step is the ball's
    # point projection of x0 + h v (not of x0 + h Pi(x0, v)), and the field
    # norm is that of the tangent-cone field.
    a = np.array([1.0, 1.0])
    env = pointwise(2, 0, lambda t, x: (float(-a @ x), -a, np.zeros(0), np.zeros((2, 0))))
    X, x0 = Ball([0.0, 0.0], 1.0), np.array([1.0, 0.0])
    cfg = ControllerConfig(epsilon=2.0, h=0.01, mode="gradient")
    log = run_steps(env, cfg, X, x0=x0)
    v = cfg.epsilon * a
    assert np.array_equal(log.x[1], X.project_point(x0 + cfg.h * v))
    assert not np.array_equal(log.x[1], X.project_point(x0 + cfg.h * X.project_field(x0, v)))
    assert log.max_field_norm == np.linalg.norm(X.project_field(x0, v)) == cfg.epsilon


@pytest.mark.parametrize("delta", [None, 0.1], ids=["plain", "saturated"])
@pytest.mark.parametrize("objective", shepherd.OBJECTIVES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("R", [1, 2])
def test_shepherd_steps_project_the_point_of_the_raw_step(horizon_rows, R, mode, objective,
                                                          delta):
    # Every step of every row is Pi_S(z + h u) bit for bit, along the raw
    # field u = [-eps (g0 + G lam) | eps f] (-eps G lam in feasibility mode,
    # -eps g0 in gradient mode), formed by separate numpy operations from the
    # checked evaluator's outputs at the row's state, G lam as the row's 1-D
    # product.  The start violates constraints, so the multipliers move.
    env = shepherd.shepherd_env(horizon_rows[:R], objective)
    env = env if delta is None else env.saturate(delta)
    cfg = ControllerConfig(epsilon=50.0, h=2e-4, mode=mode)
    X, eps = horizon_rows[0].action_set(), cfg.epsilon
    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, env.n)
    logs = simulate_rows(env, cfg, [3 * cfg.h, 4.6 * cfg.h][:R], X, x0=x0, sample_stride=1)
    S = X if mode == "gradient" else StateSet(X, env.m)
    K = max(log.t.size for log in logs)
    h = np.array([[log.h_eff] for log in logs])
    at = env.grid_evaluator(np.arange(-1, K - 1) * h + h)
    for k in range(K - 1):
        last = [min(k, log.t.size - 1) for log in logs]  # a retired row stays at its last node
        x, lam = (np.stack([getattr(log, name)[i] for log, i in zip(logs, last)])
                  for name in ("x", "lam"))
        f0, g0, f, G = at(k, x)
        if mode == "gradient":
            u = g0 * -eps
        else:
            G_lam = np.stack([G[r] @ lam[r] for r in range(R)])
            v = (g0 + G_lam if mode == "saddle" else G_lam) * -eps
            u = np.concatenate([v, f * eps], axis=1)
        z = S.project_point(np.concatenate([x, lam], axis=1) + h * u)
        for r, log in enumerate(logs):
            if k + 1 < log.t.size:
                stepped = np.concatenate([log.x[k + 1], log.lam[k + 1]])
                assert stepped.tobytes() == z[r].tobytes(), (k, r)
    assert mode == "gradient" or logs[0].lam[2].any()


def test_state_off_the_set_raises_membership_error(monkeypatch):
    # A step projection that leaves the box by 1e-6 on the third step: the
    # block's field projection finds that state and reports its distance.
    row_projector, calls = Box.row_projector, []

    def leaky(self, z):
        project = row_projector(self, z)

        def step(y):
            project(y)
            calls.append(y)
            if len(calls) == 3:
                y[..., 0] = self.upper[0] + 1e-6

        return step

    monkeypatch.setattr(Box, "row_projector", leaky)
    cfg = ControllerConfig(epsilon=1.0, h=1e-3, mode="gradient")
    with pytest.raises(MembershipError, match=r"point at distance 1\.000e-06 from set"):
        run_steps(quadratic_env(np.array([0.5, 0.0])), cfg, Box([-1.0, -1.0], [1.0, 1.0]),
                  steps=10)


@pytest.mark.parametrize("delta", [None, 0.1], ids=["plain", "saturated"])
@pytest.mark.parametrize("objective", shepherd.OBJECTIVES)
@pytest.mark.parametrize("mode", MODES)
def test_simulate_rows_warns_nothing(small_scenario, mode, objective, delta):
    # numpy 2.4 deprecates an output passed by position to np.maximum and
    # np.minimum; the step passes theirs by keyword, on a box and a ball.
    env = shepherd.shepherd_env(small_scenario, objective)
    env = env if delta is None else env.saturate(delta)
    cfg = ControllerConfig(epsilon=50.0, h=1e-3, mode=mode)
    for X in (small_scenario.action_set(), Ball(np.zeros(env.n), 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row, = simulate_rows(env, cfg, [0.02], X, sample_stride=5)
        assert isinstance(row, TrajectoryLog)


def test_saddle_field_zero_lagrangian():
    env = from_functions(
        n=2, m=2,
        f=lambda t, x: np.array([-1.0, -2.0]),
        G=lambda t, x: np.eye(2),
    )
    X = FullSpace(2)
    log = run_steps(env, ControllerConfig(epsilon=5.0, h=1e-3, mode="saddle"), X)
    assert np.all(log.x == 0.0)
    assert np.all(log.lam == 0.0)  # orthant projection blocks negative drive at 0
    assert log.max_field_norm == 0.0


def test_saddle_field_interior_multiplier_ascent():
    h = 1e-3
    # f pushes both multipliers off 0 on the first step, then drives the
    # second one down from the interior of the orthant
    env = from_functions(
        n=2, m=2,
        f=lambda t, x: np.array([1.0, 3.0]) if t < 0.5 * h else np.array([1.0, -2.0]),
        G=lambda t, x: np.zeros((2, 2)),
    )
    X = FullSpace(2)
    log = run_steps(env, ControllerConfig(epsilon=50.0, h=h, mode="saddle"), X, steps=2)
    assert np.allclose(log.lam[1], [50.0 * h, 150.0 * h])
    assert np.allclose((log.lam[2] - log.lam[1]) / h, [50.0, -100.0])


def test_step_static_environment():
    env = from_functions(n=2, m=1, f=lambda t, x: np.array([0.0]),
                         G=lambda t, x: np.zeros((2, 1)))
    cfg = ControllerConfig(epsilon=1.0, h=0.01, mode="saddle")
    X = FullSpace(2)
    log = run_steps(env, cfg, X, x0=np.array([0.4, -0.2]))
    assert log.t[1] == pytest.approx(0.01)
    assert np.allclose(log.x[1], log.x[0])
    assert np.allclose(log.lam[1], log.lam[0])


def test_step_explicit_euler_on_quadratic():
    env = quadratic_env(np.zeros(2))
    X = FullSpace(2)
    for eps, h in ((1.0, 0.01), (5.0, 0.001)):
        cfg = ControllerConfig(epsilon=eps, h=h, mode="gradient")
        log = run_steps(env, cfg, X, x0=np.array([1.0, -2.0]))
        assert np.allclose(log.x[1], (1.0 - 2.0 * eps * h) * log.x[0])


def test_step_matches_refined_integration(rng):
    vals = rng.uniform(-1.0, 1.0, size=(4, 2))
    env = tracking_env(vals, 1.0)
    X = Box([-2.0, -2.0], [2.0, 2.0])
    h = 0.01
    x0 = np.array([0.5, 0.5])
    coarse = run_steps(env, ControllerConfig(epsilon=2.0, h=h, mode="gradient"), X, x0=x0)
    fine = run_steps(env, ControllerConfig(epsilon=2.0, h=h / 100.0, mode="gradient"), X,
                    x0=x0, steps=100)
    # one Euler step agrees with the refined solution to O(h^2); the constant
    # is eps^2 * curvature * diameter / 2, comfortably under 100
    assert np.linalg.norm(coarse.x[-1] - fine.x[-1]) <= 100.0 * h * h


def test_simulate_exponential_decay():
    env = quadratic_env(np.zeros(2))
    X = FullSpace(2)
    cfg = ControllerConfig(epsilon=1.0, h=1e-4, mode="gradient")
    x0 = np.array([1.0, -1.0])
    log = simulate(env, cfg, T=5.0, X=X, x0=x0, sample_stride=100)
    assert np.linalg.norm(log.x[-1]) <= np.linalg.norm(x0) * np.exp(-2.0 * 5.0) + 1e-3


def test_state_feasibility_invariant(rng):
    pts = np.array([[2.0, 2.0], [2.2, 2.0]])
    env = stationary_points_env(pts, 0.3)
    X = Box([-1.0, -1.0], [1.0, 1.0])  # optimum pinned to the corner
    cfg = ControllerConfig(epsilon=5.0, h=1e-3, mode="feasibility")
    log = simulate(env, cfg, T=2.0, X=X, sample_stride=5)
    for k in range(log.t.shape[0]):
        assert X.distance(log.x[k]) <= 1e-9
        assert np.min(log.lam[k]) >= -1e-12
    assert np.allclose(log.x[-1], [1.0, 1.0], atol=1e-6)


def test_gradient_mode_matches_saddle_with_no_constraints():
    env = quadratic_env(np.array([0.5, -0.5]))
    X = Box([-1.0, -1.0], [1.0, 1.0])
    kw = dict(T=0.5, X=X, sample_stride=10)
    log_g = simulate(env, ControllerConfig(epsilon=2.0, h=1e-3, mode="gradient"), **kw)
    log_s = simulate(env, ControllerConfig(epsilon=2.0, h=1e-3, mode="saddle"), **kw)
    assert np.allclose(log_g.x, log_s.x)
    assert log_g.lam.shape[1] == 0
    assert log_s.lam.shape[1] == 0


def test_accumulator_first_order_in_h(small_scenario):
    from saddlesim import shepherd

    env = shepherd.shepherd_env(small_scenario, "none")
    X = small_scenario.action_set()
    # steps divide the 400-cell noise grid evenly, so the held-noise jumps
    # land on step boundaries at every level and the error is cleanly O(h)
    T = 0.5
    cell = small_scenario.T / small_scenario.noise_cells
    hs = (cell / 2.0, cell / 4.0, cell / 8.0)
    logs = {}
    for h in hs:
        cfg = ControllerConfig(epsilon=5.0, h=h, mode="feasibility")
        logs[h] = simulate(env, cfg, T=T, X=X, sample_stride=50)
    d1 = np.max(np.abs(logs[hs[0]].final_fit - logs[hs[1]].final_fit))
    d2 = np.max(np.abs(logs[hs[1]].final_fit - logs[hs[2]].final_fit))
    # halving h changes the accumulators by <= C h for a modest constant
    assert d1 <= 2.0 * hs[0]
    assert d2 <= 2.0 * hs[1]
    assert d2 <= d1 + 1e-12


def test_energy_dissipation_discrete(rng):
    # Discrete analogue of the descent property of the energy along gradient
    # flow: sum_k [V(x_{k+1}) - V(x_k) + eps h (f0(t_k,x_k) - f0(t_k,xbar))]
    # is bounded by the O(h) Euler remainder h T Lhat^2 / 2.
    vals = rng.uniform(-1.0, 1.0, size=(8, 2))
    T, h, eps = 1.0, 1e-3, 2.0
    env = tracking_env(vals, T)
    X = Box([-2.0, -2.0], [2.0, 2.0])
    cfg = ControllerConfig(epsilon=eps, h=h, mode="gradient")
    log = simulate(env, cfg, T=T, X=X, sample_stride=1)
    xbar = np.array([0.3, -0.3])
    V = 0.5 * np.einsum("ij,ij->i", log.x - xbar, log.x - xbar)
    f0_x = log.f0[:-1]
    f0_bar = np.array([env.eval_full(t, xbar)[0] for t in log.t[:-1]])
    total = float(np.sum(np.diff(V) + eps * h * (f0_x - f0_bar)))
    assert total <= 0.5 * h * T * log.max_field_norm**2 + 1e-9


def test_divergence_error():
    env = quadratic_env(np.zeros(1))
    X = FullSpace(1)
    cfg = ControllerConfig(epsilon=1e4, h=1.0, mode="gradient")  # eps*h*L >> 2
    with pytest.raises(DivergenceError):
        simulate(env, cfg, T=60.0, X=X, x0=np.array([1.0]), sample_stride=1)


def test_lambda_max_tracks_running_max(small_scenario):
    from saddlesim import shepherd

    env = shepherd.shepherd_env(small_scenario, "none")
    X = small_scenario.action_set()
    cfg = ControllerConfig(epsilon=5.0, h=2e-4, mode="feasibility")
    log = simulate(env, cfg, T=0.5, X=X, sample_stride=7)
    assert np.all(log.lambda_max >= log.lam.max(axis=0) - 1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(epsilon=1.0, h=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(epsilon=1.0, mode="dual")


def test_initial_state_defaults():
    env = from_functions(n=2, m=1, f=lambda t, x: np.array([0.0]),
                         G=lambda t, x: np.zeros((2, 1)))
    X = Box([1.0, 1.0], [2.0, 2.0])
    log = run_steps(env, ControllerConfig(epsilon=1.0, mode="saddle"), X)
    assert np.array_equal(log.x[0], [1.0, 1.0])  # origin projected onto the box
    assert np.array_equal(log.lam[0], [0.0])
    assert np.array_equal(log.fit_accum[0], [0.0])
    assert log.t[0] == 0.0 and log.cost_accum[0] == 0.0
    grad = run_steps(env, ControllerConfig(epsilon=1.0, mode="gradient"), X)
    assert grad.lam.shape == (2, 0) and grad.lambda_max.shape == (0,)


@pytest.mark.parametrize("steps", [1, 10, GRID_BLOCK - 1, GRID_BLOCK, 2 * GRID_BLOCK + 3])
@pytest.mark.parametrize("mode, objective", [("feasibility", "none"), ("saddle", "black_sheep")])
def test_time_tables_match_per_step_evaluation(small_scenario, steps, mode, objective):
    # Blocked time tables against a one-node table per node; the stride 7
    # divides only 511 of the step counts, and exceeds 1.
    env = shepherd.shepherd_env(small_scenario, objective)
    cfg = ControllerConfig(epsilon=50.0, h=1e-3, mode=mode)
    logs = [simulate(e, cfg, T=steps * cfg.h, X=small_scenario.action_set(), sample_stride=7)
            for e in (env, pointwise(env.n, env.m, env.eval_full, env.has_objective))]
    for name in ("t", "x", "lam", "f", "f0", "fit_accum", "cost_accum", "lambda_max"):
        assert np.array_equal(getattr(logs[0], name), getattr(logs[1], name)), name
    assert logs[0].max_field_norm == logs[1].max_field_norm


def test_simulate_reads_every_node_from_its_block_tables(small_scenario, monkeypatch):
    # The start node too: simulate builds no one-node table through eval_full.
    def refuse(self, t, x):
        raise AssertionError(f"simulate called eval_full at t={t}")

    monkeypatch.setattr(Environment, "eval_full", refuse)
    X = small_scenario.action_set()
    for env in (shepherd.shepherd_env(small_scenario, "black_sheep"),
                stationary_points_env(np.zeros((1, X.dim)), 1.0)):
        for mode in MODES:
            log = simulate(env, ControllerConfig(epsilon=50.0, h=1e-3, mode=mode), T=0.005, X=X)
            assert log.t.tolist() == [0.0, 0.005]


LOG_ARRAYS = ("t", "x", "lam", "f", "f0", "fit_accum", "cost_accum", "lambda_max")


@pytest.fixture(scope="module")
def horizon_rows(small_scenario):
    # Two horizons whose steps round differently: 0.3/1500 is not 0.1/500 in
    # the last bit, and the rows retire at different nodes, one inside a block.
    return [shepherd.regenerate(small_scenario, T=T) for T in (0.1, 0.3)]


@pytest.mark.parametrize("mode, objective, delta", [
    ("feasibility", "none", None), ("feasibility", "none", 0.1),
    ("saddle", "black_sheep", None), ("saddle", "min_acceleration", None)],
    ids=["feasibility", "saturated", "black_sheep", "min_acceleration"])
def test_rows_are_their_single_runs_bit_for_bit(horizon_rows, tmp_path, mode, objective, delta):
    # Min-acceleration amplifies a last-bit difference far past 1e-9 within a
    # few thousand steps, so equality here is the bit-for-bit test it needs.
    def env_of(scenarios):
        env = shepherd.shepherd_env(scenarios, objective)
        return env if delta is None else env.saturate(delta)

    cfg = ControllerConfig(epsilon=50.0, h=2e-4, mode=mode)
    X = horizon_rows[0].action_set()
    Ts = [sc.T for sc in horizon_rows]
    rows = simulate_rows(env_of(horizon_rows), cfg, Ts, X, sample_stride=7)
    assert rows[0].h_eff != rows[1].h_eff and rows[0].t.size != rows[1].t.size
    for k, (sc, row) in enumerate(zip(horizon_rows, rows)):
        single = simulate(env_of(sc), cfg, T=sc.T, X=X, sample_stride=7)
        for name in LOG_ARRAYS:
            assert np.array_equal(getattr(row, name), getattr(single, name)), name
        assert row.max_field_norm == single.max_field_norm
        assert (row.T, row.h_eff, row.config) == (single.T, single.h_eff, single.config)
        write_trajectory_csv(tmp_path / f"row{k}.csv", row)
        write_trajectory_csv(tmp_path / f"single{k}.csv", single)
        assert (tmp_path / f"row{k}.csv").read_bytes() == (tmp_path / f"single{k}.csv").read_bytes()


def test_rows_divergence_names_the_row(horizon_rows):
    # The second row diverges (a large step on the longer horizon): it retires
    # with its single run's error, and the first row runs on to its end.
    env = shepherd.shepherd_env(horizon_rows, "none")
    cfg = ControllerConfig(epsilon=1e9, h=0.05, mode="feasibility")
    X = horizon_rows[0].action_set()
    with pytest.raises(DivergenceError) as single:
        simulate(shepherd.shepherd_env(horizon_rows[1], "none"), cfg, T=3.0, X=X)
    good, failed = simulate_rows(env, cfg, [0.1, 3.0], X)
    assert type(failed) is DivergenceError and str(failed) == str(single.value)
    alone = simulate(shepherd.shepherd_env(horizon_rows[0], "none"), cfg, T=0.1, X=X)
    for name in LOG_ARRAYS:
        assert np.array_equal(getattr(good, name), getattr(alone, name)), name
    assert (good.max_field_norm, good.h_eff) == (alone.max_field_norm, alone.h_eff)


def test_row_with_a_nan_start_retires_with_its_evaluator_error(horizon_rows):
    # Row 1 starts at NaN, so its first evaluation is not finite: it retires
    # with its single run's error at the end of the first block, which ends
    # at row 0's last node, and row 0 is bit for bit its run alone.
    cfg = ControllerConfig(epsilon=50.0, h=2e-3, mode="saddle")
    X = horizon_rows[0].action_set()
    good, bad = horizon_rows[0].xdagger, horizon_rows[1].xdagger.copy()
    bad[2] = np.nan
    with pytest.raises(EvaluatorError) as single:
        simulate(shepherd.shepherd_env(horizon_rows[1], "black_sheep"), cfg, T=0.3, X=X, x0=bad)
    env = shepherd.shepherd_env(horizon_rows, "black_sheep")
    row, failed = simulate_rows(env, cfg, [0.1, 0.3], X, x0=np.stack([good, bad]))
    assert type(failed) is EvaluatorError and str(failed) == str(single.value)
    alone = simulate(shepherd.shepherd_env(horizon_rows[0], "black_sheep"), cfg, T=0.1, X=X,
                     x0=good)
    for name in LOG_ARRAYS:
        assert np.array_equal(getattr(row, name), getattr(alone, name)), name
    assert row.max_field_norm == alone.max_field_norm


def test_rows_check_their_count(horizon_rows):
    env = shepherd.shepherd_env(horizon_rows, "none")
    cfg = ControllerConfig(epsilon=50.0, h=1e-3, mode="feasibility")
    with pytest.raises(ValueError, match="1 horizons for an environment of 2 rows"):
        simulate_rows(env, cfg, [0.1], horizon_rows[0].action_set())
    with pytest.raises(ValueError, match="serves a one-row environment"):
        env.batch_constraints(np.array([0.0, 0.1]), horizon_rows[0].xdagger)


def test_rows_with_a_still_row_keep_the_moving_row_bit_for_bit(horizon_rows):
    # Row 0 starts on a straight line (only the degree 0 and 1 coefficients,
    # whose second derivatives are exactly 0), so its acceleration is 0 at
    # node 0 and its g0 row there is exactly zero: with lam = 0 the first
    # step leaves it in place.  Row 1 takes that node through the masked
    # branch, and still gives the bits of its single run, which does not.
    sc = horizon_rows[1]
    X = sc.action_set()
    line = np.zeros(X.dim)
    line[[0, 1, sc.n, sc.n + 1]] = [0.3, 0.2, -0.1, 0.4]
    x0 = np.stack([line, sc.xdagger])
    env = shepherd.shepherd_env(horizon_rows, "min_acceleration")
    f0, g0, _, _ = env.grid_evaluator(np.zeros((2, 1)))(0, x0)
    assert f0[0] == 0.0 and f0[1] > 0.0
    assert g0[0].tolist() == [0.0] * X.dim
    cfg = ControllerConfig(epsilon=50.0, h=2e-4, mode="saddle")
    rows = simulate_rows(env, cfg, [0.01, 0.02], X, x0=x0, sample_stride=1)
    assert rows[0].f0[0] == 0.0 and np.array_equal(rows[0].x[1], rows[0].x[0])
    single = simulate(shepherd.shepherd_env(sc, "min_acceleration"), cfg, T=0.02, X=X,
                      x0=sc.xdagger, sample_stride=1)
    for name in LOG_ARRAYS:
        assert np.array_equal(getattr(rows[1], name), getattr(single, name)), name
    assert rows[1].max_field_norm == single.max_field_norm


@pytest.mark.parametrize("still", [False, True], ids=["moving", "still_row"])
def test_nan_row_names_its_time_and_action(horizon_rows, still):
    # A NaN action gives a NaN acceleration norm: the guard names that row's
    # node time and action, whether or not another row is still.
    env = shepherd.shepherd_env(horizon_rows, "min_acceleration")
    ts = np.array([[0.0, 0.01, 0.02], [0.0, 0.03, 0.06]])
    at = env.grid_evaluator(ts)
    good = horizon_rows[0].xdagger.copy()
    if still:
        good[:] = 0.0
    bad = horizon_rows[1].xdagger.copy()
    bad[3] = np.nan
    with pytest.raises(EvaluatorError) as err:
        at(2, np.stack([good, bad]))
    assert str(err.value) == f"non-finite evaluator output at t={0.06!r}, x={bad!r}"


def test_divergence_on_a_box_beyond_the_limit(horizon_rows):
    # Bounds of +-1e13 put the box's norm bound above DIVERGENCE_LIMIT, so
    # the loop keeps checking the actions, and the run stops where the same
    # run on the whole space does.
    sc = horizon_rows[0]
    n = sc.action_dim
    big = Box(np.full(n, -1e13), np.full(n, 1e13))
    assert big.norm_bound() > DIVERGENCE_LIMIT
    env = shepherd.shepherd_env(sc, "none")
    cfg = ControllerConfig(epsilon=1e9, h=0.05, mode="feasibility")
    with pytest.raises(DivergenceError) as free:
        simulate(env, cfg, T=3.0, X=FullSpace(n))
    with pytest.raises(DivergenceError) as boxed:
        simulate(env, cfg, T=3.0, X=big)
    assert str(boxed.value) == str(free.value)
    assert "exceeded 1e+12 at t=" in str(boxed.value)



# The block checks.  Steps of h = 0.125 (exact in binary, as is every node
# time k h) under eps = 1 along g0 = -72 x multiply the action by
# 1 + 0.125 * 72 = 10 exactly: x_k = 10**k from x_0 = 1, so the step into
# node 13 (t = 1.625) is the first past DIVERGENCE_LIMIT, in the middle of a
# one-block run of 65 nodes.
TENFOLD = ControllerConfig(epsilon=1.0, h=0.125, mode="gradient")
DIVERGED = ("state magnitude exceeded 1e+12 at t=1.625; "
            "reduce the step h or the epsilon*h product")


def poisoned_env(g0_of, nan_at, output):
    """One action and one constraint f = -1 with G = 0: f0 = 0 and g0 =
    g0_of(x), with the output ``output`` all NaN at time ``nan_at``."""
    def evaluate(t, x):
        outs = {"f0": np.zeros(1), "g0": g0_of(x), "f": np.array([-1.0]), "G": np.zeros((1, 1))}
        if t == nan_at:
            outs[output] = np.full_like(outs[output], np.nan)
        return float(outs["f0"][0]), outs["g0"], outs["f"], outs["G"]

    return pointwise(1, 1, evaluate)


@pytest.mark.parametrize("nan_at, error, message", [
    (None, DivergenceError, DIVERGED),
    (0.625, EvaluatorError, "non-finite evaluator output at t=0.625, x=array([100000.])"),
    (1.625, DivergenceError, DIVERGED)],
    ids=["divergence_inside_a_block", "nan_before_a_later_divergence", "nan_at_the_divergence"])
def test_block_check_raises_the_first_error_a_check_per_step_meets(nan_at, error, message):
    # f0 is NaN at node nan_at / h: at node 5 (x = 1e5) it comes before the
    # divergence at node 13 and wins; at node 13 itself the step into the
    # node is checked before the evaluation at it.
    env = poisoned_env(lambda x: -72.0 * x, nan_at, "f0")
    with pytest.raises(error) as err:
        simulate(env, TENFOLD, T=8.0, X=FullSpace(1), x0=np.ones(1))
    assert str(err.value) == message


@pytest.mark.parametrize("mode, output, t", [
    ("gradient", "G", 0.375), ("feasibility", "g0", 0.375), ("gradient", "g0", 1.0)],
    ids=["G_in_gradient_mode", "g0_in_feasibility_mode", "g0_at_the_last_node"])
def test_nan_in_an_output_no_step_reads_still_raises(mode, output, t):
    # The action stands still at 0.5 (g0 = 0, and the multiplier stays 0
    # under f = -1); the NaN output at node 3 or at the last node (T = 1)
    # feeds no step, and the guard still names it.
    env = poisoned_env(np.zeros_like, t, output)
    cfg = ControllerConfig(epsilon=1.0, h=0.125, mode=mode)
    with pytest.raises(EvaluatorError) as err:
        simulate(env, cfg, T=1.0, X=Box([-1.0], [1.0]), x0=np.array([0.5]))
    assert str(err.value) == f"non-finite evaluator output at t={t}, x=array([0.5])"


@pytest.mark.parametrize("raise_at, error, message", [
    (None, DivergenceError, DIVERGED),
    (0.5, ValueError, "math domain error")],
    ids=["divergence_before_the_raise", "raise_before_any_failure"])
def test_raising_evaluator_meets_the_blocks_first_failure_first(raise_at, error, message):
    # f0 takes math.sqrt(-1.0) once the action is no longer finite: x = 10**k
    # overflows at node 309 of the one-block run, long after the step into
    # node 13 went past the limit.  A raise at node 4 comes before any failure
    # and propagates as it is.
    def evaluate(t, x):
        bad = t == raise_at or not np.isfinite(x).all()
        return (math.sqrt(-1.0) if bad else 0.0), -72.0 * x, np.array([-1.0]), np.zeros((1, 1))

    with pytest.raises(error) as err:
        simulate(pointwise(1, 1, evaluate), TENFOLD, T=40.0, X=FullSpace(1), x0=np.ones(1))
    assert str(err.value) == message


def test_set_of_the_wrong_dimension_is_a_value_error():
    cfg = ControllerConfig(epsilon=1.0, h=0.1, mode="gradient")
    with pytest.raises(ValueError) as err:
        simulate(quadratic_env(np.zeros(2)), cfg, T=1.0, X=Box(-np.ones(3), np.ones(3)))
    assert str(err.value) == "expected actions of shape (1, 2), got (1, 3)"
