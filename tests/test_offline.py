import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlesim import offline, shepherd
from saddlesim.convex_sets import Ball, Box
from saddlesim.environment import EvaluatorError, pointwise
from saddlesim.offline import (
    InfeasibleEnvironmentError,
    InnerSolveError,
    TimeGrid,
    ViabilityResult,
    _spg,
    check_viability,
    estimate_K,
    solve_offline,
)

from helpers import (disc_constrained_env, from_functions, quadratic_env, stationary_points_env,
                     tracking_env)


BOX2 = Box([-2.0, -2.0], [2.0, 2.0])


def test_time_grid_basics():
    grid = TimeGrid.from_step(1.0, 0.1)
    assert grid.num_steps == 10
    nodes = grid.nodes()
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.allclose(np.diff(nodes), grid.h)
    assert grid.trapezoid_weights().sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, num_steps=5)


def test_viability_single_cluster_point():
    p = np.array([0.7, -0.3])
    env = stationary_points_env(np.tile(p, (4, 1)), 0.3)
    grid = TimeGrid.from_step(1.0, 0.05)
    res = check_viability(env, grid, BOX2)
    assert res.viable
    assert np.linalg.norm(res.xdagger - p) <= 2e-2
    assert res.residual == pytest.approx(-0.09, abs=1e-6)


def test_viability_rejects_split_herd():
    pts = np.array([[-0.5, 0.0], [0.5, 0.0]])  # 1.0 apart, r = 0.3
    env = stationary_points_env(pts, 0.3)
    grid = TimeGrid.from_step(1.0, 0.05)
    res = check_viability(env, grid, BOX2)
    assert not res.viable
    # min-max residual: midpoint at distance 0.5 from both points
    assert res.residual == pytest.approx(0.5**2 - 0.09, abs=1e-6)


def test_viability_small_positive_residual_is_not_viable():
    # The min-max residual is 5e-4, between the viability tolerance and any
    # clearly positive value: the search finds it and reports not viable.
    env = stationary_points_env(np.array([[0.5, 0.0]]), 0.3)

    def shifted(t, x):
        f0, g0, f, G = env.eval_full(t, x)
        return f0, g0, f + 0.09 + 5e-4, G

    env2 = pointwise(2, 1, shifted, has_objective=False)
    res = check_viability(env2, TimeGrid.from_step(1.0, 0.25), BOX2, max_iter=2000)
    assert not res.viable
    assert res.residual == pytest.approx(5e-4, abs=1e-6)


def test_viability_no_constraints():
    env = quadratic_env(np.zeros(2))
    res = check_viability(env, TimeGrid.from_step(1.0, 0.5), BOX2)
    assert res.viable
    assert res.residual == float("-inf")


def test_offline_unconstrained_tracks_grid_mean(rng):
    vals = rng.uniform(-1.0, 1.0, size=(8, 2))
    T = 1.0
    env = tracking_env(vals, T)
    grid = TimeGrid.from_step(T, 1.0 / 64.0)
    sol = solve_offline(env, grid, BOX2, max_iter=3000)
    w = grid.trapezoid_weights()
    c_nodes = np.array([vals[min(int(t / T * 8), 7)] for t in grid.nodes()])
    xstar_oracle = (w @ c_nodes) / w.sum()
    assert np.linalg.norm(sol.xstar - xstar_oracle) <= 1e-5


def test_offline_matches_projected_gradient_oracle():
    c = np.array([0.8, -0.6])
    env = quadratic_env(c)
    grid = TimeGrid.from_step(1.0, 0.1)
    sol = solve_offline(env, grid, BOX2, max_iter=3000)
    # direct projected gradient on the same discretized objective
    x = np.zeros(2)
    for _ in range(500):
        x = BOX2.project_point(x - 0.25 * 2.0 * (x - c))
    assert np.linalg.norm(sol.xstar - x) <= 1e-5
    assert sol.diagnostics["kkt_stationarity"] <= 1e-5


def test_offline_constrained_matches_brute_force():
    env = disc_constrained_env(np.zeros(2), 1.0, np.array([1.5, 0.0]))
    grid = TimeGrid.from_step(1.0, 0.25)
    sol = solve_offline(env, grid, BOX2, max_iter=8000)
    g = np.linspace(-2.0, 2.0, 201)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    feas = np.einsum("ij,ij->i", pts, pts) <= 1.0
    costs = np.einsum("ij,ij->i", pts - [1.5, 0.0], pts - [1.5, 0.0])
    best = pts[feas][np.argmin(costs[feas])]
    assert np.linalg.norm(sol.xstar - best) <= 2e-2  # grid resolution
    assert sol.offline_cost <= costs[feas].min() + 2.5e-2  # cost gap at that resolution
    assert sol.diagnostics["violation"] <= 1e-6


def test_offline_infeasible_raises():
    pts = np.array([[-0.5, 0.0], [0.5, 0.0]])
    env_c = stationary_points_env(pts, 0.3)

    def with_obj(t, x):
        f0c, g0c, f, G = env_c.eval_full(t, x)
        return float(x @ x), 2.0 * x, f, G

    env = pointwise(2, 2, with_obj)
    with pytest.raises(InfeasibleEnvironmentError):
        solve_offline(env, TimeGrid.from_step(1.0, 0.25), BOX2)


def test_estimate_K_zero_for_static_center():
    c = np.array([0.5, 0.5])
    env = quadratic_env(c)
    grid = TimeGrid.from_step(1.0, 0.1)
    assert estimate_K(env, grid, BOX2, xstar=c) == pytest.approx(0.0, abs=1e-10)


def test_estimate_K_analytic_moving_center(rng):
    vals = rng.uniform(-1.0, 1.0, size=(5, 2))
    T = 1.0
    env = tracking_env(vals, T)
    grid = TimeGrid.from_step(T, 0.01)
    xstar = vals.mean(axis=0)
    K = estimate_K(env, grid, BOX2, xstar)
    # the inner minimum is 0 (the center is inside the box), so the gap is
    # the largest squared distance from xstar to the path over the grid
    expected = max(float((xstar - vals[min(int(t / T * 5), 4)]) @ (xstar - vals[min(int(t / T * 5), 4)]))
                   for t in grid.nodes())
    assert K == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("objective, n", [("black_sheep", 12), ("min_acceleration", 6)])
def test_estimate_K_on_shepherd_nodes(small_scenario, objective, n):
    # Every node's minimum is known.  Black sheep can put the shepherd on
    # sheep 1 at any single node, which leaves the noise term: 2 sigma^2 in
    # the mean environment, 0 in the frozen one.  The zero action has zero
    # acceleration.  Saturation leaves the objective alone.
    sc = dataclasses.replace(small_scenario, n=n)
    grid, X = sc.offline_grid(), sc.action_set()
    ts = grid.nodes()
    xstar = shepherd.encode_coeffs(sc.sheep_coeffs.mean(axis=0)[:, :n])
    for noise in ("mean", "frozen"):
        env = shepherd.shepherd_env(sc, objective, noise=noise)
        floor = 2.0 * sc.noise_std**2 if (objective, noise) == ("black_sheep", "mean") else 0.0
        f_star = env.batch_evaluate(ts, xstar)[0]
        for e in (env, env.saturate(0.05)):
            assert estimate_K(e, grid, X, xstar) == pytest.approx(f_star.max() - floor, abs=1e-9)


def test_estimate_K_reports_stalled_node():
    # f0 = ||x - c(t)||^2 scaled by 1 and 100 per axis: three evaluations
    # cannot reach the minimum, and c(t) leaves the start point at t = 0.5.
    def center(t):
        return np.array([1.0, 1.0]) if t >= 0.5 else np.zeros(2)

    scale = np.array([1.0, 100.0])
    env = from_functions(2, 0, f0=lambda t, x: float(scale @ (x - center(t)) ** 2),
                         g0=lambda t, x: 2.0 * scale * (x - center(t)))
    grid = TimeGrid.from_step(1.0, 0.25)
    with pytest.raises(InnerSolveError, match=r"stalled at node t=0\.5 "):
        estimate_K(env, grid, BOX2, np.zeros(2), max_iter=3)
    assert estimate_K(env, grid, BOX2, np.zeros(2)) == pytest.approx(101.0)


def test_estimate_K_stops_halving_at_a_kink():
    # f0 = 100 |x_0| + x_1^2 with the subgradient 100 at the kink: from the
    # start point 0 every step increases f0, so the step fraction shrinks below
    # 1e-16 and the node stops without an error, its gradient map still 2.
    env = from_functions(
        2, 0, f0=lambda t, x: 100.0 * abs(x[0]) + x[1] ** 2,
        g0=lambda t, x: np.array([100.0 if x[0] >= 0.0 else -100.0, 2.0 * x[1]]))
    grid = TimeGrid.from_step(1.0, 0.5)
    xstar = np.array([0.5, 0.0])
    assert estimate_K(env, grid, BOX2, xstar) == 50.0


def cone_env(c, offset):
    """f0 = offset + ||x - c||, with subgradient 0 at the apex."""
    def g0(t, x):
        d = x - c
        r = np.linalg.norm(d)
        return d / r if r > 0.0 else np.zeros_like(d)

    return from_functions(2, 0, f0=lambda t, x: offset + float(np.linalg.norm(x - c)), g0=g0)


def test_estimate_K_halves_on_a_tie():
    # From 0 the first step is 1, and the trial point 2c costs exactly as much
    # as the start: accepting that tie would cycle between the two until
    # max_iter.  The Armijo test rejects it, and half the step reaches c.
    c = np.array([0.5, 0.0])
    grid = TimeGrid.from_step(1.0, 0.5)
    assert estimate_K(cone_env(c, 0.0), grid, BOX2, np.zeros(2)) == 0.5


def test_estimate_K_stops_at_the_smallest_step_on_ties():
    # Near an apex off the float grid, cost changes fall below one ulp of 1, so
    # trial points tie; the step fraction shrinks below 1e-16 and the node stops.
    c = np.array([0.3, 0.4]) / 3.0
    K = estimate_K(cone_env(c, 1.0), TimeGrid.from_step(1.0, 0.5), BOX2, np.zeros(2))
    assert K == pytest.approx(float(np.linalg.norm(c)), abs=1e-12)


def test_estimate_K_on_a_ball(rng):
    # Moving centres inside and outside Ball(0, 0.6): the inner minimum is the
    # projection of c(t), so the gap is |x* - c|^2 - max(0, |c| - r)^2.
    vals = rng.uniform(-1.0, 1.0, size=(5, 2))
    env, grid, X = tracking_env(vals, 1.0), TimeGrid.from_step(1.0, 0.05), Ball(np.zeros(2), 0.6)
    xstar = X.project_point(vals.mean(axis=0))
    K = estimate_K(env, grid, X, xstar)
    cs = vals[np.minimum((grid.nodes() * 5).astype(int), 4)]
    gaps = np.sum((xstar - cs) ** 2, axis=1) - np.maximum(0.0, np.linalg.norm(cs, axis=1) - 0.6) ** 2
    assert K == pytest.approx(gaps.max(), abs=1e-8)


def row_problems(kind, A, b, c):
    """Per-row objectives for the routine: row j is the convex quadratic
    x.A_j x / 2 - b_j.x or the cone |x - c_j|, by kind[j]."""
    def fun(x):
        Ax = np.sum(A * x[:, None, :], axis=2)
        r = np.sqrt(np.sum((x - c) ** 2, axis=1))
        val = np.where(kind, 0.5 * np.sum(x * Ax, axis=1) - np.sum(b * x, axis=1), r)
        cone_g = (x - c) / np.where(r > 0.0, r, 1.0)[:, None]
        grad = np.where(kind[:, None], Ax - b, cone_g)
        return val, grad, val

    return fun


@st.composite
def spg_cases(draw):
    n, rows = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((rows, n, n))
    A = np.einsum("bki,bkj->bij", M, M) + 0.1 * np.eye(n)
    kind = rng.random(rows) < 0.5
    if draw(st.booleans()):
        lo = rng.uniform(-2.0, 0.0, n)
        X = Box(lo, lo + rng.uniform(0.5, 3.0, n))
    else:
        X = Ball(rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0))
    x0 = X.project_point(rng.uniform(-3.0, 3.0, (rows, n)))
    return (row_problems(kind, A, 3.0 * rng.standard_normal((rows, n)), 2.0 * rng.standard_normal((rows, n))),
            X, x0, draw(st.integers(1, 80)))


@settings(max_examples=60, deadline=None, database=None)
@given(case=spg_cases())
def test_spg_rows_run_alone_bit_for_bit(case):
    fun, X, x0, budget = case
    project = X.project_point
    together = _spg(fun, project, x0, budget, 1e-9)
    for j in range(x0.shape[0]):
        alone = _spg(lambda xs: tuple(v[j:j + 1] for v in fun(np.repeat(xs, x0.shape[0], axis=0))),
                     project, x0[j:j + 1], budget, 1e-9)
        for a, b in zip(together[:5], alone[:5]):
            assert np.array_equal(a[j], b[0])


@settings(max_examples=60, deadline=None, database=None)
@given(case=spg_cases())
def test_spg_iterates_stay_in_the_set(case):
    fun, X, x0, budget = case
    seen = []

    def recorded(xs):
        seen.append(xs.copy())
        return fun(xs)

    x, _, _, _, _, evals = _spg(recorded, X.project_point, x0, budget, 1e-9)
    assert evals == len(seen) <= budget
    for z in np.concatenate(seen + [x]):
        assert X.distance(z) <= 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(case=spg_cases())
def test_spg_stopped_row_holds_its_point(case):
    fun, X, x0, budget = case
    project = X.project_point
    x, val, _, _, running, evals = _spg(fun, project, x0, budget, 1e-9)
    seen = []

    def recorded(xs):
        seen.append(xs.copy())
        return fun(xs)

    longer = _spg(recorded, project, x0, budget + 40, 1e-9)
    stopped = ~running
    assert np.array_equal(longer[0][stopped], x[stopped])
    assert np.array_equal(longer[1][stopped], val[stopped])
    for xs in seen[evals:]:
        assert np.array_equal(xs[stopped], x[stopped])


def test_estimate_K_rejects_non_finite_objective(small_scenario):
    # A pointwise environment raises in grid_evaluator; the shepherd batch path
    # has no guard of its own, so estimate_K checks the gaps it returns.
    env = from_functions(2, 0, f0=lambda t, x: np.nan if t == 0.5 else float(x @ x),
                         g0=lambda t, x: 2.0 * x)
    with pytest.raises(EvaluatorError, match=r"t=0\.5,"):
        estimate_K(env, TimeGrid.from_step(1.0, 0.25), BOX2, np.zeros(2))
    sh = shepherd.shepherd_env(small_scenario, "black_sheep", noise="mean")
    grid = small_scenario.offline_grid()

    def poisoned(ts, x):
        f0, f, pull = sh.batch_evaluate(ts, x)
        return np.where(np.arange(ts.shape[0]) == 3, np.nan, f0), f, pull

    env = dataclasses.replace(sh, batch_evaluate=poisoned)
    xstar = shepherd.encode_coeffs(small_scenario.sheep_coeffs.mean(axis=0))
    with pytest.raises(EvaluatorError, match=f"t={grid.nodes()[3]:.6g}$"):
        estimate_K(env, grid, small_scenario.action_set(), xstar)


def test_estimate_K_shepherd_finite(small_scenario):
    env = shepherd.shepherd_env(small_scenario, "black_sheep", noise="mean")
    grid = TimeGrid.from_step(small_scenario.T, small_scenario.T / 200)
    via = shepherd.viability_certificate(small_scenario)
    sol = solve_offline(env, grid, small_scenario.action_set(), viability=via, max_iter=1000)
    assert np.isfinite(sol.K)
    assert sol.K >= 0.0


def test_offline_invariants_on_shepherd(small_scenario):
    env = shepherd.shepherd_env(small_scenario, "black_sheep", noise="mean")
    grid = small_scenario.offline_grid()
    via = shepherd.viability_certificate(small_scenario)
    sol = solve_offline(env, grid, small_scenario.action_set(), viability=via, max_iter=1500)
    # feasible on the grid and at least as cheap as the viability point
    vals = env.batch_constraints(grid.nodes(), sol.xstar)
    assert vals.max() <= 1e-6
    w = grid.trapezoid_weights()
    cost_dagger = float(w @ env.batch_evaluate(grid.nodes(), sol.xdagger)[0])
    assert sol.offline_cost <= cost_dagger + 1e-5
    # determinism
    sol2 = solve_offline(env, grid, small_scenario.action_set(), viability=via, max_iter=1500)
    assert np.array_equal(sol.xstar, sol2.xstar)
    assert sol.offline_cost == sol2.offline_cost


def grid_cost(env, grid, x):
    w = grid.trapezoid_weights()
    return float(w @ env.batch_evaluate(grid.nodes(), x)[0])


def slsqp_reference(env, grid, X, x0):
    """Dense SLSQP over every node constraint: the offline problem's optimum."""
    from scipy.optimize import minimize

    ts, w = grid.nodes(), grid.trapezoid_weights()
    K, m = ts.shape[0], env.m
    zero_mu = np.zeros((K, m))

    def cost(x):
        f0, _, pull = env.batch_evaluate(ts, x)
        return float(w @ f0), pull(w, zero_mu)

    def jacobian(x):  # row (k, i) is grad f_i(t_k, x): a unit multiplier on constraint i alone
        pull = env.batch_evaluate(ts, np.tile(x, (K, 1)))[2]
        return -np.stack([pull(np.zeros(K), np.eye(m)[[i] * K]) for i in range(m)],
                         axis=1).reshape(K * m, -1)

    res = minimize(cost, x0, jac=True, method="SLSQP", bounds=list(zip(X.lower, X.upper)),
                   constraints=[{"type": "ineq", "jac": jacobian,
                                 "fun": lambda x: -env.batch_constraints(ts, x).ravel()}],
                   options={"maxiter": 500, "ftol": 1e-14})
    assert env.batch_constraints(ts, res.x).max() <= 1e-9
    return res.fun


@pytest.mark.parametrize("seed, T, max_iter", [(1, 0.25, 600), (7, 0.25, 600), (1, 1.0, 1500)])
def test_black_sheep_costs_the_noise_floor(seed, T, max_iter):
    # The optimum follows sheep 1 with every constraint slack, so the mean
    # environment charges only the noise term 2 sigma^2 per unit time.
    sc = shepherd.generate_sheep_paths(seed=seed, T=T)
    env = shepherd.shepherd_env(sc, "black_sheep", noise="mean")
    sol = solve_offline(env, sc.offline_grid(), sc.action_set(),
                        viability=shepherd.viability_certificate(sc), max_iter=max_iter)
    assert sol.diagnostics["converged"]
    assert sol.diagnostics["iterations"] < 100  # stops once certified
    assert sol.offline_cost == pytest.approx(2.0 * sc.noise_std**2 * T, rel=1e-9)


def test_min_acceleration_against_slsqp():
    # The C08 T=1 configuration.  The optimum sits on a kink of |z''| at a
    # node, so the solve is not certified, but it lands within 1e-6 of it.
    sc = shepherd.generate_sheep_paths(seed=1, n=6, n_sheep=30)
    env = shepherd.shepherd_env(sc, "min_acceleration", noise="mean")
    grid, X = sc.offline_grid(), sc.action_set()
    sol = solve_offline(env, grid, X, viability=shepherd.viability_certificate(sc), max_iter=1500)
    ref = slsqp_reference(env, grid, X, sc.xdagger)
    assert env.batch_constraints(grid.nodes(), sol.xstar).max() <= 1e-6
    assert sol.offline_cost < grid_cost(env, grid, sc.xdagger)
    assert ref * (1.0 - 1e-9) <= sol.offline_cost <= ref * (1.0 + 1e-6)


@pytest.mark.parametrize("max_iter", [0, 1])
def test_offline_budget_keeps_a_feasible_point(small_scenario, max_iter):
    env = shepherd.shepherd_env(small_scenario, "black_sheep", noise="mean")
    grid, X = small_scenario.offline_grid(), small_scenario.action_set()
    via = shepherd.viability_certificate(small_scenario)
    sol = solve_offline(env, grid, X, viability=via, max_iter=max_iter)
    assert env.batch_constraints(grid.nodes(), sol.xstar).max() <= 1e-6
    assert sol.offline_cost <= grid_cost(env, grid, sol.xdagger)
    assert not sol.diagnostics["converged"]
    assert sol.diagnostics["iterations"] == max_iter
    assert np.array_equal(sol.xstar, solve_offline(env, grid, X, viability=via, max_iter=max_iter).xstar)


def test_offline_blends_a_violating_iterate_toward_xdagger():
    # The target lies outside the disc and the first penalty is weak, so the
    # iterate that ends the first inner solve violates; one blend toward
    # x-dagger restores it.
    env = disc_constrained_env(np.zeros(2), 1.0, np.array([1.5, 0.0]))
    grid = TimeGrid.from_step(1.0, 0.25)
    via = check_viability(env, grid, BOX2)
    probed = []

    def constraints(ts, x):
        probed.append(x)
        return env.batch_constraints(ts, x)

    sol = solve_offline(dataclasses.replace(env, batch_constraints=constraints), grid, BOX2,
                        viability=via, max_iter=20)
    last = probed[-1]  # the last iterate, checked once after the loop
    v = float(env.batch_constraints(grid.nodes(), last).max())
    assert v > 1e-6
    theta = v / (v - via.residual)
    assert np.array_equal(sol.xstar, (1.0 - theta) * last + theta * via.xdagger)
    assert sol.diagnostics["violation"] <= 1e-12
    assert sol.offline_cost < grid_cost(env, grid, via.xdagger)


def test_penalty_stops_rising_once_feasible():
    # The coarse min-acceleration case stalls on a kink with its violation at
    # rounding level, which never falls to a quarter; the penalty must stay put
    # however long the loop runs.
    sc = shepherd.generate_sheep_paths(seed=1, n=6, n_sheep=12, noise_cells=100)
    env = shepherd.shepherd_env(sc, "min_acceleration", noise="mean")
    grid, X, via = sc.offline_grid(), sc.action_set(), shepherd.viability_certificate(sc)
    short, long = (solve_offline(env, grid, X, viability=via, max_iter=k).diagnostics for k in (1500, 6000))
    assert short["penalty"] == long["penalty"]
    assert long["violation"] <= 1e-6


def test_offline_reports_failed_complementarity():
    # Maximize x under two constraints 1e-7 apart.  The loop stops with both
    # multipliers near 1/2 and x between the two bounds; the blend moves x
    # onto the tighter one, where the looser one is slack by 1e-7, so only
    # the complementarity term, about 5e-8, fails the certificate.
    env = from_functions(1, 2, f0=lambda t, x: -float(x[0]), g0=lambda t, x: np.array([-1.0]),
                         f=lambda t, x: np.array([x[0] - 1.0, x[0] - 1.0 + 1e-7]),
                         G=lambda t, x: np.array([[1.0, 1.0]]))
    grid, X = TimeGrid(T=1.0, num_steps=1), Box([-2.0], [2.0])
    d = solve_offline(env, grid, X, max_iter=200).diagnostics
    assert d["violation"] <= 1e-6
    assert d["kkt_stationarity"] <= 1e-8
    assert d["complementarity"] > 1e-8
    assert not d["converged"]


def test_offline_keeps_xdagger_when_it_is_cheaper():
    # f0 = 4 (x - 2)^2 subject to x <= 1, and x-dagger sits 1e-6 inside the
    # optimum x* = 1.  Cut after 19 evaluations, the loop stands at a feasible
    # point further inside, which costs more, so x-dagger itself is returned.
    env = from_functions(1, 1, f0=lambda t, x: float(4.0 * (x[0] - 2.0) ** 2),
                         g0=lambda t, x: np.array([8.0 * (x[0] - 2.0)]),
                         f=lambda t, x: np.array([x[0] - 1.0]), G=lambda t, x: np.array([[1.0]]))
    grid, X = TimeGrid(T=1.0, num_steps=1), Box([-2.0], [2.0])
    xd = np.array([1.0 - 1e-6])
    via = ViabilityResult(True, xd, float(env.batch_constraints(grid.nodes(), xd).max()), 0)
    probed = []

    def constraints(ts, x):
        probed.append(x)
        return env.batch_constraints(ts, x)

    sol = solve_offline(dataclasses.replace(env, batch_constraints=constraints), grid, X,
                        viability=via, max_iter=19)
    last = probed[-1]  # the last iterate, checked once after the loop
    assert env.batch_constraints(grid.nodes(), last).max() <= 0.0
    assert grid_cost(env, grid, last) > grid_cost(env, grid, xd)
    assert np.array_equal(sol.xstar, xd)
    assert not sol.diagnostics["converged"]


def counted(env, log, where):
    """env with batch_evaluate and batch_constraints rebound through
    dataclasses.replace, as the benchmark tracer rebinds them, so that each
    call appends (name, where at the call) to log."""
    def wrap(name, fn):
        def call(*args):
            log.append((name, tuple(where)))
            return fn(*args)
        return call

    return dataclasses.replace(env, batch_evaluate=wrap("evaluate", env.batch_evaluate),
                               batch_constraints=wrap("constraints", env.batch_constraints))


@pytest.mark.parametrize("delta", [None, 0.05])
def test_one_grid_call_per_lagrangian_evaluation(small_scenario, monkeypatch, delta):
    # ``where`` holds the routines running at each grid call: "spg" for an
    # inner solve, "K" for estimate_K.  Each evaluation of an inner solve of
    # the multiplier loop is one batch_evaluate call and calls no
    # batch_constraints, and a saturated environment passes each call to its
    # base environment as one call of the same name.
    where, log, base_log = [], [], []
    for name, tag in (("_spg", "spg"), ("estimate_K", "K")):
        def tagged(*args, fn=getattr(offline, name), tag=tag):
            where.append(tag)
            try:
                return fn(*args)
            finally:
                where.pop()
        monkeypatch.setattr(offline, name, tagged)

    def calls(name, at):
        return sum(entry == (name, at) for entry in log)

    sc = small_scenario
    grid, X = sc.offline_grid(), sc.action_set()
    for objective in ("none", "black_sheep"):
        log.clear()
        base_log.clear()
        base = shepherd.shepherd_env(sc, objective, noise="mean")
        env = counted(base if delta is None else counted(base, base_log, where).saturate(delta),
                      log, where)
        if objective == "none":
            via = check_viability(env, grid, X, max_iter=300)
            assert via.iterations > 0 and calls("evaluate", ("spg",)) == via.iterations
        else:
            sol = solve_offline(env, grid, X, viability=shepherd.viability_certificate(sc),
                                max_iter=300)
            assert calls("evaluate", ("spg",)) == sol.diagnostics["iterations"]
            assert calls("constraints", ()) == 1  # the violation of the last iterate
        assert calls("evaluate", ()) == (0 if objective == "none" else 2)  # x* and x-dagger
        assert not any(name == "constraints" and "spg" in at for name, at in log)
        if delta is not None:
            assert [name for name, _ in base_log] == [name for name, _ in log]


def test_offline_cost_grid_consistency():
    c = np.array([0.25, -0.75])
    env = quadratic_env(c)
    costs = {}
    for steps in (50, 100, 200):
        grid = TimeGrid(T=1.0, num_steps=steps)
        sol = solve_offline(env, grid, BOX2, max_iter=2000)
        costs[steps] = sol.offline_cost
    # time-invariant objective: refining the grid barely moves the cost
    assert abs(costs[50] - costs[100]) <= 1e-4
    assert abs(costs[100] - costs[200]) <= 1e-4
