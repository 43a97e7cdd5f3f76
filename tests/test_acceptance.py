"""Acceptance gate: one test per verification criterion, one printed line each.

Shared tolerance rule for checking continuous-time guarantees on discrete
runs: slack = max(0.05 |bound|, 10 h T Lhat), with h = 1e-4 unless a
criterion states otherwise and Lhat the logged field-magnitude estimate.
"""

import json
import time

import numpy as np
import pytest

from saddlesim import cli, metrics, shepherd
from saddlesim.convex_sets import Ball, Box, NonnegativeOrthant
from saddlesim.dynamics import ControllerConfig, simulate, simulate_rows
from saddlesim.offline import OfflineSolution, TimeGrid, estimate_K, solve_offline

from helpers import finite_diff_check, point_in_set, projection_gap, random_set, tracking_env


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: field-projection inequality sweep
# ---------------------------------------------------------------------------

def test_c01_projection_inequality_sweep():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = np.inf
    for _ in range(1000):
        cset = random_set(rng)
        x0 = point_in_set(rng, cset, boundary=bool(rng.random() < 0.5))
        x = point_in_set(rng, cset, boundary=bool(rng.random() < 0.3))
        v = rng.standard_normal(cset.dim) * 3.0
        worst = min(worst, projection_gap(cset, x0, x, v))
    elapsed = time.perf_counter() - t0
    report("C01 projection inequality (1000 sets)", worst >= -1e-9 and elapsed < 1.0,
           f"min gap {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: projection oracles
# ---------------------------------------------------------------------------

def test_c02_projection_oracles():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    box = Box([0.0, 0.0], [1.0, 1.0])
    ball = Ball([0.0, 0.0], 1.0)
    g = np.linspace(0.0, 1.0, 201)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    box_grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    rr = np.linspace(0.0, 1.0, 101)
    ball_grid = np.concatenate(
        [np.stack([r * np.cos(th), r * np.sin(th)], axis=1) for r in rr])
    worst_pt = 0.0
    for _ in range(50):
        z = rng.uniform(-1.0, 2.0, size=2)
        p = box.project_point(z)
        best = box_grid[np.argmin(np.einsum("ij,ij->i", box_grid - z, box_grid - z))]
        worst_pt = max(worst_pt, float(np.linalg.norm(p - best)))
        z = rng.uniform(-2.0, 2.0, size=2)
        p = ball.project_point(z)
        best = ball_grid[np.argmin(np.einsum("ij,ij->i", ball_grid - z, ball_grid - z))]
        worst_pt = max(worst_pt, float(np.linalg.norm(p - best)))
    delta = 1e-6
    worst_field = 0.0
    for _ in range(500):
        cset = random_set(rng)
        x = point_in_set(rng, cset, boundary=bool(rng.random() < 0.5))
        v = rng.standard_normal(cset.dim) * 2.0
        quotient = (cset.project_point(x + delta * v) - x) / delta
        worst_field = max(worst_field, float(np.linalg.norm(
            cset.project_field(x, v) - quotient)))
    elapsed = time.perf_counter() - t0
    report("C02 projection oracles",
           worst_pt <= 1e-2 and worst_field <= 1e-4 and elapsed < 5.0,
           f"grid gap {worst_pt:.2e}, quotient gap {worst_field:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 3-4: gradient controller regret bound and floor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tracking_suite():
    rng = np.random.default_rng(2024)
    X = Box([-2.0, -2.0], [2.0, 2.0])
    t0 = time.perf_counter()
    runs = {}
    for T in (1.0, 2.0, 4.0):
        vals = rng.uniform(-1.5, 1.5, size=(int(16 * T), 2))
        env = tracking_env(vals, T)
        grid = TimeGrid(T=T, num_steps=1000)
        ts = grid.nodes()
        w = grid.trapezoid_weights()
        c_nodes = vals[np.minimum((ts / T * len(vals)).astype(int), len(vals) - 1)]
        xstar = (w @ c_nodes) / w.sum()
        f0_star = np.einsum("ij,ij->i", c_nodes - xstar, c_nodes - xstar)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * grid.h * (f0_star[:-1] + f0_star[1:]))])
        sol = OfflineSolution(
            xstar=xstar, offline_cost=float(w @ f0_star), xdagger=xstar,
            viability_residual=float("-inf"), K=estimate_K(env, grid, X, xstar),
            grid=grid, cost_cumulative=cum,
        )
        for eps in (1.0, 5.0, 50.0):
            cfg = ControllerConfig(epsilon=eps, h=1e-4, mode="gradient")
            runs[(T, eps)] = (simulate(env, cfg, T=T, X=X, sample_stride=20), sol)
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_c03_gradient_controller_regret_bound(tracking_suite):
    worst_gap = -np.inf
    for (T, eps), (log, sol) in tracking_suite["runs"].items():
        rep = metrics.regret(log, sol)
        sl = metrics.slack(rep.bound, log.h_eff, T, log.max_field_norm)
        worst_gap = max(worst_gap, rep.regret - (rep.bound + sl))
    elapsed = tracking_suite["elapsed"]
    report("C03 gradient-controller regret bound (9 cells)",
           worst_gap <= 0.0 and elapsed < 10.0,
           f"worst regret-bound gap {worst_gap:.3e}, suite {elapsed:.1f}s")


def test_c04_regret_floor(tracking_suite):
    worst = np.inf
    for (T, eps), (log, sol) in tracking_suite["runs"].items():
        rep = metrics.regret(log, sol)
        sl = metrics.slack(rep.floor, log.h_eff, T, log.max_field_norm)
        worst = min(worst, rep.regret - (rep.floor - sl))
    report("C04 regret floor -K*T (9 cells)", worst >= 0.0,
           f"min margin above floor {worst:.3e}")


# ---------------------------------------------------------------------------
# Criteria 5-7: feasibility controller fit bounds, gain monotonicity,
# multiplier range
# ---------------------------------------------------------------------------

FEAS_SEEDS = (1, 2, 3)
FEAS_HORIZONS = (0.5, 1.0, 2.0)
FEAS_GAINS = (5.0, 50.0)


def _rows(*args, **kwargs):
    """The logs of one simulate_rows call; a failed row raises its error."""
    logs = simulate_rows(*args, **kwargs)
    for log in logs:
        if isinstance(log, Exception):
            raise log
    return logs


def _feasibility_runs(scenarios, delta=None):
    """Feasibility runs keyed (seed, T, eps): per (T, eps), the seeds' scenarios
    as the rows of one simulate_rows call (saturated at delta if given)."""
    runs = {}
    for T in FEAS_HORIZONS:
        rows = [scenarios[(seed, T)] for seed in FEAS_SEEDS]
        env = shepherd.shepherd_env(rows, "none", noise="frozen")
        if delta is not None:
            env = env.saturate(delta)
        for eps in FEAS_GAINS:
            cfg = ControllerConfig(epsilon=eps, h=1e-4, mode="feasibility")
            logs = _rows(env, cfg, [T] * len(rows), rows[0].action_set(), sample_stride=10)
            runs.update({(seed, T, eps): log for seed, log in zip(FEAS_SEEDS, logs)})
    return runs


@pytest.fixture(scope="module")
def feasibility_suite():
    t0 = time.perf_counter()
    scenarios = {(seed, T): shepherd.generate_sheep_paths(seed=seed, T=T)
                 for seed in FEAS_SEEDS for T in FEAS_HORIZONS}
    runs = _feasibility_runs(scenarios)
    return {"scenarios": scenarios, "runs": runs, "elapsed": time.perf_counter() - t0}


def _fit_bounds(sc, log):
    x0, lam0 = log.x[0], log.lam[0]
    return np.array([
        metrics.fit_bound(log.config.epsilon, x0, lam0, sc.xdagger, i)
        for i in range(sc.m)
    ])


def test_c05_feasibility_fit_bounds(feasibility_suite):
    worst = -np.inf
    for (seed, T, eps), log in feasibility_suite["runs"].items():
        sc = feasibility_suite["scenarios"][(seed, T)]
        bounds = _fit_bounds(sc, log)
        sl = metrics.slack(float(bounds.max()), log.h_eff, T, log.max_field_norm)
        gap = float(np.max(log.fit_accum - bounds[None, :])) - sl
        worst = max(worst, gap)
    elapsed = feasibility_suite["elapsed"]
    report("C05 feasibility fit bounds (2 gains x 3 seeds x 3 horizons, all logged times)",
           worst <= 0.0 and elapsed < 60.0,
           f"worst fit-bound gap {worst:.3e}, suite {elapsed:.1f}s")


def test_c06_gain_monotonicity(feasibility_suite):
    worst = -np.inf
    for seed in FEAS_SEEDS:
        for T in FEAS_HORIZONS:
            lo = feasibility_suite["runs"][(seed, T, 5.0)]
            hi = feasibility_suite["runs"][(seed, T, 50.0)]
            sc = feasibility_suite["scenarios"][(seed, T)]
            bound_scale = float(_fit_bounds(sc, lo).max())
            sl = metrics.slack(bound_scale, lo.h_eff, T,
                               max(lo.max_field_norm, hi.max_field_norm))
            gap = float(hi.final_fit.max() - lo.final_fit.max()) - sl
            worst = max(worst, gap)
    report("C06 gain monotonicity (fit at eps=50 vs eps=5)", worst <= 0.0,
           f"worst monotonicity gap {worst:.3e}")


def test_c07_multiplier_range(feasibility_suite):
    lam_min, lam_max = np.inf, -np.inf
    half_ok = True
    bound = None
    for (seed, T, eps), log in feasibility_suite["runs"].items():
        sc = feasibility_suite["scenarios"][(seed, T)]
        bound = metrics.multiplier_bound(sc.action_set().norm_bound())
        lam_min = min(lam_min, float(log.lam.min()), float(log.lambda_max.min()))
        lam_max = max(lam_max, float(log.lam.max()), float(log.lambda_max.max()))
        half_ok = half_ok and float(log.lambda_max.max()) <= 0.5 * bound
    ok = lam_min >= -1e-12 and lam_max <= bound
    report("C07 multiplier range [0, 4R^2+1]", ok,
           f"lambda in [{lam_min:.2e}, {lam_max:.4g}], bound {bound:.4g}; "
           f"tighter half-bound also held: {half_ok}")


# ---------------------------------------------------------------------------
# Criterion 8: saddle controller with objective (regret bound, fit growth)
# ---------------------------------------------------------------------------

SWEEP_HORIZONS = (1.0, 2.0, 4.0)


def _objective_suite(objective, n, n_sheep, h, delta=None):
    """(scenario, log, offline solution) keyed by T: each horizon's own
    scenario and offline solve, and the horizons' saddle runs as the rows of
    one simulate_rows call (saturated at delta if given)."""
    scenarios = [shepherd.generate_sheep_paths(seed=1, T=T, n=n, n_sheep=n_sheep)
                 for T in SWEEP_HORIZONS]
    sols = [solve_offline(shepherd.shepherd_env(sc, objective, noise="mean"), sc.offline_grid(),
                          sc.action_set(), viability=shepherd.viability_certificate(sc),
                          max_iter=1500)
            for sc in scenarios]
    env = shepherd.shepherd_env(scenarios, objective, noise="frozen")
    if delta is not None:
        env = env.saturate(delta)
    cfg = ControllerConfig(epsilon=50.0, h=h, mode="saddle")
    logs = _rows(env, cfg, list(SWEEP_HORIZONS), scenarios[0].action_set(), sample_stride=20)
    return {T: (sc, log, sol) for T, sc, log, sol in zip(SWEEP_HORIZONS, scenarios, logs, sols)}


@pytest.fixture(scope="module")
def black_sheep_suite():
    t0 = time.perf_counter()
    runs = _objective_suite("black_sheep", 30, 30, 1e-4)
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def min_accel_suite():
    # The norm-of-acceleration objective has subgradient magnitudes on the
    # scale of the basis second derivatives; explicit integration is faithful
    # only when eps*h*|pddot|^2 stays moderate, so this leg runs a reduced
    # action basis (sheep stay at the benchmark basis size) and a finer step.
    t0 = time.perf_counter()
    runs = _objective_suite("min_acceleration", 6, 30, 2e-5)
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def _ratio_series(runs, use_saturated=None):
    out = []
    for T in SWEEP_HORIZONS:
        sc, log, sol = runs[T]
        fv = metrics.saturated_fit(log, use_saturated) if use_saturated else metrics.fit(log)
        out.append(metrics.clipped_fit_norm(fv) / np.sqrt(max(sol.K * T, 1e-12)))
    return out


def test_c08_saddle_regret_and_fit_growth(black_sheep_suite, min_accel_suite):
    worst_gap = -np.inf
    ratio_ok = True
    details = []
    for name, suite in (("blacksheep", black_sheep_suite), ("minaccel", min_accel_suite)):
        for T in SWEEP_HORIZONS:
            sc, log, sol = suite["runs"][T]
            rep = metrics.regret(log, sol)
            sl = metrics.slack(rep.bound, log.h_eff, T, log.max_field_norm)
            worst_gap = max(worst_gap, rep.regret - (rep.bound + sl))
        ratios = _ratio_series(suite["runs"])
        for a, b in zip(ratios, ratios[1:]):
            ratio_ok = ratio_ok and (b <= 1.1 * a + 1e-12)
        details.append(f"{name} ratios {[f'{r:.3g}' for r in ratios]}")
    elapsed = black_sheep_suite["elapsed"] + min_accel_suite["elapsed"]
    report("C08 saddle controller: regret bound and sqrt-growth of clipped fit",
           worst_gap <= 0.0 and ratio_ok and elapsed < 120.0,
           f"worst regret gap {worst_gap:.3e}; {'; '.join(details)}; suite {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 9: saturated-fit repeats
# ---------------------------------------------------------------------------

DELTA = 0.1


@pytest.fixture(scope="module")
def saturated_feasibility_suite(feasibility_suite):
    t0 = time.perf_counter()
    runs = _feasibility_runs(feasibility_suite["scenarios"], DELTA)
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def saturated_objective_suites():
    t0 = time.perf_counter()
    out = {"blacksheep": _objective_suite("black_sheep", 30, 30, 1e-4, DELTA),
           "minaccel": _objective_suite("min_acceleration", 6, 30, 2e-5, DELTA)}
    return {"suites": out, "elapsed": time.perf_counter() - t0}


def test_c09_saturated_fit(feasibility_suite, saturated_feasibility_suite,
                           saturated_objective_suites):
    worst_bound_gap = -np.inf
    floor_ok = True
    for (seed, T, eps), log in saturated_feasibility_suite["runs"].items():
        sc = feasibility_suite["scenarios"][(seed, T)]
        bounds = _fit_bounds(sc, log)
        sl = metrics.slack(float(bounds.max()), log.h_eff, T, log.max_field_norm)
        worst_bound_gap = max(worst_bound_gap,
                              float(np.max(log.fit_accum - bounds[None, :])) - sl)
        floor_ok = floor_ok and bool(np.all(log.f >= -DELTA - 1e-9))
    ratio_ok = True
    for name, runs in saturated_objective_suites["suites"].items():
        ratios = []
        for T in SWEEP_HORIZONS:
            sc, log, sol = runs[T]
            floor_ok = floor_ok and bool(np.all(log.f >= -DELTA - 1e-9))
            ratios.append(metrics.clipped_fit_norm(metrics.fit(log))
                          / np.sqrt(max(sol.K * T, 1e-12)))
        for a, b in zip(ratios, ratios[1:]):
            ratio_ok = ratio_ok and (b <= 1.1 * a + 1e-12)
    elapsed = (saturated_feasibility_suite["elapsed"]
               + saturated_objective_suites["elapsed"])
    report("C09 saturated fit: bounds, floor, sqrt-growth",
           worst_bound_gap <= 0.0 and floor_ok and ratio_ok and elapsed < 120.0,
           f"worst bound gap {worst_bound_gap:.3e}, floor ok {floor_ok}, "
           f"growth ok {ratio_ok}, suite {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 10: gain scaled with the horizon
# ---------------------------------------------------------------------------

def test_c10_gain_scaled_with_horizon(black_sheep_suite):
    t0 = time.perf_counter()
    maxfits = {}
    slacks = {}
    for T in SWEEP_HORIZONS:
        eps = 50.0 * T
        h = min(1e-4, 5e-3 / eps)  # keep eps*h at the benchmark scale
        if T == 1.0:
            log = black_sheep_suite["runs"][T][1]
        else:
            sc = shepherd.generate_sheep_paths(seed=1, T=T)
            env = shepherd.shepherd_env(sc, "black_sheep", noise="frozen")
            cfg = ControllerConfig(epsilon=eps, h=h, mode="saddle")
            log = simulate(env, cfg, T=T, X=sc.action_set(), sample_stride=20)
        maxfits[T] = float(log.final_fit.max())
        slacks[T] = metrics.slack(abs(maxfits.get(1.0, maxfits[T])), log.h_eff, T,
                                  log.max_field_norm)
    ok = all(maxfits[T] <= maxfits[1.0] + slacks[T] for T in SWEEP_HORIZONS)
    report("C10 gain proportional to horizon keeps fit at its T=1 level", ok,
           f"max fits {[f'{maxfits[T]:.4g}' for T in SWEEP_HORIZONS]}, "
           f"{time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 11: sheep-path QP
# ---------------------------------------------------------------------------

def test_c11_sheep_path_qp(benchmark_scenario):
    t0 = time.perf_counter()
    sc = benchmark_scenario
    con_times = np.concatenate([[0.0], (np.arange(1, sc.L + 1) * sc.T) / (sc.L + 1), [sc.T]])
    P, _, _ = shepherd.basis_matrices(sc.basis, sc.n_sheep, con_times, sc.T)
    endpoint = 0.0
    waypoint = 0.0
    for i in range(sc.m):
        targets = np.vstack([[0.0, 0.0], sc.waypoints + sc.offsets[i], [1.0, 1.0]])
        recon = np.stack([P @ sc.sheep_coeffs[i, 0], P @ sc.sheep_coeffs[i, 1]], axis=1)
        resid = np.abs(recon - targets)
        endpoint = max(endpoint, float(resid[0].max()), float(resid[-1].max()))
        waypoint = max(waypoint, float(resid.max()))
    # straight-line case, exact to 1e-8
    G = shepherd.acceleration_gram("legendre", 8, 1.0)
    rows, _, _ = shepherd.basis_matrices("legendre", 8, np.array([0.0, 1.0]), 1.0)
    coef, _ = shepherd._solve_path_qp(G, rows, np.array([0.0, 1.0]))
    ts = np.linspace(0.0, 1.0, 101)
    Pl, _, _ = shepherd.basis_matrices("legendre", 8, ts, 1.0)
    line_err = float(np.max(np.abs(Pl @ coef - ts)))
    # QP objective equals the acceleration quadrature (Richardson trapezoid)
    Gm = shepherd.acceleration_gram(sc.basis, sc.n_sheep, sc.T)
    c0 = sc.sheep_coeffs[0, 0]

    def quad_accel(num):
        tq = np.linspace(0.0, sc.T, num)
        _, _, Pdd = shepherd.basis_matrices(sc.basis, sc.n_sheep, tq, sc.T)
        return float(np.trapezoid((Pdd @ c0) ** 2, tq))

    fine, coarse = quad_accel(20001), quad_accel(10001)
    exact = float(c0 @ Gm @ c0)
    quad_gap = abs(exact - (fine + (fine - coarse) / 3.0)) / max(1.0, abs(exact))
    elapsed = time.perf_counter() - t0
    ok = endpoint <= 1e-8 and waypoint <= 1e-6 and line_err <= 1e-8 and quad_gap <= 1e-6 and elapsed < 1.0
    report("C11 sheep-path QP", ok,
           f"endpoint {endpoint:.1e}, waypoint {waypoint:.1e}, line {line_err:.1e}, "
           f"objective-vs-quadrature {quad_gap:.1e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 12: subgradient validation
# ---------------------------------------------------------------------------

def test_c12_subgradient_validation(benchmark_scenario):
    rng = np.random.default_rng(99)
    worst = 0.0
    envs = {
        "constraints": shepherd.shepherd_env(benchmark_scenario, "none"),
        "blacksheep": shepherd.shepherd_env(benchmark_scenario, "black_sheep"),
        "minaccel": shepherd.shepherd_env(benchmark_scenario, "min_acceleration"),
        "tracking": tracking_env(rng.uniform(-1.5, 1.5, size=(16, 2)), 1.0),
    }
    for name, env in envs.items():
        for _ in range(200):
            t = rng.uniform(0.0, 1.0)
            x = rng.uniform(-1.0, 1.0, size=env.n)
            worst = max(worst, finite_diff_check(env, t, x, 1e-6))
    report("C12 subgradient finite-difference validation (200 points x 4 envs)",
           worst <= 1e-5, f"max relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 13: discretization convergence and byte determinism
# ---------------------------------------------------------------------------

def test_c13_discretization_and_determinism(feasibility_suite, black_sheep_suite, tmp_path):
    sc = feasibility_suite["scenarios"][(1, 1.0)]
    env = shepherd.shepherd_env(sc, "none", noise="frozen")
    fits = {}
    for h in (1e-4, 5e-5, 2.5e-5):
        if h == 1e-4:
            fits[h] = feasibility_suite["runs"][(1, 1.0, 50.0)].final_fit
        else:
            cfg = ControllerConfig(epsilon=50.0, h=h, mode="feasibility")
            fits[h] = simulate(env, cfg, T=1.0, X=sc.action_set(), sample_stride=20).final_fit
    d1 = float(np.max(np.abs(fits[1e-4] - fits[5e-5])))
    d2 = float(np.max(np.abs(fits[5e-5] - fits[2.5e-5])))
    fit_ok = d1 <= 2.0 * (2.0 * d2) + 1e-9

    # regret convergence on the objective-bearing run (the feasibility-only
    # run has no objective, so its regret is identically zero at any h)
    sc_bs, log_bs, sol = black_sheep_suite["runs"][1.0]
    env_bs = shepherd.shepherd_env(sc_bs, "black_sheep", noise="frozen")
    regs = {1e-4: metrics.regret(log_bs, sol).regret}
    for h in (5e-5, 2.5e-5):
        cfg = ControllerConfig(epsilon=50.0, h=h, mode="saddle")
        log_h = simulate(env_bs, cfg, T=1.0, X=sc_bs.action_set(), sample_stride=20)
        regs[h] = metrics.regret(log_h, sol).regret
    r1 = abs(regs[1e-4] - regs[5e-5])
    r2 = abs(regs[5e-5] - regs[2.5e-5])
    regret_ok = r1 <= 2.0 * (2.0 * r2) + 1e-9

    # byte-identical CSVs for identical seeds
    outs = []
    for name in ("d1", "d2"):
        scn = tmp_path / f"{name}.json"
        run = tmp_path / name
        assert cli.main(["generate", "--seed", "5", "--n", "10", "--n-sheep", "10",
                         "--noise-cells", "200", "--out", str(scn)]) == 0
        assert cli.main(["simulate", "--scenario", str(scn), "--mode", "feasibility",
                         "--epsilon", "50", "--step", "1e-3", "--out", str(run)]) == 0
        outs.append((run / "trajectory.csv").read_bytes())
    deterministic = outs[0] == outs[1]
    report("C13 discretization convergence and determinism",
           fit_ok and regret_ok and deterministic,
           f"fit diffs {d1:.2e}/{d2:.2e}, regret diffs {r1:.2e}/{r2:.2e}, "
           f"bytes identical {deterministic}")
