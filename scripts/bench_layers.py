"""Per-layer timings of one source tree, for the ``BENCH_*.json`` files.

Usage (each side of a comparison runs against its own ``src``):

    PYTHONPATH=src python scripts/bench_layers.py micro --out micro.json
    PYTHONPATH=src python scripts/bench_layers.py viability --out viability.json
    python scripts/bench_layers.py coldstart --root . --out coldstart.json
    python scripts/bench_layers.py fixtures --root . --out fixtures.json
    python scripts/bench_layers.py merge --before B1.json B2.json \\
        --after A1.json A2.json --out BENCH_4.json
    python scripts/bench_layers.py ab --before ../parent --after . --out ab.json

``micro`` times the layers of one step at action dimension 12 and 60
(``step_layers_us``: the shepherd ``raw`` per objective, the projected step
of one joined state row [x | lam] and the Box and orthant field projections
of one block of BLOCK_STEPS steps), one block check of the integrator
(``block_check_us``), in-process ``generate_sheep_paths``,
``simulate_rows`` per run-step with B = 1, 2 and 6
rows (seeds 1..B; feasibility at dimension 60, min-acceleration saddle at 12;
a tree without ``simulate_rows`` runs the B runs one after another through
``simulate``), a fresh one-step saddle ``simulate`` at the same
dimensions (a new environment each call, so the time is mostly building its
start-up tables), one build of the time tables for a block of integrator
steps (K=512), and on the regret-chain configuration (seed 1,
T=0.25, black sheep, noise-mean environment, 1,001-node grid) one table build
of the offline grid, one ``batch_evaluate`` call with its pullback (one action,
and one action per node) and one ``batch_constraints`` call on that grid,
``Box.project_point`` of a (1001, 60) stack of rows onto the action box,
``estimate_K``, ``solve_offline`` at 600 iterations, and on the 2,501-row log
of the workload's saddle run ``write_trajectory_csv`` and ``report``'s figures
of that CSV (both written next to ``--out`` and removed).  ``offline_cost_gap``
rows give the relative gap of ``solve_offline``'s cost to a dense SLSQP
reference solved here with every node constraint: black sheep on the
regret-chain scenario at the benchmark's 600 iterations, and min-acceleration
on the C08 T=1 scenario (n=6) at the suite's 1,500.  ``viability`` times
``generate --n 6 --n-sheep 30`` at seeds 0, 35, 43 and 46, where the
viability search takes the time, and records its iterations and residual,
plus the ``estimate_K`` and ``solve_offline`` rows above.  ``coldstart`` runs
fresh interpreters on the ``src`` under ``--root`` and records each one's wall
time and its own peak resident memory: ``import saddlesim.cli``, then the
benchmark's command lines at seed 1, ``generate`` and ``offline`` of
regret-chain, ``simulate`` and ``report`` of minaccel-fine, ensemble's
set-up (its two ``generate`` commands in one interpreter, as the benchmark
runs them) and its saturated ``simulate --sweep``, which regenerates the
scenario at each horizon in process.  ``fixtures``
runs the C05, C08 and C09 acceptance tests and reads the fixture times they
print.  ``tier1`` times the whole test suite once.  ``ab`` imports the
``src/saddlesim`` of the two trees ``--before`` and ``--after`` into one
process under two package names and times the offline solver's layers on the
regret-chain configuration, both trees once per repeat with the tree that
runs first alternating, so that both sides see the same phases of the host's
speed: one Lagrangian evaluation of the multiplier loop (values, constraints
and the gradient at multipliers, at x-dagger) for black sheep and
min-acceleration, plain and saturated at 0.1, then ``solve_offline`` at 600
iterations, ``estimate_K`` at x-dagger and a viability search of the
scenario run to its own stop (``check_viability`` from the herd-centre path
with no interior target, 500 Lagrangian evaluations), and ``simulate_rows``
per step on the benchmark's three run configurations at seed 1 and on a C03
tracking run (see ``ab_simulate_cases``); compare the step times of two
trees with these rows, since separate runs of one tree scatter by up to 2x
on a shared host.  Each ``ab`` row carries ``after_better``, the repeats in
which the after tree was faster, and ``after_over_before``, the after/before
time ratio of each repeat.
Every figure is a median with its quartiles over the repeats.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BLOCK_STEPS = 512


def summary(samples) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "repeats": len(samples),
            "samples": [float(s) for s in samples]}


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def micro(repeats: int, workdir: str) -> dict:
    from saddlesim import shepherd
    from saddlesim.cli import _read_csv, _render_run_figures, write_trajectory_csv
    from saddlesim.dynamics import ControllerConfig, simulate

    out = {}
    for nb in (6, 30):
        sc = shepherd.generate_sheep_paths(seed=1, n=nb, n_sheep=30, noise_cells=200)
        out[f"simulate_one_step_fresh_ms.saddle.n{2 * nb}"] = one_step_fresh_ms(sc, repeats)
        ts = np.arange(BLOCK_STEPS) * 1e-4 + 1e-4
        out[f"table_build_ms.K{BLOCK_STEPS}.n{2 * nb}"] = table_build_ms(sc, "frozen", ts, repeats)
        out.update(step_layers_us(sc, repeats))
    out.update(block_check_us(repeats))
    out.update(generate_ms(repeats))
    out.update(rows_us_per_run_step(repeats))
    sc = shepherd.generate_sheep_paths(seed=1, T=0.25)
    ts = sc.offline_grid().nodes()
    out[f"table_build_ms.K{ts.shape[0]}.regret_chain"] = table_build_ms(sc, "mean", ts, repeats)
    env = shepherd.shepherd_env(sc, "black_sheep", noise="mean")
    out.update(grid_lagrangian_us(sc, env, ts, repeats))
    out["box_project_point_us.rows1001_n60"] = rows_projection_us(sc.action_set(), ts.shape[0], repeats)
    out.update(offline_times(sc, repeats))
    out["offline_cost_gap.black_sheep.regret_chain_600"] = offline_cost_gap(sc, "black_sheep", 600)
    c08 = shepherd.generate_sheep_paths(seed=1, T=1.0, n=6, n_sheep=30)
    out["offline_cost_gap.min_acceleration.c08_T1_1500"] = offline_cost_gap(c08, "min_acceleration", 1500)
    log = simulate(shepherd.shepherd_env(sc, "black_sheep"),
                   ControllerConfig(epsilon=50.0, h=1e-4, mode="saddle"),
                   T=sc.T, X=sc.action_set(), sample_stride=1)
    path = os.path.join(workdir, "bench_layers_trajectory.csv")
    writes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        write_trajectory_csv(path, log)
        writes.append(time.perf_counter() - t0)
    header, data = _read_csv(path)
    renders = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _render_run_figures(Path(workdir), {}, header, data, Path(workdir))
        renders.append(1e3 * (time.perf_counter() - t0))
    for name in ("fit_vs_t.svg", "lambda_vs_t.svg"):
        os.remove(os.path.join(workdir, name))
    os.remove(path)
    out[f"write_trajectory_csv_s.regret_chain_{log.t.shape[0]}"] = summary(writes)
    out[f"render_run_figures_ms.regret_chain_{log.t.shape[0]}"] = summary(renders)
    return out


def per_call_us(call, repeats: int, calls: int = 2000) -> dict:
    """Microseconds per call of ``call()``, after one untimed call."""
    call()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        samples.append(1e6 * (time.perf_counter() - t0) / calls)
    return summary(samples)


def step_layers_us(sc, repeats: int) -> dict:
    """The layers of one integrator step at the scenario's action dimension,
    each timed alone on the inputs a step gives it: the shepherd per-node
    evaluator ``raw`` of every objective at x-dagger (see ``raw_call``),
    node 7 of a one-row block of BLOCK_STEPS nodes (h = 2e-5); the projected
    step of one (1, n + 5) state row [x | lam] (x-dagger, multipliers with
    two at 0) along a random field at h = 1e-4, written in place and
    projected onto X x R+^5 as ``simulate_rows`` steps it (in place where
    ``project_point`` takes ``out``; in a tree without the joined state, its
    two steps, Box.project_point of x + h v and
    NonnegativeOrthant.project_point of lam + h w); and the per-block calls,
    Box.project_field of a (BLOCK_STEPS, 1, n) stack of x-dagger rows and
    NonnegativeOrthant.project_field of a (BLOCK_STEPS, 1, 5) stack of those
    multiplier rows, each with random fields."""
    from saddlesim import convex_sets, shepherd

    n, out = sc.action_dim, {}
    ts = (np.arange(BLOCK_STEPS) * 2e-5 + 2e-5)[None]
    x = sc.xdagger[None].copy()
    for objective in shepherd.OBJECTIVES:
        env = shepherd.shepherd_env(sc, objective)
        raw = env.on_grid(ts, np.arange(1))
        out[f"raw_us.{objective}.n{n}"] = per_call_us(raw_call(raw, x, sc.m), repeats)
    X, Lam = sc.action_set(), convex_sets.NonnegativeOrthant(sc.m)
    rng = np.random.default_rng(0)
    lam, u = np.array([[0.0, 0.3, 0.0, 1.2, 0.5]]), rng.standard_normal((1, n + 5))
    z0, hz = np.hstack([x, lam]), np.full((1, n + 5), 1e-4)
    if hasattr(convex_sets, "StateSet"):
        S, z = convex_sets.StateSet(X, 5), z0.copy()
        in_place = "out" in inspect.signature(S.project_point).parameters

        def step():
            np.multiply(hz, u, out=z)
            np.add(z0, z, out=z)
            if in_place:
                S.project_point(z, out=z)
            else:
                z[...] = S.project_point(z)
    else:
        (hx, hl), (v, w) = np.split(hz, [n], axis=1), np.split(u, [n], axis=1)

        def step():
            X.project_point(x + hx * v)
            Lam.project_point(lam + hl * w)
    out[f"state_step_us.n{n}_m5"] = per_call_us(step, repeats)
    xs, vs = np.tile(x, (BLOCK_STEPS, 1, 1)), rng.standard_normal((BLOCK_STEPS, 1, n))
    out[f"box_project_field_us.block{BLOCK_STEPS}.n{n}"] = per_call_us(
        lambda: X.project_field(xs, vs), repeats, calls=200)
    if n == 12:  # the multipliers do not depend on the action dimension
        lams, ws = np.tile(lam, (BLOCK_STEPS, 1, 1)), rng.standard_normal((BLOCK_STEPS, 1, 5))
        out[f"orthant_project_field_us.block{BLOCK_STEPS}.m5"] = per_call_us(
            lambda: Lam.project_field(lams, ws), repeats, calls=200)
    return out


def raw_call(raw, x, m: int):
    """One call of the per-node evaluator ``raw`` at node 7 and the actions
    x, under either protocol: ``raw(k, X, out)``, which writes f0 and f into a
    row buffer out (R, 1 + m), or ``raw(k, X)``, which returns them."""
    if len(inspect.signature(raw).parameters) == 3:
        row = np.empty((x.shape[0], 1 + m))
        return lambda: raw(7, x, row)
    return lambda: raw(7, x)


def block_check_us(repeats: int) -> dict:
    """One block check of the integrator, ``dynamics._check_block``, on a
    block of BLOCK_STEPS nodes that passes it (every output finite, no state
    past the limit), so the whole pass runs: (nodes, rows, n) = (512, 1, 12)
    and (512, 2, 60), with m = 5 constraints."""
    from saddlesim.dynamics import _check_block

    rng, m, out = np.random.default_rng(0), 5, {}
    for R, n in ((1, 12), (2, 60)):
        ts = np.tile(np.arange(BLOCK_STEPS) * 1e-4 + 1e-4, (R, 1))
        xs = rng.uniform(-1.0, 1.0, (BLOCK_STEPS, R, n))
        lams, V = rng.uniform(0.0, 1.0, (BLOCK_STEPS, R, m)), rng.standard_normal((BLOCK_STEPS, R, 1 + m))
        g0_ok, G_ok = np.ones((BLOCK_STEPS, R, n), bool), np.ones((BLOCK_STEPS, R, n, m), bool)
        out[f"check_block_us.block{BLOCK_STEPS}.R{R}.n{n}"] = per_call_us(
            lambda: _check_block(ts, xs, lams, V, g0_ok, G_ok, 1), repeats, calls=200)
    return out


def c03_pointwise_env(package):
    """The C03 tracking problem: a one-row pointwise environment f0 = |x -
    c(t)|^2 (n=2, m=0, c piecewise constant over 16 segments of [0, 1]) and
    the box [-2, 2]^2."""
    values = np.random.default_rng(2024).uniform(-1.5, 1.5, (16, 2))
    none_f, none_G = np.zeros(0), np.zeros((2, 0))

    def evaluate(t, x):
        d = x - values[min(int(t * 16), 15)]
        return float(d @ d), 2.0 * d, none_f, none_G

    box = package.convex_sets.Box([-2.0, -2.0], [2.0, 2.0])
    return package.environment.pointwise(2, 0, evaluate), box


def generate_ms(repeats: int) -> dict:
    """In-process generate_sheep_paths at seed 1: the default configuration
    and minaccel-fine's (n=6, n_sheep=30), both accepting their first draw."""
    from saddlesim import shepherd

    out = {}
    for name, kw in (("default", {}), ("minaccel_fine", {"n": 6, "n_sheep": 30})):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            shepherd.generate_sheep_paths(seed=1, **kw)
            samples.append(1e3 * (time.perf_counter() - t0))
        out[f"generate_ms.seed1_{name}"] = summary(samples)
    return out


def rows_us_per_run_step(repeats: int, steps: int = 2000) -> dict:
    """Microseconds per run-step of B runs as the rows of one simulate_rows
    call, B in (1, 2, 6): feasibility at action dimension 60 (h = 1e-4) and
    min-acceleration saddle at 12 (h = 2e-5), on the scenarios of seeds 1..B
    (n_sheep=30, noise_cells=200), ``steps`` steps each."""
    from saddlesim import dynamics, shepherd

    rows = getattr(dynamics, "simulate_rows", None)
    out = {}
    for nb, mode, objective, h in ((30, "feasibility", "none", 1e-4),
                                   (6, "saddle", "min_acceleration", 2e-5)):
        scs = [shepherd.generate_sheep_paths(seed=seed, n=nb, n_sheep=30, noise_cells=200)
               for seed in range(1, 7)]
        cfg = dynamics.ControllerConfig(epsilon=50.0, h=h, mode=mode)
        X = scs[0].action_set()
        for B in (1, 2, 6):
            if rows is not None:
                env = shepherd.shepherd_env(scs[:B], objective)
                calls = [lambda: rows(env, cfg, [steps * h] * B, X)]
            else:  # one run after another
                calls = [lambda e=shepherd.shepherd_env(sc, objective): dynamics.simulate(
                    e, cfg, T=steps * h, X=X) for sc in scs[:B]]
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for call in calls:
                    call()
                samples.append(1e6 * (time.perf_counter() - t0) / (B * steps))
            out[f"rows_us_per_run_step.{mode}.n{2 * nb}.B{B}"] = summary(samples)
    return out


def one_step_fresh_ms(sc, repeats: int, calls: int = 20) -> dict:
    """One saddle step of simulate on a fresh black-sheep environment per
    call, so that every call builds its start-up tables."""
    from saddlesim import shepherd
    from saddlesim.dynamics import ControllerConfig, simulate

    cfg = ControllerConfig(epsilon=50.0, h=1e-4, mode="saddle")
    samples = []
    for _ in range(repeats):
        envs = [shepherd.shepherd_env(sc, "black_sheep") for _ in range(calls)]
        t0 = time.perf_counter()
        for env in envs:
            simulate(env, cfg, T=cfg.h, X=sc.action_set())
        samples.append(1e3 * (time.perf_counter() - t0) / calls)
    return summary(samples)


def rows_projection_us(X, rows: int, repeats: int, calls: int = 200) -> dict:
    """One X.project_point call on a (rows, X.dim) stack, half its entries
    outside the box."""
    Z = np.random.default_rng(0).uniform(-2.0, 2.0, size=(rows, X.dim)) * X.upper
    return per_call_us(lambda: X.project_point(Z), repeats, calls)


def offline_times(sc, repeats: int) -> dict:
    """estimate_K at x-dagger and solve_offline at 600 iterations on the
    black-sheep noise-mean environment of the scenario sc, after one untimed
    estimate_K that builds the time tables of the offline grid."""
    from saddlesim import shepherd
    from saddlesim.offline import estimate_K, solve_offline

    env = shepherd.shepherd_env(sc, "black_sheep", noise="mean")
    estimate_K(env, sc.offline_grid(), sc.action_set(), sc.xdagger)
    k_times, solve_times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        estimate_K(env, sc.offline_grid(), sc.action_set(), sc.xdagger)
        k_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        solve_offline(env, sc.offline_grid(), sc.action_set(),
                      viability=shepherd.viability_certificate(sc), max_iter=600)
        solve_times.append(time.perf_counter() - t0)
    return {"estimate_K_s.regret_chain": summary(k_times),
            "solve_offline_s.regret_chain_600": summary(solve_times)}


def viability(repeats: int) -> dict:
    """generate at --n 6 --n-sheep 30 for seeds 0, 35, 43 and 46, whose time
    is the viability search's (its first draw is accepted), with the
    iterations and residual of that search, and the offline_times rows of the
    regret-chain scenario."""
    from saddlesim import shepherd

    out = {}
    for seed in (0, 35, 43, 46):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            sc = shepherd.generate_sheep_paths(seed=seed, n=6, n_sheep=30)
            times.append(time.perf_counter() - t0)
        out[f"viability_s.n6_seed{seed}"] = summary(times)
        out[f"viability_iterations.n6_seed{seed}"] = sc.viability_iterations
        out[f"viability_residual.n6_seed{seed}"] = sc.viability_residual
    out.update(offline_times(shepherd.generate_sheep_paths(seed=1, T=0.25), repeats))
    return out


def offline_cost_gap(sc, objective: str, max_iter: int) -> float:
    """(cost - reference) / reference for solve_offline against SLSQP over
    every node constraint, both on the noise-mean environment."""
    from scipy.optimize import minimize

    from saddlesim import shepherd
    from saddlesim.offline import solve_offline

    env = shepherd.shepherd_env(sc, objective, noise="mean")
    grid, X = sc.offline_grid(), sc.action_set()
    sol = solve_offline(env, grid, X, viability=shepherd.viability_certificate(sc),
                        max_iter=max_iter)
    ts, w = grid.nodes(), grid.trapezoid_weights()
    K, m = ts.shape[0], sc.m
    zero_mu = np.zeros((K, m))

    def cost(x):
        f0, _, pull = env.batch_evaluate(ts, x)
        return float(w @ f0), pull(w, zero_mu)

    def jacobian(x):  # row (k, i) is grad f_i(t_k, x): a unit multiplier on constraint i alone
        pull = env.batch_evaluate(ts, np.tile(x, (K, 1)))[2]
        return -np.stack([pull(np.zeros(K), np.eye(m)[[i] * K]) for i in range(m)],
                         axis=1).reshape(K * m, -1)

    ref = minimize(cost, sc.xdagger, jac=True, method="SLSQP", bounds=list(zip(X.lower, X.upper)),
                   constraints=[{"type": "ineq", "jac": jacobian,
                                 "fun": lambda x: -env.batch_constraints(ts, x).ravel()}],
                   options={"maxiter": 500, "ftol": 1e-14}).fun
    return (sol.offline_cost - ref) / ref


def grid_lagrangian_us(sc, env, ts, repeats: int, calls: int = 200) -> dict:
    """One call of the grid Lagrangian on the nodes ts with the tables built,
    its values and its pullback at multipliers mu: at x-dagger (one action),
    at x-dagger on every node (one action per node, the form estimate_K
    uses), and the constraints alone at x-dagger."""
    rng = np.random.default_rng(0)
    K = ts.shape[0]
    w = sc.offline_grid().trapezoid_weights()
    mu = rng.uniform(0.0, 1.0, size=(K, sc.m))
    xs = np.tile(sc.xdagger, (K, 1))
    cases = {"batch_evaluate_us.one_action": lambda: env.batch_evaluate(ts, sc.xdagger)[2](w, mu),
             "batch_evaluate_us.per_node": lambda: env.batch_evaluate(ts, xs)[2](w, mu),
             "batch_constraints_us.one_action": lambda: env.batch_constraints(ts, sc.xdagger)}
    return {f"{name}.regret_chain": per_call_us(call, repeats, calls)
            for name, call in cases.items()}


def table_build_ms(sc, noise: str, ts, repeats: int) -> dict:
    """One build of the black-sheep time tables at the nodes ts, on a fresh
    environment each repeat so that no kept table is reused."""
    from saddlesim import shepherd

    build = []
    for _ in range(repeats):
        env = shepherd.shepherd_env(sc, "black_sheep", noise=noise)
        t0 = time.perf_counter()
        env.grid_evaluator(ts)
        build.append(1e3 * (time.perf_counter() - t0))
    return summary(build)


# Linux counts the peak memory of a forked child from before its exec, so a
# child forked from this process (numpy loaded) could read no lower than this
# process's own peak.  A bare interpreter without site (a few MB) starts the
# command and reports the command's own wall time and peak instead.
_LAUNCHER = """import os, sys, time
t0 = time.perf_counter()
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status))
"""


def _fresh_interpreter(argv: list[str], env: dict) -> tuple[float, float]:
    """Wall time (s) and peak resident memory (MB) of the command argv, run as
    a fresh process."""
    proc = subprocess.run([sys.executable, "-S", "-c", _LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    elapsed, peak_mb, code = proc.stdout.split()
    if int(code) != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return float(elapsed), float(peak_mb)


def coldstart(root: str, repeats: int) -> dict:
    """Fresh-interpreter start-up of the CLI, one command per interpreter, on
    the benchmark's seed-1 command lines."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    py = [sys.executable]
    cli = [*py, "-m", "saddlesim"]
    tmp = tempfile.mkdtemp(prefix="bench_layers_coldstart_")
    try:
        chain, fine, ens, rep = (os.path.join(tmp, name)
                                 for name in ("chain.json", "fine.json", "ens.json", "rep"))
        _fresh_interpreter([*cli, "generate", "--seed", "1", "--n", "6", "--n-sheep", "30",
                            "--out", fine], env)
        _fresh_interpreter([*cli, "generate", "--seed", "1", "--out", ens], env)
        ens_setup = ("from saddlesim import cli\n"
                     "for seed in '1', '2':\n"
                     f"    assert cli.main(['generate', '--seed', seed, '--out', {tmp!r} + '/ens' "
                     "+ seed + '.json']) == 0\n")
        commands = {
            "import_cli": [*py, "-c", "import saddlesim.cli"],
            "generate.regret_chain": [*cli, "generate", "--seed", "1", "--horizon", "0.25",
                                      "--out", chain],
            "offline.regret_chain": [*cli, "offline", "--scenario", chain, "--objective",
                                     "blacksheep", "--max-iter", "600",
                                     "--out", os.path.join(tmp, "offline.json")],
            "simulate.minaccel_fine": [*cli, "simulate", "--scenario", fine, "--mode", "saddle",
                                       "--objective", "minaccel", "--epsilon", "50",
                                       "--step", "2e-5", "--horizon", "0.1", "--stride", "20",
                                       "--out", os.path.join(rep, "minaccel")],
            "report.minaccel_fine": [*cli, "report", "--results", rep],
            "generate.ensemble": [*py, "-c", ens_setup],
            "simulate.ensemble_sat_sweep": [*cli, "simulate", "--scenario", ens, "--mode",
                                            "feasibility", "--epsilon", "50", "--sweep", "0.1,0.2",
                                            "--delta", "0.1", "--out", os.path.join(tmp, "sweep")],
        }
        wall = {name: [] for name in commands}
        rss = {name: [] for name in commands}
        for _ in range(repeats):
            for name, argv in commands.items():
                elapsed, peak = _fresh_interpreter(argv, env)
                wall[name].append(elapsed)
                rss[name].append(peak)
    finally:
        shutil.rmtree(tmp)
    out = {}
    for name in commands:
        out[f"coldstart_s.{name}"] = summary(wall[name])
        out[f"coldstart_rss_mb.{name}"] = summary(rss[name])
    return out


FIXTURE_RE = {
    "C05": re.compile(r"\] C05 .*suite ([0-9.]+)s"),
    "C08": re.compile(r"\] C08 .*suite ([0-9.]+)s"),
    "C09": re.compile(r"\] C09 .*suite ([0-9.]+)s"),
}


def fixtures(root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "c05 or c08 or c09"],
        cwd=root, env=env, capture_output=True, text=True)
    out = {}
    for name, pat in FIXTURE_RE.items():
        hit = pat.search(proc.stdout)
        out[f"fixture_s.{name}"] = float(hit.group(1)) if hit else None
    return out


def tier1(root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=root, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed)", proc.stdout)}
    return {"tier1_wall_s": elapsed, "tier1_passed": counts.get("passed", 0),
            "tier1_failed": counts.get("failed", 0)}


def import_tree(root: str, name: str):
    """The ``saddlesim`` package under ``root/src``, imported as the package
    ``name``; its modules import one another relatively, so two trees can be
    loaded side by side."""
    path = os.path.join(os.path.abspath(root), "src", "saddlesim")
    spec = importlib.util.spec_from_file_location(name, os.path.join(path, "__init__.py"),
                                                  submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def lagrangian_evaluation(env, ts, x, w, mu):
    """One Lagrangian evaluation of the multiplier loop at x: the grid values,
    the constraints and the gradient at the multipliers mu.  A tree whose
    ``batch_evaluate`` takes (ts, x, w, mu) makes it as its loop did, with
    one ``batch_constraints`` call and one ``batch_evaluate`` call."""
    if len(inspect.signature(env.batch_evaluate).parameters) == 4:
        return env.batch_constraints(ts, x), env.batch_evaluate(ts, x, w, mu)
    f0, f, pull = env.batch_evaluate(ts, x)
    return f0, f, pull(w, mu)


def ab_cases(package) -> dict:
    """name -> (call, unit scale, calls per sample) for one tree."""
    shepherd, offline = package.shepherd, package.offline
    sc = shepherd.generate_sheep_paths(seed=1, T=0.25)
    grid, X = sc.offline_grid(), sc.action_set()
    ts, w = grid.nodes(), grid.trapezoid_weights()
    mu = np.random.default_rng(0).uniform(0.0, 1.0, size=(ts.shape[0], sc.m))
    cases = {}
    for objective in ("black_sheep", "min_acceleration"):
        for label, delta in (("plain", None), ("sat0.1", 0.1)):
            env = shepherd.shepherd_env(sc, objective, noise="mean")
            env = env if delta is None else env.saturate(delta)
            cases[f"lagrangian_eval_us.{objective}.{label}.regret_chain"] = (
                lambda env=env: lagrangian_evaluation(env, ts, sc.xdagger, w, mu), 1e6, 200)
    env = shepherd.shepherd_env(sc, "black_sheep", noise="mean")
    via = shepherd.viability_certificate(sc)
    cases["solve_offline_s.regret_chain_600"] = (
        lambda: offline.solve_offline(env, grid, X, viability=via, max_iter=600), 1.0, 1)
    cases["estimate_K_s.regret_chain"] = (
        lambda: offline.estimate_K(env, grid, X, sc.xdagger), 1.0, 1)
    none = shepherd.shepherd_env(sc, "none", noise="mean")
    x_init = shepherd.encode_coeffs(sc.sheep_coeffs.mean(axis=0))
    cases["check_viability_s.regret_chain"] = (
        lambda: offline.check_viability(none, grid, X, x_init=x_init), 1.0, 1)
    cases.update(ab_simulate_cases(package))
    for call, _, _ in cases.values():  # builds the tables of the offline grid
        call()
    return cases


def ab_simulate_cases(package) -> dict:
    """Microseconds per run-step (the steps of every row) of one
    ``simulate_rows`` call on each of the benchmark's run configurations at
    seed 1, in the frozen-noise environment the CLI runs: minaccel-fine's
    saddle run (5,000 steps, stride 20), regret-chain's saddle run (2,500
    steps, stride 1) and ensemble's plain feasibility sweep, its horizons 0.1
    and 0.2 as the two rows of one call (3,000 run-steps, stride 10); and a
    C03 tracking run, gradient mode on the one-row pointwise environment of
    ``c03_pointwise_env`` at eps = 5, h = 1e-4, T = 1 (stride 20)."""
    shepherd, dynamics = package.shepherd, package.dynamics
    fine = shepherd.generate_sheep_paths(seed=1, n=6, n_sheep=30)
    chain = shepherd.generate_sheep_paths(seed=1, T=0.25)
    sweep = shepherd.generate_sheep_paths(seed=1)
    sweep = [shepherd.regenerate(sweep, T=T) for T in (0.1, 0.2)]
    runs = {"minaccel_fine": (fine, "min_acceleration", "saddle", 2e-5, [0.1], 20),
            "regret_chain_saddle": (chain, "black_sheep", "saddle", 1e-4, [chain.T], 1),
            "ensemble_feasibility_rows": (sweep, "none", "feasibility", 1e-4, [0.1, 0.2], 10)}
    c03, box = c03_pointwise_env(package)
    c03_cfg = dynamics.ControllerConfig(epsilon=5.0, h=1e-4, mode="gradient")
    cases = {"simulate_us_per_step.c03_tracking": (
        lambda: dynamics.simulate(c03, c03_cfg, T=1.0, X=box, sample_stride=20), 1e6 / 10000, 1)}
    for name, (scenarios, objective, mode, h, Ts, stride) in runs.items():
        env = shepherd.shepherd_env(scenarios, objective, noise="frozen")
        cfg = dynamics.ControllerConfig(epsilon=50.0, h=h, mode=mode)
        X = (scenarios[0] if isinstance(scenarios, list) else scenarios).action_set()
        steps = sum(round(T / h) for T in Ts)
        cases[f"simulate_us_per_step.{name}"] = (
            lambda env=env, cfg=cfg, Ts=Ts, X=X, stride=stride: dynamics.simulate_rows(
                env, cfg, Ts, X, sample_stride=stride), 1e6 / steps, 1)
    return cases


def ab(before_root: str, after_root: str, repeats: int) -> dict:
    sides = {"before": ab_cases(import_tree(before_root, "saddlesim_before")),
             "after": ab_cases(import_tree(after_root, "saddlesim_after"))}
    samples = {side: {name: [] for name in cases} for side, cases in sides.items()}
    for r in range(repeats):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            for name, (call, scale, calls) in sides[side].items():
                t0 = time.perf_counter()
                for _ in range(calls):
                    call()
                samples[side][name].append(scale * (time.perf_counter() - t0) / calls)
    rows = {}
    for name in sides["after"]:
        b, a = samples["before"][name], samples["after"][name]
        rows[name] = {"before": summary(b), "after": summary(a),
                      "after_over_before": summary([x / y for x, y in zip(a, b)]),
                      "after_better": int(sum(x < y for x, y in zip(a, b)))}
    return rows


def merge(before: list[str], after: list[str]) -> dict:
    """Pool the samples of several runs per side (run the sides alternately)
    into before/after rows."""
    def fold(paths):
        pooled = {}
        for p in paths:
            with open(p) as fh:
                data = json.load(fh)
            for key, val in data["rows"].items():
                if val is not None:
                    pooled.setdefault(key, []).extend(val["samples"] if isinstance(val, dict) else [val])
        return {k: summary(v) for k, v in pooled.items()}, data["machine"]

    b_rows, mach = fold(before)
    a_rows, _ = fold(after)
    return {"machine": mach,
            "rows": {k: {"before": b_rows.get(k), "after": a_rows.get(k)}
                     for k in sorted(set(b_rows) | set(a_rows))}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("what", choices=("micro", "viability", "coldstart", "fixtures", "tier1", "merge",
                                     "ab"))
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--root", default=".")
    ap.add_argument("--before", nargs="*", default=[])
    ap.add_argument("--after", nargs="*", default=[])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.what == "merge":
        result = merge(args.before, args.after)
    else:
        workdir = os.path.dirname(os.path.abspath(args.out))
        rows = {"micro": lambda: micro(args.repeats, workdir),
                "viability": lambda: viability(args.repeats),
                "coldstart": lambda: coldstart(args.root, args.repeats),
                "fixtures": lambda: fixtures(args.root),
                "tier1": lambda: tier1(args.root),
                "ab": lambda: ab(args.before[0], args.after[0], args.repeats)}[args.what]()
        result = {"machine": machine(), "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
