"""Per-layer timings and values of source trees, for the ``BENCH_*.json`` files.

Usage:

    python scripts/bench_layers.py ab --before ../parent --after . --out ab.json
    python scripts/bench_layers.py ab --before ../parent --after . --repeats 30 \\
        --only simulate_us_per_step raw_us --out step.json
    PYTHONPATH=src python scripts/bench_layers.py viability --out viability.json
    python scripts/bench_layers.py coldstart --root . --out coldstart.json
    python scripts/bench_layers.py fixtures --root . --out fixtures.json
    python scripts/bench_layers.py tier1 --root . --out tier1.json
    python scripts/bench_layers.py merge --before B1.json B2.json \\
        --after A1.json A2.json --out BENCH_4.json

``ab`` is the one in-process timing.  It imports the ``src/saddlesim`` of the
two trees ``--before`` and ``--after`` into one process under two package
names and times every case of ``ab_cases`` on both, each tree once per repeat
with the tree that runs first alternating, so that both sides see the same
phases of the host's speed; separate runs of one tree scatter by up to 2x on
a shared host.  ``--only PREFIX...`` times only the cases whose names start
with one of the prefixes.  The cases, each group described where it is built:

- ``step_cases``: the layers of one integrator step at action dimension 12
  and 60 (the per-node ``raw`` of each objective and of a saturated
  environment, the projected step of one joined state row, the Box and
  orthant field projections of a block, one block table build and a fresh
  one-step ``simulate``), and
  ``check_block_cases``: one block check of the integrator;
- ``offline_cases``: the offline solver's layers on the regret-chain
  configuration (grid Lagrangian calls, the grid's table build,
  ``Box.project_point`` of its rows, ``solve_offline``, ``estimate_K`` and a
  viability search);
- ``generate_cases``: in-process ``generate_sheep_paths``, the viability
  search's draws included;
- ``ab_simulate_cases``: ``simulate_rows`` per run-step on the benchmark's
  run configurations, a C03 tracking run and B = 1, 2 and 6 rows;
- ``io_cases``: ``write_trajectory_csv``, ``report``'s figures and the sheep
  positions of its path overlay, of the 2,501-row regret-chain log.

Each ``ab`` row carries ``after_better``, the repeats in which the after tree
was faster (ties count for neither), ``after_over_before``, the after/before
time ratio of each repeat, and ``resolved``: the after tree won at least 9 of
every 10 repeats and its median is below the before median by more than the
before side's interquartile range.

``viability`` records values, not times: the iterations and residual of the
viability search of ``generate --n 6 --n-sheep 30`` at seeds 0, 35, 43 and 46,
and the ``offline_cost_gap`` rows, the relative gap of ``solve_offline``'s
cost to a dense SLSQP reference solved here with every node constraint: black
sheep on the regret-chain scenario at the benchmark's 600 iterations, and
min-acceleration on the C08 T=1 scenario (n=6) at the suite's 1,500.
``coldstart`` runs fresh interpreters on the ``src`` under ``--root`` and
records each one's wall time and its own peak resident memory: ``import
saddlesim.cli``, then the benchmark's command lines at seed 1, ``generate``
and ``offline`` of regret-chain, ``simulate`` and ``report`` of minaccel-fine,
ensemble's set-up (its two ``generate`` commands in one interpreter, as the
benchmark runs them) and its saturated ``simulate --sweep``, which regenerates
the scenario at each horizon in process.  ``fixtures`` runs the C05, C08 and
C09 acceptance tests and reads the fixture times they print.  ``tier1`` times
the whole test suite once.  ``merge`` pools the samples of several runs per
side of these separate-process modes (run the sides alternately) into
before/after rows.  Every timing is a median with its quartiles over the
repeats.
"""

from __future__ import annotations

import argparse
import importlib.util
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
ROW_STEPS = 2000  # the steps of each row of the B-row simulate_rows cases
# generate --n 6 --n-sheep 30 draws whose time is the viability search's
VIABILITY_SEEDS = (0, 35, 43, 46)


def summary(samples) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "repeats": len(samples),
            "samples": [float(s) for s in samples]}


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def viability() -> dict:
    """The iterations and residual of the viability search of
    generate_sheep_paths at n=6, n_sheep=30 for VIABILITY_SEEDS (each accepts
    its first draw), and the two offline_cost_gap rows."""
    from saddlesim import shepherd

    out = {}
    for seed in VIABILITY_SEEDS:
        sc = shepherd.generate_sheep_paths(seed=seed, n=6, n_sheep=30)
        out[f"viability_iterations.n6_seed{seed}"] = sc.viability_iterations
        out[f"viability_residual.n6_seed{seed}"] = sc.viability_residual
    chain = shepherd.generate_sheep_paths(seed=1, T=0.25)
    c08 = shepherd.generate_sheep_paths(seed=1, T=1.0, n=6, n_sheep=30)
    out["offline_cost_gap.black_sheep.regret_chain_600"] = offline_cost_gap(
        chain, "black_sheep", 600)
    out["offline_cost_gap.min_acceleration.c08_T1_1500"] = offline_cost_gap(
        c08, "min_acceleration", 1500)
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


def step_cases(package, sc) -> dict:
    """The layers of one integrator step at the action dimension n of the
    scenario sc, each on the inputs a step gives it: the shepherd per-node
    evaluator ``raw(k, X, out)`` of every objective, and of no objective
    saturated at delta = 0.1, at x-dagger, node 7 of a one-row block of
    BLOCK_STEPS nodes (h = 2e-5); the projected step of one (1, n + 5) state
    row [x | lam] (x-dagger, multipliers with two at 0) along a random field
    at h = 1e-4, written in place and projected onto X x R+^5 by the set's
    ``row_projector``, as ``simulate_rows`` steps it; the per-block calls,
    Box.project_field of a (BLOCK_STEPS, 1, n) stack of x-dagger rows and,
    at n = 12 (the multipliers do not depend on n),
    NonnegativeOrthant.project_field of a (BLOCK_STEPS, 1, 5) stack of those
    multiplier rows, each with random fields; one build of the black-sheep
    time tables of a block of BLOCK_STEPS nodes (h = 1e-4;
    ``grid_evaluator`` keeps no table, so each call builds them); and one
    saddle step of ``simulate`` on a fresh black-sheep environment, built in
    the timed call, mostly the build of the step's start-up tables."""
    convex_sets, dynamics, shepherd = package.convex_sets, package.dynamics, package.shepherd
    n, cases = sc.action_dim, {}
    ts = (np.arange(BLOCK_STEPS) * 2e-5 + 2e-5)[None]
    x, row = sc.xdagger[None].copy(), np.empty((1, 1 + sc.m))
    for objective in shepherd.OBJECTIVES:
        raw = shepherd.shepherd_env(sc, objective).on_grid(ts, np.arange(1))
        cases[f"raw_us.{objective}.n{n}"] = (lambda raw=raw: raw(7, x, row), 1e6, 2000)
    raw = shepherd.shepherd_env(sc, "none").saturate(0.1).on_grid(ts, np.arange(1))
    cases[f"raw_us.none_saturated.n{n}"] = (lambda: raw(7, x, row), 1e6, 2000)
    X, Lam = sc.action_set(), convex_sets.NonnegativeOrthant(5)
    S, rng = convex_sets.StateSet(X, 5), np.random.default_rng(0)
    lam, u = np.array([[0.0, 0.3, 0.0, 1.2, 0.5]]), rng.standard_normal((1, n + 5))
    z0, hz = np.hstack([x, lam]), np.full((1, n + 5), 1e-4)
    z = z0.copy()
    project = S.row_projector(z)

    def step():
        np.multiply(hz, u, out=z)
        np.add(z0, z, out=z)
        project(z)

    cases[f"state_step_us.n{n}_m5"] = (step, 1e6, 2000)
    xs, vs = np.tile(x, (BLOCK_STEPS, 1, 1)), rng.standard_normal((BLOCK_STEPS, 1, n))
    cases[f"box_project_field_us.block{BLOCK_STEPS}.n{n}"] = (
        lambda: X.project_field(xs, vs), 1e6, 200)
    if n == 12:
        lams, ws = np.tile(lam, (BLOCK_STEPS, 1, 1)), rng.standard_normal((BLOCK_STEPS, 1, 5))
        cases[f"orthant_project_field_us.block{BLOCK_STEPS}.m5"] = (
            lambda: Lam.project_field(lams, ws), 1e6, 200)
    env, block = shepherd.shepherd_env(sc, "black_sheep"), np.arange(BLOCK_STEPS) * 1e-4 + 1e-4
    cases[f"table_build_ms.K{BLOCK_STEPS}.n{n}"] = (lambda: env.grid_evaluator(block), 1e3, 10)
    cfg = dynamics.ControllerConfig(epsilon=50.0, h=1e-4, mode="saddle")
    cases[f"simulate_one_step_fresh_ms.saddle.n{n}"] = (
        lambda: dynamics.simulate(shepherd.shepherd_env(sc, "black_sheep"), cfg, T=cfg.h, X=X),
        1e3, 20)
    return cases


def check_block_cases(package) -> dict:
    """One block check of the integrator, ``dynamics._check_block``, on a
    block of BLOCK_STEPS nodes, (nodes, rows, n) = (512, 1, 12) and
    (512, 2, 60), with m = 5 constraints: one that passes it (every output
    finite, no state past the limit), and one whose f0 is NaN at the last
    node of its last row, so that the check searches the whole block for the
    node that fails.  The node buffers' finiteness is one mask."""
    check, error = package.dynamics._check_block, package.environment.EvaluatorError
    rng, m, cases = np.random.default_rng(0), 5, {}
    for R, n in ((1, 12), (2, 60)):
        ts = np.tile(np.arange(BLOCK_STEPS) * 1e-4 + 1e-4, (R, 1))
        xs = rng.uniform(-1.0, 1.0, (BLOCK_STEPS, R, n))
        lams, V = rng.uniform(0.0, 1.0, (BLOCK_STEPS, R, m)), rng.standard_normal((BLOCK_STEPS, R, 1 + m))
        J_ok = np.ones((BLOCK_STEPS, R, n + n * m), bool)
        bad = V.copy()
        bad[-1, -1, :] = np.nan  # f0 and f
        name = f"check_block_us.block{BLOCK_STEPS}.R{R}.n{n}"
        cases[name] = (lambda args=(ts, xs, lams, V, J_ok, 1): check(*args), 1e6, 200)
        cases[f"{name}.nan_at_last_node"] = (
            lambda args=(ts, xs, lams, bad, J_ok, 1): _fails(check, args, error), 1e6, 200)
    return cases


def _fails(check, args, error) -> None:
    # The block check, which must raise ``error``.
    try:
        check(*args)
    except error:
        return
    raise AssertionError("the block passed its check")


def offline_cases(package) -> dict:
    """The offline solver's layers on the regret-chain configuration (seed 1,
    T = 0.25, noise-mean environment, 1,001-node grid), with the grid's tables
    built: one Lagrangian evaluation of the multiplier loop (values,
    constraints and the gradient at multipliers mu, at x-dagger) for black
    sheep and min-acceleration, plain and saturated at 0.1; the black-sheep
    evaluation with one action per node (x-dagger on every node, the form
    ``estimate_K`` uses) and its constraints alone at x-dagger; one build of
    the grid's black-sheep tables; ``Box.project_point`` of a (1001, 60) stack
    of rows, half their entries outside the action box; ``solve_offline`` at
    600 iterations, ``estimate_K`` at x-dagger, and a viability search of the
    scenario run to its own stop (``check_viability`` from the herd-centre
    path with no interior target, 500 Lagrangian evaluations)."""
    shepherd, offline = package.shepherd, package.offline
    sc = shepherd.generate_sheep_paths(seed=1, T=0.25)
    grid, X = sc.offline_grid(), sc.action_set()
    ts, w = grid.nodes(), grid.trapezoid_weights()
    K, rng = ts.shape[0], np.random.default_rng(0)
    mu = rng.uniform(0.0, 1.0, size=(K, sc.m))

    def lagrangian(env, x):
        f0, f, pull = env.batch_evaluate(ts, x)
        return f0, f, pull(w, mu)

    cases = {}
    for objective in ("black_sheep", "min_acceleration"):
        for label, delta in (("plain", None), ("sat0.1", 0.1)):
            env = shepherd.shepherd_env(sc, objective, noise="mean")
            env = env if delta is None else env.saturate(delta)
            cases[f"lagrangian_eval_us.{objective}.{label}.regret_chain"] = (
                lambda env=env: lagrangian(env, sc.xdagger), 1e6, 200)
    env = shepherd.shepherd_env(sc, "black_sheep", noise="mean")
    xs = np.tile(sc.xdagger, (K, 1))
    cases["batch_evaluate_us.per_node.regret_chain"] = (lambda: lagrangian(env, xs), 1e6, 200)
    cases["batch_constraints_us.one_action.regret_chain"] = (
        lambda: env.batch_constraints(ts, sc.xdagger), 1e6, 200)
    cases[f"table_build_ms.K{K}.regret_chain"] = (lambda: env.grid_evaluator(ts), 1e3, 10)
    Z = rng.uniform(-2.0, 2.0, size=(K, X.dim)) * X.upper
    cases[f"box_project_point_us.rows{K}_n{X.dim}"] = (lambda: X.project_point(Z), 1e6, 200)
    via = shepherd.viability_certificate(sc)
    cases["solve_offline_s.regret_chain_600"] = (
        lambda: offline.solve_offline(env, grid, X, viability=via, max_iter=600), 1.0, 1)
    cases["estimate_K_s.regret_chain"] = (
        lambda: offline.estimate_K(env, grid, X, sc.xdagger), 1.0, 1)
    none = shepherd.shepherd_env(sc, "none", noise="mean")
    x_init = shepherd.encode_coeffs(sc.sheep_coeffs.mean(axis=0))
    cases["check_viability_s.regret_chain"] = (
        lambda: offline.check_viability(none, grid, X, x_init=x_init), 1.0, 1)
    return cases


def generate_cases(package) -> dict:
    """In-process generate_sheep_paths: at seed 1 the default configuration
    and minaccel-fine's (n=6, n_sheep=30), both accepting their first draw
    (ms), and at n=6, n_sheep=30 the VIABILITY_SEEDS, whose time is the
    viability search's (s)."""
    generate, cases = package.shepherd.generate_sheep_paths, {}
    for name, kw in (("default", {}), ("minaccel_fine", {"n": 6, "n_sheep": 30})):
        cases[f"generate_ms.seed1_{name}"] = (lambda kw=kw: generate(seed=1, **kw), 1e3, 1)
    for seed in VIABILITY_SEEDS:
        cases[f"viability_s.n6_seed{seed}"] = (
            lambda seed=seed: generate(seed=seed, n=6, n_sheep=30), 1.0, 1)
    return cases


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


def ab_simulate_cases(package) -> dict:
    """Microseconds per run-step (the steps of every row) of one
    ``simulate_rows`` call on each of the benchmark's run configurations at
    seed 1, in the frozen-noise environment the CLI runs: minaccel-fine's
    saddle run (5,000 steps, stride 20), regret-chain's saddle run (2,500
    steps, stride 1) and ensemble's feasibility sweep, plain and saturated at
    delta = 0.1, each with its horizons 0.1 and 0.2 as the two rows of one
    call (3,000 run-steps, stride 10); a C03 tracking run, gradient mode on
    the one-row pointwise environment of ``c03_pointwise_env`` at eps = 5,
    h = 1e-4, T = 1 (stride 20); and B = 1, 2 and 6 runs as the rows of one
    call, ROW_STEPS steps each (stride 10), on the scenarios of seeds 1..B
    (n_sheep=30, noise_cells=200): feasibility at action dimension 60
    (h = 1e-4) and min-acceleration saddle at 12 (h = 2e-5)."""
    shepherd, dynamics = package.shepherd, package.dynamics
    fine = shepherd.generate_sheep_paths(seed=1, n=6, n_sheep=30)
    chain = shepherd.generate_sheep_paths(seed=1, T=0.25)
    sweep = shepherd.generate_sheep_paths(seed=1)
    sweep = [shepherd.regenerate(sweep, T=T) for T in (0.1, 0.2)]
    runs = {  # name: (scenarios, objective, mode, h, horizons, stride, saturation delta)
        "minaccel_fine": (fine, "min_acceleration", "saddle", 2e-5, [0.1], 20, None),
        "regret_chain_saddle": (chain, "black_sheep", "saddle", 1e-4, [chain.T], 1, None),
        "ensemble_feasibility_rows": (sweep, "none", "feasibility", 1e-4, [0.1, 0.2], 10, None),
        "ensemble_feasibility_sat_rows": (sweep, "none", "feasibility", 1e-4, [0.1, 0.2], 10, 0.1)}
    runs = {f"simulate_us_per_step.{name}": run for name, run in runs.items()}
    for nb, mode, objective, h in ((30, "feasibility", "none", 1e-4),
                                   (6, "saddle", "min_acceleration", 2e-5)):
        scs = [shepherd.generate_sheep_paths(seed=seed, n=nb, n_sheep=30, noise_cells=200)
               for seed in range(1, 7)]
        for B in (1, 2, 6):
            runs[f"rows_us_per_run_step.{mode}.n{2 * nb}.B{B}"] = (
                scs[:B], objective, mode, h, [ROW_STEPS * h] * B, 10, None)
    c03, box = c03_pointwise_env(package)
    c03_cfg = dynamics.ControllerConfig(epsilon=5.0, h=1e-4, mode="gradient")
    cases = {"simulate_us_per_step.c03_tracking": (
        lambda: dynamics.simulate(c03, c03_cfg, T=1.0, X=box, sample_stride=20), 1e6 / 10000, 1)}
    for name, (scenarios, objective, mode, h, Ts, stride, delta) in runs.items():
        env = shepherd.shepherd_env(scenarios, objective, noise="frozen")
        env = env if delta is None else env.saturate(delta)
        cfg = dynamics.ControllerConfig(epsilon=50.0, h=h, mode=mode)
        X = (scenarios[0] if isinstance(scenarios, list) else scenarios).action_set()
        steps = sum(round(T / h) for T in Ts)
        cases[name] = (lambda env=env, cfg=cfg, Ts=Ts, X=X, stride=stride: dynamics.simulate_rows(
            env, cfg, Ts, X, sample_stride=stride), 1e6 / steps, 1)
    return cases


def io_cases(package, workdir: str) -> dict:
    """Trajectory I/O on the log of regret-chain's saddle run (seed 1,
    T = 0.25, black sheep, stride 1: 2,501 rows): ``write_trajectory_csv``
    (s), ``report``'s figures of that CSV (ms), both written into workdir,
    and ``sheep_positions`` at the log's times, the table behind report's
    path overlay (ms)."""
    shepherd, dynamics = package.shepherd, package.dynamics
    cli = importlib.import_module(f"{package.__name__}.cli")  # not imported by the package
    sc = shepherd.generate_sheep_paths(seed=1, T=0.25)
    log = dynamics.simulate(shepherd.shepherd_env(sc, "black_sheep"),
                            dynamics.ControllerConfig(epsilon=50.0, h=1e-4, mode="saddle"),
                            T=sc.T, X=sc.action_set(), sample_stride=1)
    path, out = os.path.join(workdir, "trajectory.csv"), Path(workdir)
    cli.write_trajectory_csv(path, log)
    header, data = cli._read_csv(path)
    rows = log.t.shape[0]
    return {f"write_trajectory_csv_s.regret_chain_{rows}": (
                lambda: cli.write_trajectory_csv(path, log), 1.0, 1),
            f"render_run_figures_ms.regret_chain_{rows}": (
                lambda: cli._render_run_figures(out, {}, header, data, out), 1e3, 1),
            f"sheep_positions_ms.regret_chain_{rows}": (
                lambda: shepherd.sheep_positions(sc, log.t), 1e3, 20)}


def ab_cases(package, workdir: str, only=()) -> dict:
    """name -> (call, unit scale, calls per sample) for one tree, each case
    called once, which builds the tables that the grid calls reuse and
    raises if a ``simulate_rows`` row failed; files go into workdir.  With
    prefixes ``only``, just the cases whose names start with one of them."""
    shepherd = package.shepherd
    cases = {}
    for nb in (6, 30):
        cases.update(step_cases(package, shepherd.generate_sheep_paths(
            seed=1, n=nb, n_sheep=30, noise_cells=200)))
    for group in (check_block_cases(package), offline_cases(package), generate_cases(package),
                  ab_simulate_cases(package), io_cases(package, workdir)):
        cases.update(group)
    if only:
        cases = {name: case for name, case in cases.items() if name.startswith(tuple(only))}
    for name, (call, _, _) in cases.items():
        result = call()
        errors = [r for r in result if isinstance(r, Exception)] if isinstance(result, list) else []
        if errors:
            raise RuntimeError(f"{name}: a simulate_rows row failed") from errors[0]
    return cases


def resolved(before, after) -> bool:
    """The after side won at least 9 of every 10 repeats (ties count for
    neither side), and its median is below the before median by more than
    the before side's interquartile range."""
    wins = sum(a < b for a, b in zip(after, before))
    q1, med, q3 = np.percentile(before, [25, 50, 75])
    return bool(10 * wins >= 9 * len(before) and med - np.median(after) > q3 - q1)


def ab(before_root: str, after_root: str, repeats: int, only=()) -> dict:
    tmp = tempfile.mkdtemp(prefix="bench_layers_ab_")
    try:
        sides = {}
        for side, root in (("before", before_root), ("after", after_root)):
            os.mkdir(os.path.join(tmp, side))
            sides[side] = ab_cases(import_tree(root, f"saddlesim_{side}"), os.path.join(tmp, side),
                                   only)
        samples = {side: {name: [] for name in cases} for side, cases in sides.items()}
        for r in range(repeats):
            for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
                for name, (call, scale, calls) in sides[side].items():
                    t0 = time.perf_counter()
                    for _ in range(calls):
                        call()
                    samples[side][name].append(scale * (time.perf_counter() - t0) / calls)
    finally:
        shutil.rmtree(tmp)
    rows = {}
    for name in sides["after"]:
        b, a = samples["before"][name], samples["after"][name]
        rows[name] = {"before": summary(b), "after": summary(a),
                      "after_over_before": summary([x / y for x, y in zip(a, b)]),
                      "after_better": int(sum(x < y for x, y in zip(a, b))),
                      "resolved": resolved(b, a)}
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
    ap.add_argument("what", choices=("ab", "viability", "coldstart", "fixtures", "tier1", "merge"))
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--root", default=".")
    ap.add_argument("--before", nargs="*", default=[])
    ap.add_argument("--after", nargs="*", default=[])
    ap.add_argument("--only", nargs="+", default=(), metavar="PREFIX",
                    help="ab: time only the cases whose names start with a PREFIX")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.what == "merge":
        result = merge(args.before, args.after)
    else:
        rows = {"ab": lambda: ab(args.before[0], args.after[0], args.repeats, args.only),
                "viability": viability,
                "coldstart": lambda: coldstart(args.root, args.repeats),
                "fixtures": lambda: fixtures(args.root),
                "tier1": lambda: tier1(args.root)}[args.what]()
        result = {"machine": machine(), "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
