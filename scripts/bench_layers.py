"""Per-layer timings of one source tree, for the ``BENCH_*.json`` files.

Usage (each side of a comparison runs against its own ``src``):

    PYTHONPATH=src python scripts/bench_layers.py micro --out micro.json
    python scripts/bench_layers.py fixtures --root . --out fixtures.json
    python scripts/bench_layers.py merge --before B1.json B2.json \\
        --after A1.json A2.json --out BENCH_4.json

``micro`` times ``simulate`` per step (feasibility and saddle at action
dimension 12 and 60, m=5), the time-only work of one block of integrator
steps, and on the regret-chain configuration (seed 1, T=0.25, black sheep,
noise-mean environment, 1,001-node grid) ``estimate_K``, ``solve_offline`` at
600 iterations and the marginal cost of one solver iteration (the 1,200- minus
the 600-iteration solve, over 600).  ``fixtures`` runs the C05, C08 and C09
acceptance tests and reads the fixture times they print.  ``tier1`` times the
whole test suite once.  Every figure is a median with its quartiles over the
repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

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


def micro(repeats: int) -> dict:
    from saddlesim import shepherd
    from saddlesim.dynamics import ControllerConfig, simulate
    from saddlesim.offline import estimate_K, solve_offline

    out = {}
    for nb in (6, 30):
        sc = shepherd.generate_sheep_paths(seed=1, n=nb, n_sheep=30, noise_cells=200)
        for mode, objective in (("feasibility", "none"), ("saddle", "black_sheep")):
            env = shepherd.shepherd_env(sc, objective)
            cfg = ControllerConfig(epsilon=50.0, h=1e-4, mode=mode)
            steps = 2000
            per_step = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                simulate(env, cfg, T=steps * cfg.h, X=sc.action_set(), sample_stride=10)
                per_step.append(1e6 * (time.perf_counter() - t0) / steps)
            out[f"simulate_us_per_step.{mode}.n{2 * nb}"] = summary(per_step)
        # Time-only work of one block: the time tables where the environment
        # builds them, else one scalar basis evaluation per step.
        ts = np.arange(BLOCK_STEPS) * 1e-4 + 1e-4
        env = shepherd.shepherd_env(sc, "black_sheep")
        if getattr(env, "on_grid", None) is not None:
            def block():
                env.on_grid(ts)
        else:
            def block():
                for t in ts.tolist():
                    shepherd.basis_eval(sc.basis, nb, t, sc.T)
                    if sc.n_sheep != nb:
                        shepherd.basis_eval(sc.basis, sc.n_sheep, t, sc.T)
        build = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            block()
            build.append(1e3 * (time.perf_counter() - t0))
        out[f"block_time_work_ms.n{2 * nb}"] = summary(build)
    sc = shepherd.generate_sheep_paths(seed=1, T=0.25)
    env = shepherd.shepherd_env(sc, "black_sheep", noise="mean")
    k_times, solve_times, per_iter = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        estimate_K(env, sc.offline_grid(), sc.action_set(), sc.xdagger)
        k_times.append(time.perf_counter() - t0)
        solve = {}
        for iters in (600, 1200):
            t0 = time.perf_counter()
            solve_offline(env, sc.offline_grid(), sc.action_set(),
                          viability=shepherd.viability_certificate(sc), max_iter=iters)
            solve[iters] = time.perf_counter() - t0
        solve_times.append(solve[600])
        per_iter.append(1e3 * (solve[1200] - solve[600]) / 600)
    out["estimate_K_s.regret_chain"] = summary(k_times)
    out["solve_offline_s.regret_chain_600"] = summary(solve_times)
    out["solve_offline_ms_per_iter.regret_chain"] = summary(per_iter)
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
    ap.add_argument("what", choices=("micro", "fixtures", "tier1", "merge"))
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--root", default=".")
    ap.add_argument("--before", nargs="*", default=[])
    ap.add_argument("--after", nargs="*", default=[])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.what == "merge":
        result = merge(args.before, args.after)
    else:
        rows = {"micro": lambda: micro(args.repeats), "fixtures": lambda: fixtures(args.root),
                "tier1": lambda: tier1(args.root)}[args.what]()
        result = {"machine": machine(), "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
