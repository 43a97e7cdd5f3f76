"""Experiment runner: scenario generation, simulation, offline solve, report.

Subcommands
-----------
generate   draw a viable shepherd scenario and write it as JSON
simulate   run a controller over a scenario; writes trajectory.csv + metrics.json
offline    solve the clairvoyant fixed-action problem; writes offline.json
report     render SVG figures and a PASS/FAIL summary from result directories

Exit codes: 0 success, 2 usage error, 3 numeric divergence, non-finite
evaluator output or a state that left its set, 4 infeasible viability or an
inconclusive offline solve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import metrics, shepherd, svgplot
from .convex_sets import MembershipError
from .dynamics import MODES, ControllerConfig, DivergenceError, TrajectoryLog, check_run, simulate_rows
from .environment import EvaluatorError, saturation_level
from .offline import (
    InfeasibleEnvironmentError,
    InnerSolveError,
    OfflineSolution,
    solve_offline,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_INFEASIBLE = 4

CONFIG_VERSION = 1
OBJECTIVE_NAMES = {"none": "none", "blacksheep": "black_sheep", "minaccel": "min_acceleration"}


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

# A table of fewer values is formatted in one process: in a 48 MB process,
# fork, pipe and wait cost about 3.5 ms, which is what repr takes for about
# 5,000 floats.
FORK_MIN_VALUES = 50_000


def _csv_rows(table):
    # repr gives the shortest decimal that round-trips.  One row of Python
    # floats at a time: the whole table as floats would add ~6 MB at 2,501 rows.
    return (",".join(map(repr, row.tolist())) + "\n" for row in table)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write_trajectory_csv(path, log: TrajectoryLog) -> None:
    """Schema: t, x_0..x_{n-1}, lambda_0..lambda_{m-1}, f_0val, f_1..f_m,
    fit_1..fit_m, cost_accum.

    A table of at least ``FORK_MIN_VALUES`` values, on a host with
    ``os.fork`` where this process may run on two or more CPUs, is formatted
    in two processes: this one formats the first half of the rows while one
    child made with ``os.fork`` formats the second half and sends its text
    through a pipe; the parent copies the pipe into the file after its own
    rows and reaps the child on every path.  Both use the same row formatter,
    so the bytes are those of the one-process loop that every other table
    takes.  On Python 3.12 and later, ``os.fork`` warns (DeprecationWarning)
    in a process with other OS threads, such as numpy's OpenBLAS pool, since a
    child that took a lock held by one of them at the fork would deadlock.
    The child here runs no BLAS and takes no lock: it formats floats, writes
    the pipe and leaves through ``os._exit``.  So the writer ignores that one
    warning around its fork, and only there, rather than let it reach the
    caller's output or, under an error filter, fail a correct write.
    """
    n = log.x.shape[1]
    m_lam = log.lam.shape[1]
    m = log.f.shape[1]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"lambda_{i}" for i in range(m_lam)]
        + ["f_0val"]
        + [f"f_{i}" for i in range(1, m + 1)]
        + [f"fit_{i}" for i in range(1, m + 1)]
        + ["cost_accum"]
    )
    table = np.column_stack([log.t, log.x, log.lam, log.f0, log.f, log.fit_accum,
                             log.cost_accum])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if table.size < FORK_MIN_VALUES or not hasattr(os, "fork") or _usable_cpus() < 2:
            fh.writelines(_csv_rows(table))
        else:
            _write_rows_forked(fh, table)


def _write_rows_forked(fh, table) -> None:
    """Write the rows of ``table`` to the text file ``fh``, the second half
    formatted by a forked child (see ``write_trajectory_csv``)."""
    half = len(table) // 2
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to be had: format every row here
        os.close(r)
        os.close(w)
        fh.writelines(_csv_rows(table))
        return
    if pid == 0:  # the child leaves only through os._exit, whatever is raised
        code = 1
        try:
            os.close(r)
            text = "".join(_csv_rows(table[half:])).encode()
            with open(w, "wb") as pipe:
                pipe.write(text)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        fh.writelines(_csv_rows(table[:half]))
        fh.flush()
        while chunk := os.read(r, 1 << 16):
            fh.buffer.write(chunk)
    finally:
        os.close(r)  # a child still writing gets EPIPE and exits
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise RuntimeError(f"the child process formatting rows {half} to {len(table) - 1} of "
                           f"trajectory.csv exited with status {code}")


def offline_to_dict(sol: OfflineSolution, objective: str) -> dict:
    diagnostics = {k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
                   for k, v in sol.diagnostics.items()}
    return {"version": CONFIG_VERSION, "objective": objective, **shepherd.to_json(sol),
            "diagnostics": diagnostics}


def offline_from_dict(d: dict) -> OfflineSolution:
    if not isinstance(d, dict):
        raise ValueError("an offline solution must be a JSON object")
    sol = shepherd.from_json(OfflineSolution, d, "offline solution")
    if d.get("version") != CONFIG_VERSION:
        raise ValueError(f"unsupported offline solution version {d.get('version')!r}")
    return sol


# JSON types of the keys of a config (an inline scenario's are
# shepherd.GENERATE_PARAMS); null is none.
_NUMBER = (int, float)
_CONFIG_TYPES = {
    "version": int, "scenario": (str, dict), "mode": str, "epsilon": _NUMBER, "step": _NUMBER,
    "horizon": _NUMBER, "delta": _NUMBER, "objective": str, "out": str, "sweep": (str, *_NUMBER),
    "stride": int, "offline": str,
}


def _check_types(what: str, d: dict, types: dict) -> None:
    unknown = set(d) - set(types)
    if unknown:
        raise UsageError(f"unknown {what} keys: {sorted(unknown)}")
    shepherd.check_types(what, d, {key: types[key] for key in d})


def load_experiment_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("experiment config must be a JSON object")
    if cfg.get("version") != CONFIG_VERSION:
        raise UsageError(f"unsupported config version {cfg.get('version')!r}")
    _check_types("config", cfg, _CONFIG_TYPES)
    return cfg


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    # Only the flags given, each under its parameter's name.
    scenario = shepherd.generate_sheep_paths(
        **{k: v for k, v in vars(args).items() if k in shepherd.GENERATE_PARAMS})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    shepherd.save_scenario(scenario, out)
    print(
        f"scenario seed={scenario.seed} draws={scenario.draws} "
        f"viability_residual={scenario.viability_residual:.6g} -> {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _run_metrics_dict(log: TrajectoryLog, scenario, delta, objective, mode, stride,
                      scenario_path, offline_sol, offline_path) -> dict:
    fit = metrics.fit(log)
    lam0 = log.lam[0] if log.lam.shape[1] else np.zeros(len(fit))
    R = scenario.action_set().norm_bound()
    out = {
        "version": CONFIG_VERSION,
        "scenario_file": str(scenario_path) if scenario_path else None,
        "scenario_seed": scenario.seed,
        "mode": mode,
        "objective": objective,
        "epsilon": log.config.epsilon,
        "h": log.h_eff,
        "T": log.T,
        "delta": delta,
        "sample_stride": stride,
        "fit": fit.tolist(),
        "fit_final_accum": log.final_fit.tolist(),
        "clipped_fit_norm": metrics.clipped_fit_norm(fit),
        "cost": log.final_cost,
        "fit_bounds": [metrics.fit_bound(log.config.epsilon, log.x[0], lam0, scenario.xdagger, i)
                       for i in range(len(fit))],
        "multiplier_bound": metrics.multiplier_bound(R) if np.isfinite(R) else None,
        "action_norm_radius": R if np.isfinite(R) else None,
        "lambda_max": log.lambda_max.tolist(),
        "max_field_norm": log.max_field_norm,
    }
    if delta is not None:
        out["saturated_fit"] = metrics.saturated_fit(log, delta).tolist()
    if offline_sol is not None:
        out["regret"] = {**asdict(metrics.regret(log, offline_sol)),
                         "offline_file": str(offline_path)}
    return out


def _run(scenarios, horizons, outs, config, delta, objective, stride,
         scenario_path=None, offline_sol=None, offline_path=None) -> None:
    """Run each scenario over its horizon as the rows of one ``simulate_rows``
    call, and write row b's run (trajectory.csv, metrics.json) to ``outs[b]``:
    the runs in row order up to the first failed one, whose error propagates."""
    env = shepherd.shepherd_env(scenarios, objective, noise="frozen")
    logs = simulate_rows(env if delta is None else env.saturate(delta), config, horizons,
                         scenarios[0].action_set(), sample_stride=stride)
    for sc, out, log in zip(scenarios, outs, logs):
        if isinstance(log, Exception):
            raise log
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out / "trajectory.csv", log)
        shepherd.write_json(out / "metrics.json", _run_metrics_dict(
            log, sc, delta, objective, config.mode, stride, scenario_path, offline_sol,
            offline_path))


def cmd_simulate(args) -> int:
    cfg = load_experiment_config(args.config) if args.config else {}

    def pick(flag, key, default=None):
        return flag if flag is not None else cfg.get(key, default)

    scenario_src = pick(args.scenario, "scenario")
    mode = pick(args.mode, "mode", "saddle")
    epsilon = float(pick(args.epsilon, "epsilon", 50.0))
    step = float(pick(args.step, "step", 1e-4))
    horizon = pick(args.horizon, "horizon")
    delta = pick(args.delta, "delta")
    objective_flag = pick(args.objective, "objective", "none")
    out = pick(args.out, "out")
    sweep = pick(args.sweep, "sweep")
    stride = int(pick(args.stride, "stride", 10))
    offline_path = pick(args.offline, "offline")

    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}")
    objective = OBJECTIVE_NAMES.get(objective_flag, objective_flag)
    if objective not in shepherd.OBJECTIVES:
        raise UsageError(f"objective must be one of {sorted(OBJECTIVE_NAMES)}")
    if scenario_src is None:
        raise UsageError("a scenario file is required (--scenario or config)")
    if out is None:
        raise UsageError("an output directory is required (--out or config)")
    if sweep and offline_path is not None:
        raise UsageError("--sweep and --offline cannot be combined: an offline solution "
                         "belongs to one horizon")
    if sweep and horizon is not None:
        raise UsageError("--sweep and --horizon cannot be combined: the sweep lists the "
                         "horizons")
    # Every value is checked before the first draw.
    config = ControllerConfig(epsilon=epsilon, h=step, mode=mode)
    if delta is not None:
        saturation_level(delta)
    if sweep:
        horizons = [float(s) for s in str(sweep).split(",") if s.strip()]
        if not horizons:
            raise UsageError("empty sweep list")
    else:
        horizons = [] if horizon is None else [horizon]
    horizons = check_run(horizons, stride)

    scenario_path = None
    if isinstance(scenario_src, str):
        scenario_path = Path(scenario_src)
        if not scenario_path.exists():
            raise UsageError(f"scenario file not found: {scenario_path}")
        scenario = shepherd.load_scenario(scenario_path)
    else:  # an inline parameter object: the config's types allow no other
        params = dict(scenario_src)
        _check_types("inline scenario", params, shepherd.GENERATE_PARAMS)
        if "seed" not in params:
            if args.seed is None:
                raise UsageError("inline scenario parameters need a seed (--seed)")
            params["seed"] = args.seed
        scenario = shepherd.generate_sheep_paths(**params)

    offline_sol = None
    if offline_path is not None:  # regret against another problem's optimum means nothing
        with open(offline_path) as fh:
            d = json.load(fh)
        offline_sol = offline_from_dict(d)
        if d.get("objective") != objective:
            raise UsageError(f"the offline solution is for objective {d.get('objective')!r}, "
                             f"not {objective!r}")
        if offline_sol.xdagger.tobytes() != scenario.xdagger.tobytes():
            raise UsageError("the offline solution's xdagger is not the scenario's: it solves "
                             "another scenario")
        metrics.check_horizon(offline_sol, horizons[0] if horizons else scenario.T)

    # Each horizon of a sweep runs a scenario regenerated for it, which no file
    # holds.  A horizon that finds no viable draw fails as its row would: the
    # horizons before it run and are written, then its error propagates.
    scenarios, failure = [], None
    if sweep:
        outs, scenario_path = [Path(out) / f"T_{T:g}" for T in horizons], None
        try:
            for T in horizons:
                scenarios.append(shepherd.regenerate(scenario, T=T))
        except shepherd.GeneratorError as err:
            failure = err
    else:
        scenarios, horizons, outs = [scenario], horizons or [scenario.T], [Path(out)]
    if scenarios:
        _run(scenarios, horizons[:len(scenarios)], outs, config, delta, objective, stride,
             scenario_path, offline_sol, offline_path)
    if failure:
        raise failure
    print(f"simulation results written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# offline
# ---------------------------------------------------------------------------

def cmd_offline(args) -> int:
    objective = OBJECTIVE_NAMES.get(args.objective, args.objective)
    if objective == "none":
        raise UsageError("the offline solve needs an objective (blacksheep or minaccel)")
    if args.max_iter < 1:
        raise UsageError("the iteration budget --max-iter must be at least 1")
    scenario = shepherd.load_scenario(args.scenario)
    env = shepherd.shepherd_env(scenario, objective, noise="mean")
    sol = solve_offline(
        env, scenario.offline_grid(), scenario.action_set(),
        viability=shepherd.viability_certificate(scenario),
        max_iter=args.max_iter,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    shepherd.write_json(out, offline_to_dict(sol, objective))
    print(f"offline cost={sol.offline_cost:.6g} K={sol.K:.6g} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _read_csv(path, keep=lambda name: True):
    """The columns of a trajectory.csv whose names ``keep`` accepts: their
    names in file order, and their values, parsed without the other columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    cols = [i for i, name in enumerate(header) if keep(name)]
    return [header[i] for i in cols], np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                                                 usecols=cols)


def _cols(header, prefix):
    return [i for i, name in enumerate(header) if name.startswith(prefix)]


def _offline_solution(md: dict) -> OfflineSolution | None:
    """The offline solution a run's regret block names, if its file is there."""
    reg = md.get("regret")
    if reg and reg.get("offline_file") and Path(reg["offline_file"]).exists():
        with open(reg["offline_file"]) as fh:
            return offline_from_dict(json.load(fh))
    return None


def _check_run(run_dir: Path, md: dict, header, data, sol) -> list[str]:
    """PASS/FAIL lines recomputed from the CSV series, and the certificate of
    the offline solution ``sol`` that a run with a regret block compares to."""
    lines = []
    slack = metrics.slack(
        max((abs(b) for b in md["fit_bounds"]), default=0.0),
        md["h"], md["T"], md["max_field_norm"],
    )
    fit_idx = _cols(header, "fit_")
    fit_series = data[:, fit_idx]
    bounds = np.asarray(md["fit_bounds"])
    ok = bool(np.all(fit_series <= bounds[None, :] + slack))
    lines.append(f"fit<=bound+slack: {'PASS' if ok else 'FAIL'} "
                 f"(max fit {fit_series.max():.4g}, max bound {bounds.max():.4g}, slack {slack:.4g})")
    lam_idx = _cols(header, "lambda_")
    if lam_idx and md.get("multiplier_bound") is not None:
        lam = data[:, lam_idx]
        ok = bool(np.all(lam >= -1e-12) and np.all(lam <= md["multiplier_bound"]))
        lines.append(f"multipliers in [0, 4R^2+1]: {'PASS' if ok else 'FAIL'} "
                     f"(max {lam.max():.4g} vs {md['multiplier_bound']:.4g})")
    if md.get("delta") is not None:
        f_idx = [i for i in _cols(header, "f_") if header[i] != "f_0val"]
        fv = data[:, f_idx]
        ok = bool(np.all(fv >= -md["delta"] - 1e-9))
        lines.append(f"saturated values >= -delta: {'PASS' if ok else 'FAIL'} (min {fv.min():.4g})")
    if "regret" in md:
        r = md["regret"]
        sl = metrics.slack(r["bound"], md["h"], md["T"], md["max_field_norm"])
        ok = r["regret"] <= r["bound"] + sl
        lines.append(f"regret<=bound+slack: {'PASS' if ok else 'FAIL'} "
                     f"({r['regret']:.4g} vs {r['bound']:.4g}+{sl:.4g})")
        if sol is None:
            lines.append("offline certificate: FAIL (offline file unavailable)")
        else:
            d = sol.diagnostics
            lines.append(f"offline certificate: {'PASS' if d.get('converged') else 'FAIL'} "
                         f"(violation {d.get('violation', np.nan):.4g}, "
                         f"stationarity {d.get('kkt_stationarity', np.nan):.4g})")
    return lines


def _render_run_figures(run_dir: Path, md: dict, header, data, out_dir: Path,
                        sol=None) -> list[str]:
    missing = []
    t = data[:, header.index("t")]
    fit_idx = _cols(header, "fit_")
    svgplot.write_plot(
        out_dir / "fit_vs_t.svg",
        [svgplot.Series(x=t, y=data[:, i], label=header[i]) for i in fit_idx],
        "Fit components along the trajectory", "t", "fit",
    )
    lam_idx = _cols(header, "lambda_")
    if lam_idx:
        svgplot.write_plot(
            out_dir / "lambda_vs_t.svg",
            [svgplot.Series(x=t, y=data[:, i], label=header[i]) for i in lam_idx],
            "Multipliers along the trajectory", "t", "lambda",
        )
    else:
        missing.append("lambda_vs_t (no multiplier columns)")

    scn_file = md.get("scenario_file")
    if scn_file and Path(scn_file).exists():
        scenario = shepherd.load_scenario(scn_file)
        x_idx = _cols(header, "x_")
        series = []
        Y = shepherd.sheep_positions(scenario, t)
        for i in range(scenario.m):
            series.append(svgplot.Series(
                x=Y[:, i, 0], y=Y[:, i, 1],
                label=f"sheep {i + 1}", color=svgplot.PALETTE[(i + 2) % len(svgplot.PALETTE)],
            ))
        P = shepherd.basis_values(scenario.basis, scenario.n, t, scenario.T)
        xs = data[:, x_idx]
        z1 = np.einsum("kj,kj->k", P, xs[:, :scenario.n])
        z2 = np.einsum("kj,kj->k", P, xs[:, scenario.n:])
        series.append(svgplot.Series(x=z1, y=z2, label="shepherd", color="#d62728"))
        svgplot.write_plot(out_dir / "path_overlay.svg", series,
                           "Shepherd and sheep paths", "z1", "z2")
    else:
        missing.append("path_overlay (scenario file unavailable)")

    if sol is not None:
        nodes = sol.grid.nodes()
        offline_cum = np.interp(t, nodes, sol.cost_cumulative)
        cost = data[:, header.index("cost_accum")]
        svgplot.write_plot(
            out_dir / "regret_vs_t.svg",
            [svgplot.Series(x=t, y=cost - offline_cum, label="regret")],
            "Regret along the trajectory", "t", "regret",
        )
    else:
        missing.append("regret_vs_t (offline solution unavailable)")
    return missing


def _report_columns(md: dict, sol):
    """Which trajectory.csv columns report reads: time, fit and multipliers
    always, the constraint values of a saturated run, the cost of a run with
    an offline solution, and the actions only for the path overlay."""
    saturated = md.get("delta") is not None
    overlay = bool(md.get("scenario_file")) and Path(md["scenario_file"]).exists()

    def keep(name: str) -> bool:
        return (name == "t" or name.startswith(("fit_", "lambda_"))
                or (saturated and name.startswith("f_") and name != "f_0val")
                or (sol is not None and name == "cost_accum")
                or (overlay and name.startswith("x_")))

    return keep


def _sweep_trend_table(summaries) -> list[str]:
    """Fit growth across a horizon sweep: clipped norm against sqrt(T)."""
    rows = sorted(summaries, key=lambda s: s["T"])
    lines = ["horizon sweep trend (clipped fit norm vs sqrt(T)):",
             f"   {'T':>8} {'max fit':>12} {'clipped norm':>13} {'norm/sqrt(T)':>13}"]
    for s in rows:
        ratio = s["clipped"] / np.sqrt(s["T"])
        lines.append(f"   {s['T']:>8g} {s['max_fit']:>12.4g} {s['clipped']:>13.4g} {ratio:>13.4g}")
    return lines


def cmd_report(args) -> int:
    results = Path(args.results)
    run_dirs = sorted(
        {p.parent for p in results.rglob("metrics.json") if (p.parent / "trajectory.csv").exists()}
    )
    if not run_dirs:
        print("no results found", file=sys.stderr)
        return EXIT_USAGE
    all_ok = True
    sweeps: dict = {}
    for run_dir in run_dirs:
        with open(run_dir / "metrics.json") as fh:
            md = json.load(fh)
        sol = _offline_solution(md)
        header, data = _read_csv(run_dir / "trajectory.csv", _report_columns(md, sol))
        out_dir = Path(args.out) / run_dir.name if args.out else run_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        checks = _check_run(run_dir, md, header, data, sol)
        missing = _render_run_figures(run_dir, md, header, data, out_dir, sol)
        print(f"== {run_dir}")
        print(f"   mode={md['mode']} objective={md['objective']} eps={md['epsilon']} "
              f"T={md['T']} h={md['h']:g}")
        for line in checks:
            all_ok = all_ok and ("FAIL" not in line)
            print(f"   {line}")
        for name in missing:
            print(f"   missing: {name}")
        if run_dir.name.startswith("T_"):
            sweeps.setdefault(run_dir.parent, []).append({
                "T": md["T"],
                "max_fit": max(md["fit"]),
                "clipped": md["clipped_fit_norm"],
            })
    for parent, summaries in sorted(sweeps.items()):
        if len(summaries) > 1:
            print(f"== {parent}")
            for line in _sweep_trend_table(summaries):
                print(f"   {line}")
    print("report: " + ("all checks PASS" if all_ok else "some checks FAILED"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="saddlesim", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    # Each flag's dest is its generate_sheep_paths parameter, which has the defaults.
    g = sub.add_parser("generate", help="draw a viable shepherd scenario",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--m", type=int)
    g.add_argument("--horizon", dest="T", type=float)
    g.add_argument("--radius", type=float)
    g.add_argument("--n", type=int)
    g.add_argument("--n-sheep", type=int)
    g.add_argument("--basis", choices=shepherd.BASIS_KINDS)
    g.add_argument("--waypoints", dest="L", type=int, help="intermediate waypoint count")
    g.add_argument("--offset", dest="offset_box", type=float)
    g.add_argument("--sigma", dest="noise_std", type=float)
    g.add_argument("--noise-cells", type=int)
    g.add_argument("--action-half", type=float)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("simulate", help="run a controller over a scenario")
    s.add_argument("--config", default=None, help="experiment config JSON")
    s.add_argument("--scenario", default=None)
    s.add_argument("--mode", choices=MODES, default=None)
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--step", type=float, default=None)
    s.add_argument("--horizon", type=float, default=None)
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--objective", choices=sorted(OBJECTIVE_NAMES), default=None)
    s.add_argument("--seed", type=int, default=None, help="seed for inline scenario parameters")
    s.add_argument("--out", default=None)
    s.add_argument("--sweep", default=None, help='horizon list, e.g. "0.5,1,2"')
    s.add_argument("--stride", type=int, default=None)
    s.add_argument("--offline", default=None, help="offline.json for regret")
    s.set_defaults(func=cmd_simulate)

    o = sub.add_parser("offline", help="clairvoyant fixed-action solve")
    o.add_argument("--scenario", required=True)
    o.add_argument("--objective", choices=sorted(OBJECTIVE_NAMES), required=True)
    o.add_argument("--max-iter", type=int, default=4000,
                   help="iteration budget of the solve, all inner solves together; "
                        "each iteration is one augmented-Lagrangian evaluation")
    o.add_argument("--out", required=True)
    o.set_defaults(func=cmd_offline)

    r = sub.add_parser("report", help="summarize results and render figures")
    r.add_argument("--results", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MembershipError as exc:  # a ValueError, but not the caller's fault
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, EvaluatorError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (InfeasibleEnvironmentError, shepherd.GeneratorError) as exc:
        print(f"viability: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InnerSolveError as exc:
        print(f"offline solve inconclusive: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
