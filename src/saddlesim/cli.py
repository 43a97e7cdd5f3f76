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


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

# A table of fewer values is formatted or parsed in one process.  In a 56 MB
# process on a two-CPU host, fork, pipe and wait take about 0.56 ms, what repr
# takes for about 1,700 floats and loadtxt for about 4,400 values; the bound
# stays well above both, for the child's copy-on-write faults and a busy host.
FORK_MIN_VALUES = 50_000


def _csv_rows(table):
    # repr gives the shortest decimal that round-trips.  One row of Python
    # floats at a time: the whole table as floats would add ~6 MB at 2,501 rows.
    return (",".join(map(repr, row.tolist())) + "\n" for row in table)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two_processes(values, child, parent):
    """Run ``parent(r)`` here and ``child(w)`` in a forked child, r and w the
    ends of one pipe, if the table of ``values`` values holds at least
    ``FORK_MIN_VALUES`` and this process may run on two or more CPUs of a host
    with ``os.fork``.  Return ``(parent's value, the child's exit code)``, 1
    if ``child`` raised, with the child reaped on every path; or None, with
    neither run.  Python 3.12 warns at a fork in a process with other OS
    threads, such as numpy's OpenBLAS pool, since a child taking a lock one
    of them held would deadlock; these children take no lock (they format or
    parse text and write the pipe), so that one warning is ignored here."""
    if values < FORK_MIN_VALUES or not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            child(w)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        value = parent(r)
    finally:
        os.close(r)
        status = os.waitpid(pid, 0)[1]
    return value, os.waitstatus_to_exitcode(status)


def write_trajectory_csv(path, log: TrajectoryLog) -> None:
    """Schema: t, x_0..x_{n-1}, lambda_0..lambda_{m-1}, f_0val, f_1..f_m,
    fit_1..fit_m, cost_accum.

    A large table is formatted in two processes (``_in_two_processes``):
    this one formats the first half of the rows while the child formats the
    second half and sends its text through the pipe, which this one copies
    into the file after its own rows.  Both use the same row formatter, so
    the bytes are those of the one-process loop that every other table, or
    a failed fork, takes.
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
    half = len(table) // 2

    def child(w):
        with open(w, "wb") as pipe:
            pipe.write("".join(_csv_rows(table[half:])).encode())

    def parent(r):
        fh.writelines(_csv_rows(table[:half]))
        fh.flush()
        while chunk := os.read(r, 1 << 16):
            fh.buffer.write(chunk)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        done = _in_two_processes(table.size, child, parent)
        if done is None:
            fh.writelines(_csv_rows(table))
        elif done[1]:
            raise RuntimeError(f"the child process formatting rows {half} to {len(table) - 1} "
                               f"of trajectory.csv exited with status {done[1]}")


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
    nodes = sol.grid.num_steps + 1
    if sol.cost_cumulative.shape != (nodes,):
        raise ValueError(f"the offline solution's cost_cumulative has shape "
                         f"{sol.cost_cumulative.shape}, not one entry per grid node ({nodes},)")
    return sol


# simulate's settings: each is the flag of that dest and the config key of
# that name, with the JSON types a config may give it (never null) and its
# default.  A flag wins over the config and the config over the default.
_NUMBER = (int, float)
SIMULATE_SETTINGS = {
    "scenario": ((str, dict), None), "mode": (str, "saddle"), "epsilon": (_NUMBER, 50.0),
    "step": (_NUMBER, 1e-4), "horizon": (_NUMBER, None), "delta": (_NUMBER, None),
    "objective": (str, "none"), "out": (str, None), "sweep": ((str, *_NUMBER), None),
    "stride": (int, 10), "offline": (str, None),
}


def _check_types(what: str, d: dict, types: dict) -> None:
    unknown = set(d) - set(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    shepherd.check_types(what, d, {key: types[key] for key in d})


def load_experiment_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("experiment config must be a JSON object")
    if cfg.get("version") != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {cfg.get('version')!r}")
    _check_types("config", cfg, {"version": int, **{key: types for key, (types, _) in
                                                      SIMULATE_SETTINGS.items()}})
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

def _run_metrics_dict(s, log: TrajectoryLog, scenario, scenario_path, offline_sol) -> dict:
    fit = metrics.fit(log)
    lam0 = log.lam[0] if log.lam.shape[1] else np.zeros(len(fit))
    R = scenario.action_set().norm_bound()
    out = {
        "version": CONFIG_VERSION,
        "scenario_file": str(scenario_path) if scenario_path else None,
        "scenario_seed": scenario.seed,
        "mode": s.mode,
        "objective": s.objective,
        "epsilon": log.config.epsilon,
        "h": log.h_eff,
        "T": log.T,
        "delta": s.delta,
        "sample_stride": s.stride,
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
    if s.delta is not None:
        out["saturated_fit"] = metrics.saturated_fit(log, s.delta).tolist()
    if offline_sol is not None:
        out["regret"] = {**asdict(metrics.regret(log, offline_sol)), "offline_file": s.offline}
    return out


def _run(s, config, scenarios, horizons, outs, scenario_path, offline_sol) -> None:
    """Run each scenario over its horizon as the rows of one ``simulate_rows``
    call, and write row b's run (trajectory.csv, metrics.json) to ``outs[b]``:
    the runs in row order up to the first failed one, whose error propagates."""
    env = shepherd.shepherd_env(scenarios, s.objective, noise="frozen")
    logs = simulate_rows(env if s.delta is None else env.saturate(s.delta), config, horizons,
                         scenarios[0].action_set(), sample_stride=s.stride)
    for sc, out, log in zip(scenarios, outs, logs):
        if isinstance(log, Exception):
            raise log
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out / "trajectory.csv", log)
        shepherd.write_json(out / "metrics.json",
                            _run_metrics_dict(s, log, sc, scenario_path, offline_sol))


def cmd_simulate(args) -> int:
    cfg = load_experiment_config(args.config) if args.config else {}
    s = argparse.Namespace()  # the settings merged, the numbers as floats
    for key, (types, default) in SIMULATE_SETTINGS.items():
        value = vars(args).get(key, cfg.get(key, default))
        try:
            setattr(s, key, float(value) if types is _NUMBER and value is not None else value)
        except OverflowError:  # an integer beyond the floats, which only a config gives
            raise ValueError(f"config key {key!r} is too large for a float") from None
    s.objective = OBJECTIVE_NAMES.get(s.objective, s.objective)
    if s.objective not in shepherd.OBJECTIVES:
        raise ValueError(f"objective must be one of {sorted(OBJECTIVE_NAMES)}")
    if s.scenario is None:
        raise ValueError("a scenario file is required (--scenario or config)")
    if s.out is None:
        raise ValueError("an output directory is required (--out or config)")
    if s.sweep and s.offline is not None:
        raise ValueError("--sweep and --offline cannot be combined: an offline solution "
                         "belongs to one horizon")
    if s.sweep and s.horizon is not None:
        raise ValueError("--sweep and --horizon cannot be combined: the sweep lists the "
                         "horizons")
    # Every value is checked before the first draw.
    config = ControllerConfig(epsilon=s.epsilon, h=s.step, mode=s.mode)
    if s.delta is not None:
        saturation_level(s.delta)
    if s.sweep:
        horizons = [float(T) for T in str(s.sweep).split(",") if T.strip()]
        if not horizons:
            raise ValueError("empty sweep list")
    else:
        horizons = [] if s.horizon is None else [s.horizon]
    horizons = check_run(horizons, s.stride)

    scenario_path = None
    if isinstance(s.scenario, str):
        scenario_path = Path(s.scenario)
        if not scenario_path.exists():
            raise ValueError(f"scenario file not found: {scenario_path}")
        scenario = shepherd.load_scenario(scenario_path)
    else:  # an inline parameter object: the config's types allow no other
        params = dict(s.scenario)
        _check_types("inline scenario", params, shepherd.GENERATE_PARAMS)
        if "seed" not in params:
            if args.seed is None:
                raise ValueError("inline scenario parameters need a seed (--seed)")
            params["seed"] = args.seed
        scenario = shepherd.generate_sheep_paths(**params)

    offline_sol = None
    if s.offline is not None:  # regret against another problem's optimum means nothing
        with open(s.offline) as fh:
            d = json.load(fh)
        offline_sol = offline_from_dict(d)
        if d.get("objective") != s.objective:
            raise ValueError(f"the offline solution is for objective {d.get('objective')!r}, "
                             f"not {s.objective!r}")
        if offline_sol.xdagger.tobytes() != scenario.xdagger.tobytes():
            raise ValueError("the offline solution's xdagger is not the scenario's: it solves "
                             "another scenario")
        if offline_sol.xstar.shape != (scenario.action_dim,):
            raise ValueError(f"the offline solution's xstar has shape {offline_sol.xstar.shape}, "
                             f"not the scenario's action dimension ({scenario.action_dim},)")
        metrics.check_horizon(offline_sol, horizons[0] if horizons else scenario.T)

    # Each horizon of a sweep runs a scenario regenerated for it, which no file
    # holds.  A horizon that finds no viable draw fails as its row would: the
    # horizons before it run and are written, then its error propagates.
    scenarios, failure = [], None
    if s.sweep:
        outs, scenario_path = [Path(s.out) / f"T_{T:g}" for T in horizons], None
        try:
            for T in horizons:
                scenarios.append(shepherd.regenerate(scenario, T=T))
        except shepherd.GeneratorError as err:
            failure = err
    else:
        scenarios, horizons, outs = [scenario], horizons or [scenario.T], [Path(s.out)]
    if scenarios:
        _run(s, config, scenarios, horizons[:len(scenarios)], outs, scenario_path, offline_sol)
    if failure:
        raise failure
    print(f"simulation results written to {s.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# offline
# ---------------------------------------------------------------------------

def cmd_offline(args) -> int:
    objective = OBJECTIVE_NAMES.get(args.objective, args.objective)
    if objective == "none":
        raise ValueError("the offline solve needs an objective (blacksheep or minaccel)")
    budget = {"max_iter": args.max_iter} if "max_iter" in args else {}
    if budget.get("max_iter", 1) < 1:
        raise ValueError("the iteration budget --max-iter must be at least 1")
    scenario = shepherd.load_scenario(args.scenario)
    env = shepherd.shepherd_env(scenario, objective, noise="mean")
    sol = solve_offline(
        env, scenario.offline_grid(), scenario.action_set(),
        viability=shepherd.viability_certificate(scenario), **budget,
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
    names in file order, and their values, parsed without the other columns.

    A large table is parsed in two processes (``_in_two_processes``), split
    at the row count that the middle row's length gives: the child parses the
    rows after the split and sends their count and values through the pipe
    into this process's array.  Both halves make the one call's parse of the
    same text, so the array is that call's.
    If the child fails or warns, or this half warns of a line of no data (the
    child's ``skiprows`` counts it, so the halves would overlap), the table
    is parsed again in that one call, which raises as it does alone.
    """
    with open(path) as fh:
        line = fh.readline()
        size = os.fstat(fh.fileno()).st_size
        fh.buffer.seek(size // 2)
        fh.buffer.readline()
        half = (size - len(line)) // max(len(fh.buffer.readline()), 1) // 2
    header = line.strip().split(",")
    cols = [i for i, name in enumerate(header) if keep(name)]

    def parse(**rows):
        return np.loadtxt(path, delimiter=",", ndmin=2, usecols=cols, **rows)

    def child(w):
        warnings.simplefilter("error")  # an empty half warns
        rest = parse(skiprows=1 + half)
        with open(w, "wb") as pipe:
            pipe.write(np.int64(len(rest)).tobytes())
            pipe.write(rest)

    def parent(r):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            top = parse(skiprows=1, max_rows=half)
        count = np.zeros(1, np.int64)
        with open(r, "rb", closefd=False) as pipe:
            if caught or pipe.readinto(count) < count.nbytes:
                return None
            data = np.empty((half + int(count[0]), len(cols)))
            data[:half] = top
            return data if pipe.readinto(data[half:]) == data[half:].nbytes else None

    # No float's repr is longer than 24 characters: this many values at least.
    data, code = _in_two_processes((size - len(line)) // 25, child, parent) or (None, 1)
    if data is None or code:
        data = parse(skiprows=1)
    return [header[i] for i in cols], data


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

    # Each setting flag's dest is its SIMULATE_SETTINGS key, which has the defaults.
    s = sub.add_parser("simulate", help="run a controller over a scenario",
                       argument_default=argparse.SUPPRESS)
    s.add_argument("--config", default=None, help="experiment config JSON")
    s.add_argument("--scenario")
    s.add_argument("--mode", choices=MODES)
    s.add_argument("--epsilon", type=float)
    s.add_argument("--step", type=float)
    s.add_argument("--horizon", type=float)
    s.add_argument("--delta", type=float)
    s.add_argument("--objective", choices=sorted(OBJECTIVE_NAMES))
    s.add_argument("--seed", type=int, default=None, help="seed for inline scenario parameters")
    s.add_argument("--out")
    s.add_argument("--sweep", help='horizon list, e.g. "0.5,1,2"')
    s.add_argument("--stride", type=int)
    s.add_argument("--offline", help="offline.json for regret")
    s.set_defaults(func=cmd_simulate)

    # --max-iter's default is solve_offline's.
    o = sub.add_parser("offline", help="clairvoyant fixed-action solve",
                       argument_default=argparse.SUPPRESS)
    o.add_argument("--scenario", required=True)
    o.add_argument("--objective", choices=sorted(OBJECTIVE_NAMES), required=True)
    o.add_argument("--max-iter", type=int,
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
    except (DivergenceError, EvaluatorError, MembershipError) as exc:
        # A MembershipError is a ValueError, but not the caller's fault.
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleEnvironmentError, shepherd.GeneratorError) as exc:
        print(f"viability: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InnerSolveError as exc:
        print(f"offline solve inconclusive: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
