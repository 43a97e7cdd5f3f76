#!/usr/bin/env python3
"""saddlesim benchmark: drives the public CLI and prints its metrics.

    python3 bench/run.py --workload regret-chain --seed 1 --seconds 30 --trace 0

Run from the repository root (or a checkout of it).  The program is imported
from ``src/``; nothing is installed.  One process runs the workload's commands
through ``saddlesim.cli.main(argv)`` one after another (a closed loop with a
single client), repeating the command list until ``--seconds`` is used up,
and checks every output.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: medians
over the repeats of times scaled to a reference host speed (see ``timed``).
Untraced runs are the only source of those.  ``--trace 1`` alternates untraced and
traced repeats and reports the per-layer metrics from the spans of the
traced ones (``bench/tracing.py``), plus the tracing overhead.

Other modes:

    python3 bench/run.py --self-test                 # the checks catch tampered outputs
    python3 bench/run.py --record-reference 0:64     # rewrite bench/reference.json

See ``bench/README.md`` for the workloads, metrics and caveats.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 20     # no further set-up samples once this much time is spent
CHILD_TIMEOUT_S = 120
PROBE_LOOPS = 1000
PROBE_REF_S = 0.010     # probe time on an undisturbed 2-vCPU Xeon host

# Set-up as a user pays it: a fresh interpreter imports the package and runs
# the workload's generate commands.
SETUP_CHILD = (
    "import json, sys\n"
    "from saddlesim import cli\n"
    "sys.exit(max([cli.main(list(a)) for a in json.loads(sys.argv[1])] + [0]))\n"
)


def probe() -> float:
    """Time a fixed loop of the kind the program runs per step (small numpy
    operations and scalar recurrences), to gauge the host's current speed."""
    x = np.linspace(-1.0, 1.0, 12)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        y = np.clip(x * 0.5 + 0.1, -1.0, 1.0)
        acc += float(y @ y)
        p = [1.0, 0.5]
        for j in range(1, 29):
            p.append(((2 * j + 1) * 0.5 * p[j] - j * p[j - 1]) / (j + 1))
    return time.perf_counter() - t0


def timed(fn):
    """Run fn; return (its result, wall seconds, scaled seconds).

    Scaled seconds are the wall time at the reference host speed: wall time
    times PROBE_REF_S over the mean of the probes taken just before and just
    after.  Other tenants of a shared host slow it by up to 2x in phases of
    tens of seconds; the probes see the same slowdown, so the ratio cancels it.
    """
    before = probe()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    after = probe()
    return out, wall, wall * PROBE_REF_S / (0.5 * (before + after))


@dataclass
class CommandResult:
    kind: str
    rc: int | None
    stdout: str
    fails: list = field(default_factory=list)
    wall: float = 0.0
    seconds: float = 0.0    # scaled to the reference host speed (see timed)


@dataclass
class Repeat:
    traced: bool
    results: list
    runs: list = field(default_factory=list)
    offline_cost: float | None = None
    fail_lines: int = 0

    def seconds(self, kind: str | None = None) -> float:
        return sum(r.seconds for r in self.results if kind is None or r.kind == kind)

    def wall(self) -> float:
        return sum(r.wall for r in self.results)

    @property
    def steps(self) -> int:
        return sum(run.steps for run in self.runs)


def _import_program():
    sys.path.insert(0, str(SRC))
    from saddlesim import cli
    return cli


def run_command(cli, cmd) -> CommandResult:
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(list(cmd.argv)), None
        except Exception:
            # A raising command is a counted failure, not the end of the run.
            return None, f"{cmd.kind} raised:\n{traceback.format_exc()}"

    (rc, raised), wall, seconds = timed(call)
    res = CommandResult(cmd.kind, rc, out.getvalue(), wall=wall, seconds=seconds)
    if raised:
        res.fails.append(raised)
    elif rc != 0:
        res.fails.append(f"{cmd.kind} exited {rc}: {err.getvalue().strip()}")
    return res


def check_repeat(rep: Repeat, workload, rep_dir: Path, first: Repeat | None,
                 refs: dict | None) -> None:
    """Attach output-check failures to the command that wrote the output."""
    scenarios: dict = {}
    prior = {r.label: r.csv_sha256 for r in first.runs} if first is not None else {}
    for cmd, res in zip(workload.repeat, rep.results):
        if res.rc != 0:
            continue
        if cmd.scenario is not None and cmd.scenario not in scenarios:
            scenarios[cmd.scenario] = checks.load_json(cmd.scenario)
        scenario = scenarios.get(cmd.scenario)
        if cmd.kind == "simulate":
            dirs = checks.run_dirs(cmd.out)
            if not dirs:
                res.fails.append(f"simulate wrote no run under {cmd.out}")
            for d in dirs:
                label = d.relative_to(rep_dir).as_posix()
                run, fails = checks.check_run(d, scenario, label)
                res.fails += fails
                if run is None:
                    continue
                rep.runs.append(run)
                if prior.get(run.label, run.csv_sha256) != run.csv_sha256:
                    res.fails.append(f"{label}: trajectory.csv differs from the first repeat")
                if refs is not None:
                    if run.label in refs:
                        res.fails += checks.check_reference(run, refs[run.label])
                    else:
                        res.fails.append(f"{label}: run missing from the recorded reference")
        elif cmd.kind == "offline":
            rep.offline_cost, fails = checks.check_offline(cmd.out, scenario)
            res.fails += fails
        elif cmd.kind == "report":
            # PASS/FAIL lines are recorded, not failures: a correct comparator
            # is expected to turn the regret line red.
            rep.fail_lines += sum(1 for line in res.stdout.splitlines() if ": FAIL" in line)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure_setup(make, seed: int, work: Path):
    """Time up to SETUP_SAMPLES fresh-interpreter set-ups, stopping early
    once SETUP_BUDGET_S is spent (generate takes a minute on a few seeds).

    Returns the scaled times, the attempted and failed command counts, the
    failure messages and the scenario directory (None if every set-up failed).
    """
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times, fails, attempted, failed = [], [], 0, 0
    first, scen_dir = None, None
    start = time.perf_counter()
    for k in range(SETUP_SAMPLES):
        if k and time.perf_counter() - start > SETUP_BUDGET_S:
            break
        scen = work / f"setup{k}"
        cmds = make(seed, scen, work / "rep").setup
        attempted += len(cmds)
        argv = [sys.executable, "-c", SETUP_CHILD, json.dumps([c.argv for c in cmds])]
        try:
            proc, _, seconds = timed(lambda: subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            failed += len(cmds)
            fails.append(f"set-up did not finish within {CHILD_TIMEOUT_S} s")
            continue
        times.append(seconds)
        if proc.returncode != 0:
            failed += len(cmds)
            fails.append(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            continue
        digests = [_digest(c.out) for c in cmds]
        if first is None:
            first, scen_dir = digests, scen
        else:
            bad = sum(a != b for a, b in zip(digests, first))
            failed += bad
            if bad:
                fails.append("generate wrote different scenarios for the same seed")
    return times, attempted, failed, fails, scen_dir


def measure(cli, workload, rep_dir: Path, seconds: float, tracer, refs) -> list[Repeat]:
    """Run repeats until the next one would end past the deadline.

    Untraced runs make at least two repeats (the second is checked
    byte-for-byte against the first).  Traced runs alternate untraced and
    traced repeats, at least one of each.
    """
    kinds = (False, True) if tracer is not None else (False,)
    reps: list[Repeat] = []
    last: dict[bool, float] = {}
    deadline = time.perf_counter() + seconds
    while True:
        traced = kinds[len(reps) % len(kinds)]
        if len(reps) >= 2 and time.perf_counter() + last.get(traced, 0.0) > deadline:
            break
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            try:
                results = [run_command(cli, c) for c in workload.repeat]
            finally:
                tracer.uninstall()
        else:
            results = [run_command(cli, c) for c in workload.repeat]
        last[traced] = time.perf_counter() - t0
        rep = Repeat(traced, results)
        check_repeat(rep, workload, rep_dir, reps[0] if reps else None, refs)
        reps.append(rep)
    return reps


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it (shown from the
    median up, so from 20 samples)."""
    n = len(samples)
    if n < 20:
        return "-"
    q = math.floor(100 * (n - 10) / n)
    return f"p{q}={statistics.quantiles(samples, n=100, method='inclusive')[q - 1]:.6g}"


def provenance() -> dict:
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = None
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    threads = {k: v for k, v in sorted(os.environ.items())
               if "THREADS" in k or k.startswith(("OPENBLAS", "MKL", "OMP", "BLIS", "GOTO"))}
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "thread_env": threads, "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def samples(setup_times, reps: list[Repeat]) -> dict:
    """Per-repeat samples of each end-to-end timing (untraced repeats only)."""
    plain = [r for r in reps if not r.traced]
    out = {
        "setup_s": ("s", setup_times),
        "wall_s": ("s", [r.seconds() for r in plain]),
        "sim_steps_per_s": ("steps/s", [r.steps / r.seconds("simulate") for r in plain]),
        "report_s": ("s", [r.seconds("report") for r in plain]),
    }
    if any(r.kind == "offline" for r in plain[0].results):
        out["offline_s"] = ("s", [r.seconds("offline") for r in plain])
        out["offline_cost"] = ("cost", [r.offline_cost for r in plain if r.offline_cost is not None])
    return out


def end_to_end(setup_times, reps: list[Repeat]) -> dict:
    """The BENCHMARK.json metrics: medians of the scaled samples."""
    s = samples(setup_times, reps)
    med = {k: statistics.median(v) for k, (_, v) in s.items() if v}
    return {
        "setup_s": med["setup_s"],
        "wall_s": med["wall_s"],
        "sim_steps_per_s": med["sim_steps_per_s"],
        "report_s": med["report_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_summary(name, seed, setup_times, reps, attempted, failed, ref_note) -> None:
    plain = [r for r in reps if not r.traced]
    print(f"workload {name}  seed {seed}  repeats {len(plain)} untraced, "
          f"{len(reps) - len(plain)} traced  (closed loop, 1 client)")
    print(f"  {'metric':<16} {'median':>12} {'tail':>16} {'n':>3}  unit")
    for metric, (unit, vals) in samples(setup_times, reps).items():
        if vals:
            print(f"  {metric:<16} {statistics.median(vals):>12.6g} {tail(vals):>16} "
                  f"{len(vals):>3}  {unit}")
    print(f"  {'peak_rss_mb':<16} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:>12.6g}"
          f" {'-':>16} {1:>3}  MB")
    print(f"  {'failed_ratio':<16} {failed / attempted:>12.6g} {'-':>16} {'':>3}  "
          f"failed/attempted = {failed}/{attempted}")
    print("  repeat wall/scaled s: " + " ".join(
        f"{'T' if r.traced else 'U'}{r.wall():.3f}/{r.seconds():.3f}" for r in reps))
    print(f"  report.fail_lines per repeat: {statistics.median(r.fail_lines for r in reps):g}"
          f"   reference: {ref_note}")


def result_line(metrics: dict, kind: str, attempted: int, failed: int) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} do not match BENCHMARK.json")
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    })


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def load_references() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def bench(args, cli) -> int:
    make = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times, setup_attempted, setup_failed, fails, scen = measure_setup(make, args.seed, work)
        if scen is None:
            print("\n".join(fails), file=sys.stderr)
            print("bench: every set-up run failed; nothing to measure", file=sys.stderr)
            return 1
        rep_dir = work / "rep"
        workload = make(args.seed, scen, rep_dir)
        refs = load_references().get(f"{args.workload}/{args.seed}")
        tracer = tracing.Tracer() if args.trace else None
        reps = measure(cli, workload, rep_dir, args.seconds, tracer, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    results = [r for rep in reps for r in rep.results]
    attempted = setup_attempted + len(results)
    failed = setup_failed + sum(1 for r in results if r.fails)
    fails += [msg for r in results for msg in r.fails]
    ref_note = ("checked against bench/reference.json" if refs is not None
                else "no recorded values for this seed; determinism and schema checks only")
    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    for msg in fails[:20]:
        print(f"FAILED: {msg}")
    print_summary(args.workload, args.seed, setup_times, reps, attempted, failed, ref_note)

    if not args.trace:
        print(result_line(end_to_end(setup_times, reps), "end_to_end", attempted, failed))
        return 0
    traced = [r for r in reps if r.traced]
    spans = tracer.spans()
    an = tracing.analyse(spans)
    layers = tracing.layer_metrics(spans, an, len(traced))
    layers["report.fail_lines"] = statistics.median(r.fail_lines for r in traced)
    plain_wall = statistics.median(r.seconds() for r in reps if not r.traced)
    layers["trace.overhead"] = statistics.median(r.seconds() for r in traced) / plain_wall
    dump = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.npz"
    tracer.dump(dump, spans)
    print(f"spans: {spans['name'].size} recorded, written to {dump.relative_to(ROOT)}; "
          f"self times sum to {layers['trace.self_sum_s']:.6g} s per repeat, "
          f"traced wall {layers['trace.wall_s']:.6g} s")
    print(result_line(layers, "per_layer", attempted, failed))
    return 0


def self_test(cli) -> int:
    """Run a small chain twice, then tamper with its outputs: one multiplier in
    trajectory.csv, and x* in offline.json.  Each must count as a failure."""
    work = ROOT / ".bench_work" / f"self-test-{os.getpid()}"
    scen, rep_dir = work / "scenario", work / "rep"
    gen = workloads.generate_cmd(scen, DEFAULT_SEED, "--n", "6", "--n-sheep", "30", "--noise-cells", "200")
    offline_json = rep_dir / "offline.json"
    offline = workloads.Command(("offline", "--scenario", str(gen.out), "--objective", "blacksheep",
                                 "--max-iter", "50", "--out", str(offline_json)), gen.out, offline_json)
    sim = workloads.simulate_cmd(gen.out, rep_dir / "saddle", "--mode", "saddle", "--objective",
                              "blacksheep", "--epsilon", "50", "--step", "1e-3", "--stride", "1",
                              "--offline", str(offline_json))
    workload = workloads.Workload((gen,), (offline, sim))
    ok = True
    try:
        if run_command(cli, gen).fails:
            print("self-test: generate failed", file=sys.stderr)
            return 1
        reps = measure(cli, workload, rep_dir, 0.0, None, None)
        clean = sum(1 for rep in reps for r in rep.results if r.fails)
        print(f"clean run: {clean} failed of {sum(len(rep.results) for rep in reps)} commands")
        ok &= clean == 0

        def recheck(label: str, expect: str) -> bool:
            rep = Repeat(False, [CommandResult(r.kind, r.rc, r.stdout) for r in reps[-1].results])
            check_repeat(rep, workload, rep_dir, reps[0], None)
            failed = [r for r in rep.results if r.fails]
            print(f"{label}: failed_ratio {len(failed)}/{len(rep.results)}")
            for r in failed:
                for msg in r.fails:
                    print(f"  {r.kind}: {msg}")
            return any(r.kind == expect for r in failed)

        csv = rep_dir / "saddle" / "trajectory.csv"
        original = csv.read_text()
        lines = original.splitlines(keepends=True)
        col = lines[0].split(",").index("lambda_0")
        row = lines[len(lines) // 2].split(",")
        row[col] = repr(-abs(float(row[col])) - 1e-3)
        lines[len(lines) // 2] = ",".join(row)
        csv.write_text("".join(lines))
        ok &= recheck("tampered trajectory.csv (one lambda)", "simulate")
        csv.write_text(original)

        sol = json.loads(offline_json.read_text())
        sol["xstar"] = [v + 1.0 for v in sol["xdagger"]]
        offline_json.write_text(json.dumps(sol))
        ok &= recheck("infeasible offline.json", "offline")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    print("self-test: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def record_reference(cli, seeds: range, names) -> int:
    """Run each workload once per seed and store the final fit, cost and
    lambda_max of every simulate run.  Run this at a commit whose numbers are
    the reference; later runs compare against the file."""
    table = load_references()
    for name in names:
        for seed in seeds:
            work = ROOT / ".bench_work" / f"record-{os.getpid()}"
            try:
                wl = workloads.WORKLOADS[name](seed, work / "scen", work / "rep")
                setup = [run_command(cli, c) for c in wl.setup]
                rep_dir = work / "rep"
                rep_dir.mkdir(parents=True)
                rep = Repeat(False, [run_command(cli, c) for c in wl.repeat])
                check_repeat(rep, wl, rep_dir, None, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            bad = [m for r in setup + rep.results for m in r.fails]
            if bad:
                print(f"{name}/{seed}: not recorded:\n" + "\n".join(bad), file=sys.stderr)
                return 1
            table[f"{name}/{seed}"] = {r.label: {"fit": r.fit, "cost": r.cost, "lambda_max": r.lambda_max}
                                       for r in rep.runs}
            print(f"recorded {name}/{seed}: {len(rep.runs)} runs", flush=True)
    with contextlib.suppress(OSError):
        (ROOT / ".bench_work").rmdir()
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}"
                      for k in sorted(table, key=lambda k: (k.split("/")[0], int(k.split("/")[1]))))
    REFERENCE.write_text("{\n" + body + "\n}\n")
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"base seed S; scenarios are drawn from S (and S+1) (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measurement budget; repeats stop before overrunning it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-reference", metavar="START:STOP",
                    help="record reference values for seeds START..STOP-1")
    args = ap.parse_args(argv)
    if not (args.workload or args.self_test or args.record_reference):
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "saddlesim" / "cli.py").is_file():
        print(f"bench: no program source at {SRC.relative_to(ROOT)}/saddlesim; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    cli = _import_program()
    if args.self_test:
        return self_test(cli)
    if args.record_reference:
        start, stop = (int(v) for v in args.record_reference.split(":"))
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        return record_reference(cli, range(start, stop), names)
    return bench(args, cli)


if __name__ == "__main__":
    sys.exit(main())
