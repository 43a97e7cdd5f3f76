"""The benchmark's workloads: CLI command lists derived from a base seed S.

Scenarios are the only inputs derived from S.  Set-up runs the ``generate``
commands; one *repeat* is the rest of the list, run back to back through
``saddlesim.cli.main`` by a single client (a closed loop).  Why each workload
exists is in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    scenario: Path | None   # scenario JSON the command reads or writes
    out: Path               # file or directory the command writes

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    setup: tuple[Command, ...]
    repeat: tuple[Command, ...]


def generate_cmd(scen: Path, seed: int, *extra: str) -> Command:
    out = scen / f"s{seed}.json"
    return Command(("generate", "--seed", str(seed), *extra, "--out", str(out)), out, out)


def simulate_cmd(scenario: Path, out: Path, *flags: str) -> Command:
    return Command(("simulate", "--scenario", str(scenario), *flags, "--out", str(out)),
                   scenario, out)


def report_cmd(rep: Path) -> Command:
    return Command(("report", "--results", str(rep)), None, rep)


def ensemble(seed: int, scen: Path, rep: Path) -> Workload:
    """Two seeds x {plain, saturated} feasibility runs over a two-horizon
    sweep (8 runs, 12,000 steps at n=30, m=5), then one report."""
    setup = tuple(generate_cmd(scen, s) for s in (seed, seed + 1))
    runs = []
    for gen in setup:
        base = rep / gen.out.stem
        flags = ("--mode", "feasibility", "--epsilon", "50", "--sweep", "0.1,0.2")
        runs.append(simulate_cmd(gen.out, base / "feas", *flags))
        runs.append(simulate_cmd(gen.out, base / "sat", *flags, "--delta", "0.1"))
    return Workload(setup, (*runs, report_cmd(rep)))


def regret_chain(seed: int, scen: Path, rep: Path) -> Workload:
    """generate (T = 0.25) -> offline (black sheep) -> saddle simulate with
    regret, all 2,500 steps written to the CSV -> report."""
    gen = generate_cmd(scen, seed, "--horizon", "0.25")
    offline_json = rep / "offline.json"
    offline = Command(("offline", "--scenario", str(gen.out), "--objective", "blacksheep",
                       "--max-iter", "600", "--out", str(offline_json)), gen.out, offline_json)
    sim = simulate_cmd(gen.out, rep / "saddle", "--mode", "saddle", "--objective", "blacksheep",
                    "--epsilon", "50", "--stride", "1", "--offline", str(offline_json))
    return Workload((gen,), (offline, sim, report_cmd(rep)))


def minaccel_fine(seed: int, scen: Path, rep: Path) -> Workload:
    """Small action (2n = 12) min-acceleration saddle run at a fine step:
    5,000 steps, then a report."""
    gen = generate_cmd(scen, seed, "--n", "6", "--n-sheep", "30")
    sim = simulate_cmd(gen.out, rep / "minaccel", "--mode", "saddle", "--objective", "minaccel",
                    "--epsilon", "50", "--step", "2e-5", "--horizon", "0.1", "--stride", "20")
    return Workload((gen,), (sim, report_cmd(rep)))


WORKLOADS = {"ensemble": ensemble, "regret-chain": regret_chain, "minaccel-fine": minaccel_fine}
