"""Smoke test of the layer-timing script on the working tree: its per-step
layers and its A/B ``simulate_rows`` cases run once, so that the tool keeps
working when the program's protocols change."""

import importlib.util
from pathlib import Path

import saddlesim
from saddlesim import shepherd
from saddlesim.dynamics import TrajectoryLog


def load_bench_layers():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_layers_and_ab_simulate_cases_run_once(small_scenario):
    bench_layers = load_bench_layers()
    n = small_scenario.action_dim
    rows = bench_layers.step_layers_us(small_scenario, repeats=1)
    assert {f"raw_us.{objective}.n{n}" for objective in shepherd.OBJECTIVES} <= set(rows)
    assert f"state_step_us.n{n}_m5" in rows
    assert all(row["median"] > 0.0 for row in rows.values())
    cases = bench_layers.ab_simulate_cases(saddlesim)
    assert len(cases) == 4
    for call, _, _ in cases.values():
        logs = call()
        assert all(isinstance(log, TrajectoryLog)
                   for log in (logs if isinstance(logs, list) else [logs]))
