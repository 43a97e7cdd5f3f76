"""Smoke test of the layer-timing script on the working tree: every ``ab``
case runs once with the working tree on both sides, so that the tool keeps
working when the program's protocols change (a case whose ``simulate_rows``
row fails raises), and its rows still time every layer of the per-tree
timing that ``ab`` replaced."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The layers the per-tree timing produced before ``ab`` held them all, and
# viability's generate timings.
TIMED_LAYERS = (
    *(f"{layer}.n{n}" for n in (12, 60) for layer in (
        "simulate_one_step_fresh_ms.saddle", "table_build_ms.K512", "raw_us.none",
        "raw_us.black_sheep", "raw_us.min_acceleration", "box_project_field_us.block512")),
    "state_step_us.n12_m5", "state_step_us.n60_m5", "orthant_project_field_us.block512.m5",
    "check_block_us.block512.R1.n12", "check_block_us.block512.R2.n60",
    "generate_ms.seed1_default", "generate_ms.seed1_minaccel_fine",
    *(f"rows_us_per_run_step.{run}.B{B}" for run in ("feasibility.n60", "saddle.n12")
      for B in (1, 2, 6)),
    "table_build_ms.K1001.regret_chain", "batch_evaluate_us.one_action.regret_chain",
    "batch_evaluate_us.per_node.regret_chain", "batch_constraints_us.one_action.regret_chain",
    "box_project_point_us.rows1001_n60", "estimate_K_s.regret_chain",
    "solve_offline_s.regret_chain_600", "write_trajectory_csv_s.regret_chain_2501",
    "render_run_figures_ms.regret_chain_2501",
    *(f"viability_s.n6_seed{seed}" for seed in (0, 35, 43, 46)),
)
# Layers timed only since ``ab`` held them all.
AB_LAYERS = ("simulate_us_per_step.ensemble_feasibility_sat_rows", "raw_us.none_saturated.n12",
             "raw_us.none_saturated.n60", "sheep_positions_ms.regret_chain_2501",
             "read_csv_ms.regret_chain_2501",
             "check_block_us.block512.R1.n12.nan_at_last_node",
             "check_block_us.block512.R2.n60.nan_at_last_node")
# The one-action grid Lagrangian is the multiplier loop's black-sheep evaluation.
SAME_LAYER = {"batch_evaluate_us.one_action.regret_chain":
              "lagrangian_eval_us.black_sheep.plain.regret_chain"}


def load_bench_layers():
    path = ROOT / "scripts" / "bench_layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_ab_case_runs_once_on_the_working_tree():
    bench_layers = load_bench_layers()
    rows = bench_layers.ab(str(ROOT), str(ROOT), repeats=1)
    assert {SAME_LAYER.get(layer, layer) for layer in TIMED_LAYERS} | set(AB_LAYERS) <= set(rows)
    for row in rows.values():
        assert row["before"]["repeats"] == row["after"]["repeats"] == 1
        assert row["before"]["median"] > 0.0 and row["after"]["median"] > 0.0
        assert isinstance(row["resolved"], bool)


def test_resolved_needs_nine_wins_in_ten_and_a_gap_past_the_before_iqr():
    resolved = load_bench_layers().resolved
    before = [1.0 + 0.01 * i for i in range(10)]  # interquartile range 0.045
    assert resolved(before, [b - 0.1 for b in before])
    assert not resolved(before, [b - 0.01 for b in before])  # wins 10 of 10 by less than the IQR
    assert not resolved([b - 0.1 for b in before], before)  # the before side wins
    eight = [b - 0.1 if i < 8 else b + 0.1 for i, b in enumerate(before)]
    assert not resolved(before, eight)
    tie = [b - 0.1 if i < 9 else b for i, b in enumerate(before)]  # a tie counts for neither
    assert resolved(before, tie)
    assert not resolved(before, [b - 0.1 if i < 8 else b for i, b in enumerate(before)])
