"""``scripts/log_hashes.py diff`` on small synthetic records of both kinds:
a pytest session's integrator runs and a CLI chain's files and exit codes."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_log_hashes():
    spec = importlib.util.spec_from_file_location("log_hashes", ROOT / "scripts" / "log_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BEFORE = {
    "tests/test_a.py::test_run": [{"logs": [{"t": "aa", "h_eff": "0x1p-10"}]},
                                  {"error": "DivergenceError: state magnitude exceeded"}],
    "ensemble/seed1 exit 0: generate --seed 1 --out scen/s1.json": [{"exit": 0}],
    "ensemble/seed1/scen/s1.json": [{"sha256": "11"}],
    "ensemble/seed1/rep/s1/feas/T_0.1/metrics.json": [{"sha256": "22"}],
}


def write(path, records):
    path.write_text(json.dumps(records))
    return str(path)


def test_diff_names_each_file_that_differs_and_each_missing_key(tmp_path, capsys):
    diff = load_log_hashes().diff
    before = write(tmp_path / "before.json", BEFORE)
    assert diff(before, write(tmp_path / "same.json", BEFORE)) == 0
    assert "4 keys in both, 5 runs compared (1 failed), 0 differ" in capsys.readouterr().out

    changed = {**BEFORE, "ensemble/seed1/rep/s1/feas/T_0.1/metrics.json": [{"sha256": "23"}],
               "ensemble/seed1 exit 0: generate --seed 1 --out scen/s1.json": [{"exit": 4}]}
    del changed["ensemble/seed1/scen/s1.json"]
    changed["ensemble/seed1/rep/new.svg"] = [{"sha256": "33"}]
    assert diff(before, write(tmp_path / "after.json", changed)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        'ensemble/seed1 exit 0: generate --seed 1 --out scen/s1.json [0]: {"exit": 0} != {"exit": 4}',
        f"ensemble/seed1/rep/new.svg: new in {tmp_path / 'after.json'}",
        'ensemble/seed1/rep/s1/feas/T_0.1/metrics.json [0]: {"sha256": "22"} != {"sha256": "23"}',
        f"ensemble/seed1/scen/s1.json: only in {before}",
    ]
    assert "3 differ; 1 keys new in" in lines[-1]


def test_diff_compares_runs_regrouped_into_other_calls(tmp_path):
    # One call of two rows against two calls of one row each: the same runs.
    rows = [{"t": "aa"}, {"error": "EvaluatorError: non-finite"}]
    diff = load_log_hashes().diff
    before = write(tmp_path / "before.json", {"t::x": [{"logs": rows}]})
    after = write(tmp_path / "after.json", {"t::x": [{"logs": rows[:1]}, {"logs": rows[1:]}]})
    assert diff(before, after) == 0
    shorter = write(tmp_path / "shorter.json", {"t::x": [{"logs": rows[:1]}]})
    assert diff(before, shorter) == 1
