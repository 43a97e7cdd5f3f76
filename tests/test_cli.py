import errno
import inspect
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlesim import cli, shepherd
from saddlesim.convex_sets import DimensionError, MembershipError
from saddlesim.dynamics import simulate_rows
from saddlesim.environment import EvaluatorError
from saddlesim.offline import (InfeasibleEnvironmentError, InnerSolveError, OfflineSolution,
                               TimeGrid, solve_offline)

from helpers import assert_same_fields


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "scenario.json"
    code = run_cli("generate", "--seed", 1, "--n", 12, "--n-sheep", 12,
                   "--noise-cells", 200, "--out", path)
    assert code == 0
    return path


def test_generate_writes_viable_scenario(scenario_file):
    data = json.loads(Path(scenario_file).read_text())
    assert data["viability_residual"] <= 1e-6
    assert data["kind"] == "shepherd"


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("generate", "--seed", 7, "--n", 10, "--n-sheep", 10,
                       "--waypoints", 2, "--noise-cells", 150, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_trivial_herd(tmp_path):
    out = tmp_path / "line.json"
    assert run_cli("generate", "--seed", 2, "--sigma", 0.0, "--waypoints", 0,
                   "--n", 8, "--n-sheep", 8, "--noise-cells", 100, "--out", out) == 0
    data = json.loads(out.read_text())
    assert data["viability_residual"] <= -0.089  # straight-line herd: full margin


@pytest.mark.parametrize("flag, value, message", [
    ("--m", 0, "sheep count m must be at least 1"),
    ("--horizon", 0, "horizon T must be positive"),
    ("--sigma", -0.1, "noise_std must be nonnegative"),
    # Checked before any draw: a box of half-width 0 spent all 100 draws and
    # exited 4, and no noise cell or a negative offset failed inside numpy.
    ("--action-half", 0, "action_half must be positive"),
    ("--action-half", -1, "action_half must be positive"),
    ("--noise-cells", 0, "noise_cells must be at least 1"),
    ("--offset", -0.1, "offset_box must be nonnegative"),
])
def test_generate_rejects_out_of_range_parameters(tmp_path, capsys, flag, value, message):
    out = tmp_path / "scenario.json"
    assert run_cli("generate", "--seed", 1, "--n", 8, "--n-sheep", 8, "--noise-cells", 100,
                   flag, value, "--out", out) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generate_out_of_draws_exit_code(tmp_path, capsys):
    # A one-coefficient shepherd path cannot keep near every sheep.
    out = tmp_path / "scenario.json"
    assert run_cli("generate", "--seed", 1, "--n", 1, "--n-sheep", 12, "--noise-cells", 50,
                   "--out", out) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == "viability: no viable environment in 100 draws for seed 1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (("simulate", "--bogus"), cli.EXIT_USAGE, "unrecognized arguments: --bogus"),
    (("generate", "--help"), cli.EXIT_OK, "--horizon T"),
], ids=["unknown_flag", "help"])
def test_parser_exit_codes(capsys, argv, code, message):
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag, message", [
    ("--horizon", "horizon T must be positive and finite"),
    ("--sigma", "noise_std must be nonnegative and finite"),
    ("--offset", "offset_box must be nonnegative and finite"),
    ("--radius", "radii must be m positive reals, each finite"),
    ("--action-half", "action_half must be positive and finite"),
])
def test_generate_rejects_non_finite_parameters_before_any_draw(tmp_path, capsys, monkeypatch,
                                                                flag, message, value):
    # An infinite noise_std ran for minutes, an infinite offset raised an
    # OverflowError, and an infinite radius or box wrote a scenario that
    # simulate's loader rejects.
    def refuse(*args):
        raise AssertionError("a sheep path was drawn")

    monkeypatch.setattr(shepherd, "_solve_path_qp", refuse)
    out = tmp_path / "scenario.json"
    assert run_cli("generate", "--seed", 1, "--n", 6, "--n-sheep", 30, "--noise-cells", 100,
                   flag, value, "--out", out) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "inf", "horizon T must be positive and finite"),
    ("--step", "inf", "integrator step h must be positive and finite"),
    ("--epsilon", "nan", "controller gain epsilon must be positive and finite"),
    ("--epsilon", "inf", "controller gain epsilon must be positive and finite"),
    ("--delta", "nan", "saturation level delta must be positive and finite"),
    ("--delta", "inf", "saturation level delta must be positive and finite"),
])
def test_simulate_rejects_non_finite_parameters_before_any_step(scenario_file, tmp_path, capsys,
                                                                flag, value, message):
    # Infinite horizons raised an OverflowError, an infinite step ran one
    # step of size T, a non-finite gain or a NaN saturation level was
    # reported as a divergence, and an infinite level wrote Infinity into
    # metrics.json.
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle",
                   "--objective", "blacksheep", flag, value, "--out", out) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, cfg", [
    (("--sweep", "0.25,0.5", "--horizon", 0.5), None),
    (("--sweep", "0.25,0.5"), {"horizon": 0.5}),
    (("--horizon", 0.5), {"sweep": "0.25,0.5"}),
], ids=["flags", "config_horizon", "config_sweep"])
def test_sweep_with_horizon_is_usage_error(scenario_file, tmp_path, capsys, flags, cfg):
    # The sweep lists the horizons; a horizon beside it was ignored.
    extra = ()
    if cfg is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"version": cli.CONFIG_VERSION, **cfg}))
        extra = ("--config", cfg_path)
    out = tmp_path / "sweep"
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 2e-3, *flags, *extra, "--out", out)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--sweep" in err and "--horizon" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, cfg, message", [
    (("--delta", "nan"), {}, "saturation level delta must be positive and finite"),
    (("--delta", -1), {}, "saturation level delta must be positive and finite"),
    (("--stride", 0), {}, "sample_stride must be >= 1"),
    (("--sweep", "0.1,-1"), {}, "horizon T must be positive and finite"),
    (("--sweep", "0.1,nan"), {}, "horizon T must be positive and finite"),
    ((), {"scenario": {"seed": 1, "n": 6}, "delta": -1},
     "saturation level delta must be positive and finite"),
], ids=["delta_nan", "delta_negative", "stride_zero", "sweep_negative", "sweep_nan",
        "inline_scenario"])
def test_simulate_rejects_bad_values_before_any_draw(scenario_file, tmp_path, capsys, monkeypatch,
                                                     flags, cfg, message):
    # These were checked after the sweep's scenarios were regenerated or the
    # inline one drawn, and a bad sweep entry after the runs before it were
    # written.
    def refuse(*args):
        raise AssertionError("a sheep path was drawn")

    monkeypatch.setattr(shepherd, "_solve_path_qp", refuse)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"version": cli.CONFIG_VERSION, "scenario": str(scenario_file),
                                    "sweep": "0.1,0.2", **cfg}))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", cfg_path, "--mode", "feasibility", *flags,
                   "--out", out) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    ((), "a scenario file is required (--scenario or config)"),
    (("--sweep", ","), "empty sweep list"),
], ids=["no_scenario", "empty_sweep"])
def test_simulate_without_a_scenario_or_a_horizon_is_usage_error(scenario_file, tmp_path, capsys,
                                                                 flags, message):
    scenario = ("--scenario", scenario_file) if flags else ()
    out = tmp_path / "o"
    assert run_cli("simulate", *scenario, "--mode", "feasibility", *flags,
                   "--out", out) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_a_zero_horizon_is_usage_error(scenario_file, tmp_path, capsys):
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 2e-3, "--sweep", "0,0.1", "--out", tmp_path / "sweep")
    assert code == cli.EXIT_USAGE
    assert "horizon T must be positive" in capsys.readouterr().err


def test_simulate_writes_expected_csv_schema(scenario_file, tmp_path):
    out = tmp_path / "run"
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 1e-3, "--out", out)
    assert code == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
    n, m = 24, 5
    expected = (
        ["t"] + [f"x_{i}" for i in range(n)] + [f"lambda_{i}" for i in range(m)]
        + ["f_0val"] + [f"f_{i}" for i in range(1, m + 1)]
        + [f"fit_{i}" for i in range(1, m + 1)] + ["cost_accum"]
    )
    assert header == expected
    md = json.loads((out / "metrics.json").read_text())
    assert md["mode"] == "feasibility"
    assert len(md["fit"]) == m


def test_simulate_deterministic_bytes(scenario_file, tmp_path):
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                       "--epsilon", 5, "--step", 1e-3, "--out", out) == 0
    a = (outs[0] / "trajectory.csv").read_bytes()
    b = (outs[1] / "trajectory.csv").read_bytes()
    assert a == b


# Values that repr writes in each of its forms: signed zero, the smallest
# subnormal, both sides of the switch to exponents, and a large negative.
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-05, 0.0001, 1e16, -1.5e300, 0.1]


def _wide_log(rows):
    """A log of rows x 78 values (n = 60, m = 5) with SPECIAL_FLOATS in the
    first and the last row, so in both halves of a split table."""
    rng = np.random.default_rng(3)
    n, m = 60, 5
    log = SimpleNamespace(t=np.linspace(0.0, 0.25, rows), x=rng.standard_normal((rows, n)),
                          lam=rng.random((rows, m)), f0=rng.random(rows),
                          f=rng.standard_normal((rows, m)), fit_accum=rng.random((rows, m)),
                          cost_accum=rng.random(rows))
    log.x[0, :7] = log.x[-1, :7] = SPECIAL_FLOATS
    return log


def _counting_fork(monkeypatch):
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def test_large_csv_has_the_one_process_bytes(tmp_path, monkeypatch):
    log = _wide_log(700)  # 54,600 values
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    calls = _counting_fork(monkeypatch)
    cli.write_trajectory_csv(tmp_path / "two.csv", log)
    assert calls == [1]
    two = (tmp_path / "two.csv").read_bytes()

    lines = two.decode().splitlines()
    table = np.column_stack([log.t, log.x, log.lam, log.f0, log.f, log.fit_accum,
                             log.cost_accum])
    assert lines[1:] == [",".join(repr(v) for v in row) for row in table.tolist()]
    assert lines[1].split(",")[1:8] == lines[-1].split(",")[1:8] == list(map(repr, SPECIAL_FLOATS))

    monkeypatch.setattr(cli, "FORK_MIN_VALUES", table.size + 1)
    cli.write_trajectory_csv(tmp_path / "one.csv", log)
    assert calls == [1]
    assert (tmp_path / "one.csv").read_bytes() == two


def test_failed_fork_leaves_every_row_to_this_process(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    log = _wide_log(700)
    cli.write_trajectory_csv(tmp_path / "a.csv", log)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    cli.write_trajectory_csv(tmp_path / "b.csv", log)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_small_csv_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked below FORK_MIN_VALUES")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert 641 * 78 < cli.FORK_MIN_VALUES <= 642 * 78
    cli.write_trajectory_csv(tmp_path / "t.csv", _wide_log(641))
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 642


# Where repr's shortest round-trip form is most likely to break a parse: both
# zeros, subnormals, the edges of the normal range, and the neighbours of
# repr's switches to an exponent (at 1e16, and below 1e-4 down through 1e-5).
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, *(
                   float(np.nextafter(v, toward)) for v in (1e16, 1e-4, 1e-5)
                   for toward in (0.0, v, np.inf))]
CSV_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), n=st.integers(1, 3), m=st.integers(0, 2),
       dual=st.booleans())
def test_trajectory_csv_reads_back_every_value_bit_for_bit(tmp_path_factory, data, rows, n, m,
                                                           dual):
    def draw(*shape):
        values = data.draw(st.lists(CSV_FLOATS, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))
        return np.array(values, dtype=float).reshape(shape)

    t = np.array(sorted(data.draw(st.lists(CSV_FLOATS, min_size=rows, max_size=rows,
                                           unique=True))))
    log = SimpleNamespace(t=t, x=draw(rows, n), lam=draw(rows, m if dual else 0),
                          f0=draw(rows), f=draw(rows, m), fit_accum=draw(rows, m),
                          cost_accum=draw(rows))
    path = tmp_path_factory.mktemp("csv") / "trajectory.csv"
    cli.write_trajectory_csv(path, log)
    header, table = cli._read_csv(path)
    written = np.column_stack([log.t, log.x, log.lam, log.f0, log.f, log.fit_accum,
                               log.cost_accum])
    assert len(header) == written.shape[1]
    assert table.shape == written.shape and table.tobytes() == written.tobytes()


class _Boom(Exception):
    pass


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_failed_half_raises_and_leaves_no_child(tmp_path, monkeypatch, failing):
    parent, rows = os.getpid(), cli._csv_rows

    def csv_rows(table):
        if (os.getpid() == parent) == (failing == "parent"):
            raise _Boom(failing)
        return rows(table)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_csv_rows", csv_rows)
    calls = _counting_fork(monkeypatch)
    expected = (RuntimeError, "exited with status 1") if failing == "child" else (_Boom, "parent")
    with pytest.raises(expected[0], match=expected[1]):
        cli.write_trajectory_csv(tmp_path / "t.csv", _wide_log(2501))
    assert calls == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_writer_emits_no_warning(tmp_path, monkeypatch):
    log = _wide_log(700)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    fork = os.fork

    def fork_warning_as_312():  # Python 3.12+ in a process with other OS threads
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli.write_trajectory_csv(tmp_path / "a.csv", log)
        monkeypatch.setattr(os, "fork", fork_warning_as_312)
        cli.write_trajectory_csv(tmp_path / "b.csv", log)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _edge_csv(path, rows=2501):
    """The trajectory.csv of ``_wide_log(rows)`` with EDGE_FLOATS in its
    first and its last row, so in both halves of a split parse."""
    log = _wide_log(rows)
    log.x[0, 7:24] = log.x[-1, 7:24] = EDGE_FLOATS
    cli.write_trajectory_csv(path, log)
    return path


def _read_alone(monkeypatch, path, keep=lambda name: True):
    """``_read_csv`` with ``FORK_MIN_VALUES`` above the table's size."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "FORK_MIN_VALUES", path.stat().st_size)
        return cli._read_csv(path, keep)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("columns", ["all", "report"])
def test_large_csv_parses_to_the_one_process_array(tmp_path, monkeypatch, columns):
    path = _edge_csv(tmp_path / "t.csv")
    # A saturated run whose scenario file exists: report reads t, the
    # actions, the multipliers, f_1..f_m and the fits.
    keep = ((lambda name: True) if columns == "all" else
            cli._report_columns({"delta": 0.1, "scenario_file": str(path)}, None))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    calls = _counting_fork(monkeypatch)
    header, two = cli._read_csv(path, keep)
    assert calls == [1]
    _assert_no_child()
    assert len(header) == (78 if columns == "all" else 76) and two.shape == (2501, len(header))
    edges = [header.index(f"x_{i}") for i in range(7, 24)]
    assert two[0, edges].tobytes() == two[-1, edges].tobytes() == np.array(EDGE_FLOATS).tobytes()
    one_header, one = _read_alone(monkeypatch, path, keep)
    assert calls == [1]
    assert one_header == header and one.shape == two.shape and one.tobytes() == two.tobytes()


def test_failed_fork_leaves_every_row_to_this_parse(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    path = _edge_csv(tmp_path / "t.csv")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert cli._read_csv(path)[1].tobytes() == _read_alone(monkeypatch, path)[1].tobytes()
    _assert_no_child()


def test_small_csv_is_parsed_in_one_loadtxt_call(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked below FORK_MIN_VALUES")

    path = _edge_csv(tmp_path / "t.csv", 641)
    calls, loadtxt = [], np.loadtxt

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(np, "loadtxt", counted)
    assert 641 * 78 < cli.FORK_MIN_VALUES
    assert cli._read_csv(path)[1].shape == (641, 78)
    assert calls == [((path,), {"delimiter": ",", "ndmin": 2, "usecols": list(range(78)),
                                "skiprows": 1})]
    _assert_no_child()


@pytest.mark.parametrize("where", ["first", "last"])
def test_malformed_row_gives_the_one_process_error(tmp_path, monkeypatch, capsys, where):
    # A bad value in the child's half is parsed again whole, so loadtxt's
    # "at row N" counts from the file's first row, not the child's; one in
    # this process's half raises from its own parse, which has that count.
    run = tmp_path / "run"
    run.mkdir()
    path = _edge_csv(run / "trajectory.csv")
    lines = path.read_text().splitlines(keepends=True)
    row = 1 if where == "first" else len(lines) - 1
    lines[row] = "0.1x" + lines[row][lines[row].index(","):]  # t, which report reads
    path.write_text("".join(lines))
    (run / "metrics.json").write_text("{}")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError) as alone:
        _read_alone(monkeypatch, path)
    assert f"could not convert string '0.1x' to float64 at row {row - 1}," in str(alone.value)
    calls = _counting_fork(monkeypatch)
    with pytest.raises(ValueError) as split:
        cli._read_csv(path)
    assert calls == [1] and str(split.value) == str(alone.value)
    _assert_no_child()

    assert run_cli("report", "--results", run) == cli.EXIT_USAGE
    forked = capsys.readouterr()
    monkeypatch.setattr(cli, "FORK_MIN_VALUES", path.stat().st_size)
    assert run_cli("report", "--results", run) == cli.EXIT_USAGE
    assert capsys.readouterr() == forked
    assert forked.err == f"usage error: {alone.value}\n" and calls == [1, 1]
    _assert_no_child()


@pytest.mark.parametrize("line", ["", "# a comment"], ids=["blank", "comment"])
def test_a_line_of_no_data_before_the_split_is_parsed_whole(tmp_path, monkeypatch, line):
    # Lines of no data are skipped by the parse but counted by the child's
    # skiprows: the halves would overlap by one row.
    path = _edge_csv(tmp_path / "t.csv")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + [line + "\n"] + lines[5:]))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    calls = _counting_fork(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two = cli._read_csv(path)[1]
    assert calls == [1] and two.shape == (2501, 78)
    assert two.tobytes() == _read_alone(monkeypatch, path)[1].tobytes()
    _assert_no_child()


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_failed_half_of_a_parse(tmp_path, monkeypatch, failing):
    # A child that fails leaves the whole parse to this process; a failure
    # of this process's half propagates.
    path = _edge_csv(tmp_path / "t.csv")
    alone = _read_alone(monkeypatch, path)[1]
    parent, loadtxt = os.getpid(), np.loadtxt

    def half_fails(*args, **kwargs):
        if ((failing == "child" and os.getpid() != parent)
                or (failing == "parent" and "max_rows" in kwargs)):
            raise _Boom(failing)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(np, "loadtxt", half_fails)
    calls = _counting_fork(monkeypatch)
    if failing == "child":
        assert cli._read_csv(path)[1].tobytes() == alone.tobytes()
    else:
        with pytest.raises(_Boom, match="parent"):
            cli._read_csv(path)
    assert calls == [1]
    _assert_no_child()


def test_reader_emits_no_warning(tmp_path, monkeypatch):
    path = _edge_csv(tmp_path / "t.csv")
    alone = _read_alone(monkeypatch, path)[1]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    fork = os.fork

    def fork_warning_as_312():  # Python 3.12+ in a process with other OS threads
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli._read_csv(path)[1].tobytes() == alone.tobytes()
        monkeypatch.setattr(os, "fork", fork_warning_as_312)
        assert cli._read_csv(path)[1].tobytes() == alone.tobytes()
    _assert_no_child()


def test_report_of_a_large_run_is_the_one_process_report(scenario_file, offline_file, tmp_path,
                                                         monkeypatch, capsys):
    run = tmp_path / "res" / "saddle"
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle", "--objective",
                   "blacksheep", "--epsilon", 50, "--step", 4e-4, "--stride", 1,
                   "--offline", offline_file, "--out", run) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    calls = _counting_fork(monkeypatch)
    assert run_cli("report", "--results", tmp_path / "res", "--out", tmp_path / "two") == 0
    assert calls == [1]
    two = capsys.readouterr()
    monkeypatch.setattr(cli, "FORK_MIN_VALUES", (run / "trajectory.csv").stat().st_size)
    assert run_cli("report", "--results", tmp_path / "res", "--out", tmp_path / "one") == 0
    assert calls == [1] and capsys.readouterr() == two
    assert len((run / "trajectory.csv").read_text().splitlines()) == 2502
    svgs = sorted(p.name for p in (tmp_path / "one" / "saddle").iterdir())
    assert svgs == ["fit_vs_t.svg", "lambda_vs_t.svg", "path_overlay.svg", "regret_vs_t.svg"]
    for name in svgs:
        assert ((tmp_path / "two" / "saddle" / name).read_bytes()
                == (tmp_path / "one" / "saddle" / name).read_bytes())
    _assert_no_child()


def test_simulate_missing_scenario_is_usage_error(tmp_path):
    code = run_cli("simulate", "--scenario", tmp_path / "nope.json", "--out", tmp_path / "o")
    assert code == cli.EXIT_USAGE


def test_simulate_requires_out(scenario_file):
    assert run_cli("simulate", "--scenario", scenario_file) == cli.EXIT_USAGE


def test_simulate_divergence_exit_code(scenario_file, tmp_path):
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 1e9, "--step", 0.5, "--horizon", 40.0,
                   "--out", tmp_path / "boom")
    assert code == cli.EXIT_DIVERGENCE


def test_divergence_prints_one_line_and_no_warning(scenario_file, tmp_path, capsys):
    # The multipliers leave the limit at node 2 of an 81-node block; the
    # block runs on to its end through overflows, none of which warns.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                       "--epsilon", 1e300, "--step", 0.5, "--horizon", 40.0,
                       "--out", tmp_path / "boom")
    assert code == cli.EXIT_DIVERGENCE
    assert capsys.readouterr().err == (
        "divergence: state magnitude exceeded 1e+12 at t=1; "
        "reduce the step h or the epsilon*h product\n")
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "boom").exists()


def test_sweep_creates_per_horizon_dirs(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 2e-3, "--sweep", "0.25,0.5", "--out", out)
    assert code == 0
    assert (out / "T_0.25" / "trajectory.csv").exists()
    assert (out / "T_0.5" / "trajectory.csv").exists()


def test_sweep_matches_single_runs(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    args = ("--mode", "feasibility", "--epsilon", 5, "--step", 2e-3)
    assert run_cli("simulate", "--scenario", scenario_file, *args,
                   "--sweep", "0.25,0.5", "--out", out) == 0
    for T in ("0.25", "0.5"):
        scn = tmp_path / f"scenario_{T}.json"
        assert run_cli("generate", "--seed", 1, "--n", 12, "--n-sheep", 12,
                       "--noise-cells", 200, "--horizon", T, "--out", scn) == 0
        single = tmp_path / f"single_{T}"
        assert run_cli("simulate", "--scenario", scn, *args, "--out", single) == 0
        assert ((out / f"T_{T}" / "trajectory.csv").read_bytes()
                == (single / "trajectory.csv").read_bytes())


def test_sweep_writes_the_horizons_before_a_diverging_one(scenario_file, tmp_path, capsys):
    # The horizons run as rows of one call; the second diverges.  As in a loop
    # over the horizons, the first is written, the second is not, exit 3.
    out = tmp_path / "sweep"
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 1e9, "--step", 0.5, "--sweep", "0.25,40", "--out", out)
    assert code == cli.EXIT_DIVERGENCE
    assert "state magnitude exceeded" in capsys.readouterr().err
    assert (out / "T_0.25" / "trajectory.csv").exists() and (out / "T_0.25" / "metrics.json").exists()
    assert not (out / "T_40").exists()


@pytest.mark.parametrize("sweep, code, written", [
    ("40,0.25", cli.EXIT_DIVERGENCE, []),
    ("0.25,0.5", cli.EXIT_INFEASIBLE, ["T_0.25"]),
], ids=["first_row_diverges", "last_fails_to_regenerate"])
def test_sweep_writes_the_runs_before_its_first_failure(scenario_file, tmp_path, capsys,
                                                        monkeypatch, sweep, code, written):
    # The rows after a failed one are not written, although they ran; a horizon
    # whose scenario finds no viable draw fails in its place, after those before it.
    regenerate = shepherd.regenerate

    def no_viable_draw_at_half(scenario, T):
        if T == 0.5:
            raise shepherd.GeneratorError("no viable environment in 100 draws for seed 1")
        return regenerate(scenario, T=T)

    monkeypatch.setattr(shepherd, "regenerate", no_viable_draw_at_half)
    out = tmp_path / "sweep"
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 1e9, "--step", 0.5, "--sweep", sweep, "--out", out) == code
    err = capsys.readouterr().err
    assert ("state magnitude exceeded" if code == cli.EXIT_DIVERGENCE
            else "no viable environment") in err
    assert sorted(p.name for p in out.glob("*")) == written
    for name in written:
        assert {p.name for p in (out / name).iterdir()} == {"trajectory.csv", "metrics.json"}


@pytest.mark.parametrize("flags, rows, code", [
    (("--epsilon", 5, "--step", 2e-3, "--horizon", 0.5), 1, cli.EXIT_OK),
    (("--epsilon", 5, "--step", 2e-3, "--sweep", "0.25,0.5"), 2, cli.EXIT_OK),
    (("--epsilon", 1e9, "--step", 0.5, "--sweep", "0.25,40"), 2, cli.EXIT_DIVERGENCE),
], ids=["single", "sweep", "diverging_sweep"])
def test_each_simulate_command_makes_one_simulate_rows_call(scenario_file, tmp_path,
                                                           monkeypatch, flags, rows, code):
    calls = []

    def counted(env, config, T, *args, **kwargs):
        calls.append(len(T))
        return simulate_rows(env, config, T, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate_rows", counted)
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility", *flags,
                   "--out", tmp_path / "run") == code
    assert calls == [rows]


def test_sweep_with_offline_is_usage_error(scenario_file, tmp_path, capsys):
    # A valid offline file: the pair is refused, not the file.
    sol = OfflineSolution(xstar=np.zeros(24), offline_cost=0.0, xdagger=np.zeros(24),
                          viability_residual=-1.0, K=0.0, grid=TimeGrid(T=1.0, num_steps=1),
                          cost_cumulative=np.zeros(2))
    off = tmp_path / "offline.json"
    off.write_text(json.dumps(cli.offline_to_dict(sol, "black_sheep")))
    out = tmp_path / "sweep"
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle",
                   "--objective", "blacksheep", "--epsilon", 5, "--step", 2e-3,
                   "--sweep", "0.25,0.5", "--offline", off, "--out", out)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--sweep" in err and "--offline" in err
    assert not out.exists()


@pytest.mark.parametrize("key, index", [
    ("noise", (0, 0, 0)), ("radii", (1,)), ("sheep_coeffs", (0, 1, 2)),
    ("waypoints", (0, 1)), ("offsets", (1, 0, 0)), ("xdagger", (3,)),
    ("T", ()), ("noise_std", ()), ("action_half", ()),
])
def test_simulate_rejects_nonfinite_scenario(scenario_file, tmp_path, capsys, key, index):
    data = json.loads(Path(scenario_file).read_text())
    if index:
        cell = data[key]
        for i in index[:-1]:
            cell = cell[i]
        cell[index[-1]] = float("nan")
    else:
        data[key] = float("inf")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = run_cli("simulate", "--scenario", bad, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 1e-3, "--out", tmp_path / "o")
    assert code == cli.EXIT_USAGE
    assert f"scenario field '{key}' has non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def offline_file(scenario_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("off") / "offline.json"
    assert run_cli("offline", "--scenario", scenario_file, "--objective", "blacksheep",
                   "--max-iter", 50, "--out", path) == 0
    return path


def test_offline_serialization_round_trip(offline_file):
    text = offline_file.read_text()
    sol = cli.offline_from_dict(json.loads(text))
    again = json.dumps(cli.offline_to_dict(sol, "black_sheep"), sort_keys=True, indent=1) + "\n"
    assert again == text
    assert_same_fields(sol, cli.offline_from_dict(json.loads(again)))
    # Values a float's repr must keep: -0.0, the smallest subnormal, the largest float.
    odd = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1])
    sol = OfflineSolution(xstar=odd, offline_cost=-0.0, xdagger=odd[::-1].copy(),
                          viability_residual=-5e-324, K=0.1, grid=TimeGrid(T=0.3, num_steps=3),
                          cost_cumulative=odd, diagnostics={"converged": False, "iterations": 7.0})
    assert_same_fields(sol, cli.offline_from_dict(json.loads(json.dumps(
        cli.offline_to_dict(sol, "min_acceleration")))))


def _nudged(xs):
    return [float(np.nextafter(xs[0], np.inf)), *xs[1:]]  # the first entry one ulp up


@pytest.mark.parametrize("edit, flags, message", [
    ({}, (), None),
    ({"version": 99}, (), "unsupported offline solution version 99"),
    ({}, ("--objective", "minaccel"),
     "the offline solution is for objective 'black_sheep', not 'min_acceleration'"),
    ({"xdagger": _nudged}, (), "the offline solution's xdagger is not the scenario's"),
    ({}, ("--horizon", 0.2), "offline horizon 1.0 does not match trajectory horizon 0.2"),
], ids=["same_problem", "version", "objective", "xdagger", "horizon"])
def test_simulate_refuses_another_problems_offline_file_before_any_step(
        scenario_file, offline_file, tmp_path, capsys, edit, flags, message):
    # Regret is measured against the file's optimum; another problem's would
    # give a number that means nothing (500278 against black sheep's 0.005
    # for a min-acceleration run), so such a file writes nothing.
    data = json.loads(offline_file.read_text())
    data.update({k: v(data[k]) if callable(v) else v for k, v in edit.items()})
    off, out = tmp_path / "offline.json", tmp_path / "o"
    off.write_text(json.dumps(data))
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle", "--objective",
                   "blacksheep", "--epsilon", 50, "--step", 1e-3, "--offline", off, *flags,
                   "--out", out)
    if message is None:
        assert code == 0 and (out / "metrics.json").exists()
        return
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("diagnostics", [1, 2], "offline solution key 'diagnostics' has the wrong type: [1, 2]"),
    ("offline_cost", float("nan"), "offline solution field 'offline_cost' has non-finite values"),
    ("cost_cumulative", [0.0, float("inf")],
     "offline solution field 'cost_cumulative' has non-finite values"),
    ("grid", {"T": float("inf"), "num_steps": 3},
     "offline solution grid field 'T' has non-finite values"),
    ("xdagger", [{}], "offline solution field 'xdagger' is not an array of numbers"),
    ("xstar", [[0.0], [0.0, 1.0]], "offline solution field 'xstar' is not an array of numbers"),
    # A one-entry xstar ran the whole simulation, then failed in metrics.energy
    # and left trajectory.csv without metrics.json.
    ("xstar", [0.0], "the offline solution's xstar has shape (1,), not the scenario's action "
                     "dimension (24,)"),
    ("cost_cumulative", [0.0, 0.0],
     "the offline solution's cost_cumulative has shape (2,), not one entry per grid node (201,)"),
], ids=["diagnostics_array", "nan_cost", "inf_cumulative", "inf_horizon", "object_entry",
        "ragged", "short_xstar", "short_cost_cumulative"])
def test_malformed_offline_values_are_usage_errors(scenario_file, offline_file, tmp_path, capsys,
                                                   key, value, message):
    # A NaN cost would otherwise reach metrics.json as the token NaN, not JSON.
    off, out = tmp_path / "offline.json", tmp_path / "o"
    off.write_text(json.dumps({**json.loads(offline_file.read_text()), key: value}))
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle", "--objective",
                   "blacksheep", "--offline", off, "--out", out)
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_offline_and_regret_flow(scenario_file, tmp_path):
    off = tmp_path / "offline.json"
    code = run_cli("offline", "--scenario", scenario_file, "--objective", "blacksheep",
                   "--max-iter", 600, "--out", off)
    assert code == 0
    data = json.loads(off.read_text())
    assert data["K"] >= 0.0
    run = tmp_path / "bs"
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle",
                   "--objective", "blacksheep", "--epsilon", 50, "--step", 1e-3,
                   "--offline", off, "--out", run)
    assert code == 0
    md = json.loads((run / "metrics.json").read_text())
    assert "regret" in md
    assert md["regret"]["offline_cost"] == pytest.approx(data["offline_cost"])


def test_evaluator_error_exit_code(scenario_file, tmp_path, monkeypatch, capsys):
    # A row's error comes back in its place in the list of runs.
    def failed_row(*args, **kwargs):
        return [EvaluatorError("non-finite evaluator output at t=0.25, x=array([nan])")]

    monkeypatch.setattr(cli, "simulate_rows", failed_row)
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 1e-3, "--out", tmp_path / "run")
    assert code == cli.EXIT_DIVERGENCE == 3
    assert "non-finite evaluator output at t=0.25" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (MembershipError("state [5.1] lies outside the box"), 3),
    (DimensionError("expected vector of dim 24, got shape (23,)"), 2),
])
def test_convex_set_error_exit_codes(scenario_file, tmp_path, monkeypatch, capsys, error, code):
    # A state that left its set is a numeric failure, not a usage error, although
    # both convex-set errors are ValueErrors.
    def raiser(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "simulate_rows", raiser)
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 1e-3, "--out", tmp_path / "run") == code
    assert str(error) in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    InfeasibleEnvironmentError("viability residual 1.000e-02 exceeds 1e-06"),
    shepherd.GeneratorError("no viable environment in 50 draws for seed 1"),
], ids=["infeasible", "generator"])
def test_viability_error_exit_codes(scenario_file, tmp_path, monkeypatch, capsys, error):
    def raiser(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "simulate_rows", raiser)
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 1e-3, "--out", tmp_path / "run")
    assert code == cli.EXIT_INFEASIBLE == 4
    assert capsys.readouterr().err == f"viability: {error}\n"
    assert not (tmp_path / "run").exists()


def test_inner_solve_error_exit_code(scenario_file, tmp_path, monkeypatch, capsys):
    def raiser(*args, **kwargs):
        raise InnerSolveError("inner minimization stalled at node t=0.5 (gradient map 1e-2)")

    monkeypatch.setattr(cli, "solve_offline", raiser)
    off = tmp_path / "offline.json"
    code = run_cli("offline", "--scenario", scenario_file, "--objective", "blacksheep",
                   "--out", off)
    assert code == cli.EXIT_INFEASIBLE == 4
    assert "stalled at node t=0.5" in capsys.readouterr().err
    assert not off.exists()


def test_offline_requires_objective(scenario_file, tmp_path):
    code = run_cli("offline", "--scenario", scenario_file, "--objective", "none",
                   "--out", tmp_path / "o.json")
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("budget", [0, -5])
def test_offline_budget_below_one_is_usage_error(scenario_file, tmp_path, capsys, monkeypatch,
                                                 budget):
    # Such a budget wrote x-dagger as x* and exited 0.
    def refuse(*args, **kwargs):
        raise AssertionError("the offline problem was solved")

    monkeypatch.setattr(cli, "solve_offline", refuse)
    off = tmp_path / "offline.json"
    assert run_cli("offline", "--scenario", scenario_file, "--objective", "blacksheep",
                   "--max-iter", budget, "--out", off) == cli.EXIT_USAGE
    assert "the iteration budget --max-iter must be at least 1" in capsys.readouterr().err
    assert not off.exists()


def test_offline_without_a_budget_solves_with_the_library_default(scenario_file, tmp_path,
                                                                  monkeypatch):
    # The command's default was 4000 and solve_offline's 6000, so the README's
    # library example and `saddlesim offline` solved with different budgets.
    calls = []

    def stop(*args, **kwargs):
        calls.append(kwargs)
        raise InnerSolveError("stopped before the solve")

    monkeypatch.setattr(cli, "solve_offline", stop)
    assert run_cli("offline", "--scenario", scenario_file, "--objective", "blacksheep",
                   "--out", tmp_path / "offline.json") == cli.EXIT_INFEASIBLE
    assert len(calls) == 1 and "max_iter" not in calls[0]
    assert inspect.signature(solve_offline).parameters["max_iter"].default == 4000


def test_report_renders_figures(scenario_file, tmp_path):
    out = tmp_path / "run"
    off = tmp_path / "offline.json"
    assert run_cli("offline", "--scenario", scenario_file, "--objective", "blacksheep",
                   "--max-iter", 400, "--out", off) == 0
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle",
                   "--objective", "blacksheep", "--epsilon", 50, "--step", 1e-3,
                   "--offline", off, "--out", out) == 0
    assert run_cli("report", "--results", tmp_path) == 0
    for name in ("fit_vs_t.svg", "lambda_vs_t.svg", "path_overlay.svg", "regret_vs_t.svg"):
        assert (out / name).exists(), name
    svg = (out / "fit_vs_t.svg").read_text()
    assert svg.startswith("<svg") and 'viewBox="0 0 960 600"' in svg


@pytest.mark.parametrize("max_iter, verdict", [(600, "PASS"), (1, "FAIL")])
def test_report_offline_certificate(scenario_file, tmp_path, capsys, max_iter, verdict):
    # 600 iterations certify the black-sheep optimum; one leaves x-dagger,
    # which is feasible but not stationary.
    off = tmp_path / "offline.json"
    assert run_cli("offline", "--scenario", scenario_file, "--objective", "blacksheep",
                   "--max-iter", max_iter, "--out", off) == 0
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle",
                   "--objective", "blacksheep", "--epsilon", 50, "--step", 1e-3,
                   "--offline", off, "--out", tmp_path / "bs") == 0
    capsys.readouterr()
    assert run_cli("report", "--results", tmp_path) == 0
    lines = [ln.strip() for ln in capsys.readouterr().out.splitlines()]
    diag = json.loads(off.read_text())["diagnostics"]
    assert (f"offline certificate: {verdict} (violation {diag['violation']:.4g}, "
            f"stationarity {diag['kkt_stationarity']:.4g})") in lines
    # The certificate is the only check that differs; a FAIL keeps exit code 0.
    assert lines[-1] == ("report: all checks PASS" if verdict == "PASS" else "report: some checks FAILED")


def test_report_without_the_offline_file_fails_the_certificate(scenario_file, tmp_path, capsys):
    off = tmp_path / "offline.json"
    assert run_cli("offline", "--scenario", scenario_file, "--objective", "blacksheep",
                   "--max-iter", 50, "--out", off) == 0
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle",
                   "--objective", "blacksheep", "--epsilon", 50, "--step", 1e-3,
                   "--offline", off, "--out", tmp_path / "bs") == 0
    off.unlink()
    capsys.readouterr()
    assert run_cli("report", "--results", tmp_path) == 0
    text = capsys.readouterr().out
    assert "offline certificate: FAIL (offline file unavailable)" in text
    assert "missing: regret_vs_t (offline solution unavailable)" in text
    assert text.rstrip().endswith("report: some checks FAILED")


def test_report_empty_dir(tmp_path):
    assert run_cli("report", "--results", tmp_path) == cli.EXIT_USAGE


def test_report_sweep_trend_table(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 2e-3, "--sweep", "0.25,0.5", "--out", out) == 0
    assert run_cli("report", "--results", out) == 0
    text = capsys.readouterr().out
    assert "horizon sweep trend" in text
    assert "norm/sqrt(T)" in text
    # Each horizon ran a regenerated scenario that no file holds: no overlay is
    # drawn against the T=1 file the sweep started from.
    for T in ("0.25", "0.5"):
        assert json.loads((out / f"T_{T}" / "metrics.json").read_text())["scenario_file"] is None
        assert not (out / f"T_{T}" / "path_overlay.svg").exists()
    assert text.count("missing: path_overlay (scenario file unavailable)") == 2


def test_report_parses_only_the_columns_it_reads(scenario_file, tmp_path):
    # A saturated sweep run: no scenario file for the path overlay and no
    # offline solution, so neither the actions nor the cost are parsed.
    out = tmp_path / "sweep"
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 2e-3, "--delta", 0.1, "--sweep", "0.25",
                   "--out", out) == 0
    run = out / "T_0.25"
    md = json.loads((run / "metrics.json").read_text())
    header, data = cli._read_csv(run / "trajectory.csv", cli._report_columns(md, None))
    full_header, full = cli._read_csv(run / "trajectory.csv")
    m = len(md["fit_bounds"])
    assert header == (["t"] + [f"lambda_{i}" for i in range(m)] + [f"f_{i}" for i in range(1, m + 1)]
                      + [f"fit_{i}" for i in range(1, m + 1)])
    assert np.array_equal(data, full[:, [full_header.index(name) for name in header]])


def test_only_path_fits_load_scipy_and_only_its_lapack_module(scenario_file, tmp_path):
    # offline, simulate of a scenario file and report load no scipy.  The
    # sheep-path fits of generate and simulate --sweep load scipy's LAPACK
    # extension module alone, and a later import of scipy.linalg re-exports
    # that one module object.
    code = f"""
import sys
import saddlesim
from saddlesim import cli
tmp, scn = {str(tmp_path)!r}, {str(scenario_file)!r}
assert cli.main(["offline", "--scenario", scn, "--objective", "blacksheep",
                 "--max-iter", "50", "--out", tmp + "/offline.json"]) == 0
assert cli.main(["simulate", "--scenario", scn, "--mode", "saddle", "--objective",
                 "blacksheep", "--epsilon", "50", "--step", "1e-3", "--offline",
                 tmp + "/offline.json", "--out", tmp + "/run"]) == 0
assert cli.main(["report", "--results", tmp]) == 0
assert not [m for m in sys.modules if m.startswith("scipy")], sorted(sys.modules)
assert cli.main(["generate", "--seed", "2", "--n", "6", "--n-sheep", "12",
                 "--noise-cells", "50", "--out", tmp + "/gen.json"]) == 0
assert cli.main(["simulate", "--scenario", scn, "--mode", "feasibility", "--epsilon", "5",
                 "--step", "2e-3", "--sweep", "0.1", "--out", tmp + "/sweep"]) == 0
assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg
assert scipy.linalg.lapack._flapack is flapack
assert scipy.linalg.lapack.dsytrf is flapack.dsytrf
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "path_overlay.svg").exists()
    assert (tmp_path / "sweep" / "T_0.1" / "trajectory.csv").exists()


def test_config_file_flow(scenario_file, tmp_path):
    cfg = {
        "version": 1,
        "scenario": str(scenario_file),
        "mode": "feasibility",
        "epsilon": 5.0,
        "step": 1e-3,
        "out": str(tmp_path / "cfg_run"),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", cfg_path) == 0
    assert (tmp_path / "cfg_run" / "trajectory.csv").exists()


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"version": 1, "mystery": True}))
    assert run_cli("simulate", "--config", cfg_path) == cli.EXIT_USAGE
    cfg_path.write_text(json.dumps({"version": 99}))
    assert run_cli("simulate", "--config", cfg_path) == cli.EXIT_USAGE


# What a run shows of each simulate setting, one config value of it and what
# the run shows of that, and one flag value and what the run shows of that.
# Paths are formatted with the run's directory (root), the scenario file and
# the offline file; the runs are keyed by their directory under root.
def _shown(field):
    return lambda runs: runs["run"][field]


_SETTING_CASES = {
    "scenario": (_shown("scenario_file"), ("{root}/copy.json",) * 2, ("{scenario}",) * 2),
    "mode": (_shown("mode"), ("gradient",) * 2, ("feasibility",) * 2),
    "epsilon": (_shown("epsilon"), (4, 4.0), (6, 6.0)),
    "step": (_shown("h"), (2e-3, 2e-3), (5e-4, 5e-4)),
    "horizon": (_shown("T"), (0.5, 0.5), (0.25, 0.25)),
    "delta": (_shown("delta"), (0.2, 0.2), (0.1, 0.1)),
    "objective": (_shown("objective"), ("minaccel", "min_acceleration"), ("none", "none")),
    "out": (sorted, ("{root}/a", ["a"]), ("{root}/b", ["b"])),
    "sweep": (sorted, ("0.1,0.2", ["run/T_0.1", "run/T_0.2"]), ("0.3", ["run/T_0.3"])),
    "stride": (_shown("sample_stride"), (5, 5), (20, 20)),
    "offline": (lambda runs: runs["run"]["regret"]["offline_file"], ("{offline}",) * 2,
                ("{root}/offline.json",) * 2),
}


@pytest.mark.parametrize("key", list(cli.SIMULATE_SETTINGS))
def test_each_simulate_setting_takes_its_flag_over_its_config_value(scenario_file, offline_file,
                                                                    tmp_path, key):
    assert set(_SETTING_CASES) == set(cli.SIMULATE_SETTINGS)
    shown, (cfg_value, cfg_shown), (flag_value, flag_shown) = _SETTING_CASES[key]
    base = {"version": cli.CONFIG_VERSION, "scenario": "{scenario}", "mode": "saddle",
            "objective": "blacksheep", "epsilon": 50, "step": 1e-3, "out": "{root}/run"}
    for name, flags, expected in (("config", (), cfg_shown),
                                  ("flag", (f"--{key}", flag_value), flag_shown)):
        root = tmp_path / name
        root.mkdir()
        shutil.copy(scenario_file, root / "copy.json")
        shutil.copy(offline_file, root / "offline.json")

        def fill(v):
            return v.format(root=root, scenario=scenario_file, offline=offline_file) \
                if isinstance(v, str) else v

        cfg = {k: fill(v) for k, v in {**base, key: cfg_value}.items()}
        (root / "cfg.json").write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", root / "cfg.json", *map(fill, flags)) == 0
        runs = {p.parent.relative_to(root).as_posix(): json.loads(p.read_text())
                for p in root.rglob("metrics.json")}
        assert shown(runs) == fill(expected)


def test_a_config_number_is_written_as_its_flag_is(scenario_file, tmp_path):
    # A config's "delta": 1 was written to metrics.json as 1, the flag's as 1.0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": cli.CONFIG_VERSION, "delta": 1}))
    run = ("simulate", "--scenario", scenario_file, "--mode", "feasibility", "--epsilon", 5,
           "--step", 1e-3)
    assert run_cli(*run, "--config", cfg, "--out", tmp_path / "config") == 0
    assert run_cli(*run, "--delta", 1, "--out", tmp_path / "flag") == 0
    assert ((tmp_path / "config" / "metrics.json").read_bytes()
            == (tmp_path / "flag" / "metrics.json").read_bytes())


@pytest.mark.parametrize("command", ["simulate", "offline"])
def test_scenario_missing_keys_is_usage_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "kind": "shepherd"}))
    flags = ["--mode", "feasibility"] if command == "simulate" else ["--objective", "blacksheep"]
    code = run_cli(command, "--scenario", bad, *flags, "--out", tmp_path / "o")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "scenario lacks keys" in err and "'m'" in err and "'xdagger'" in err
    assert not (tmp_path / "o").exists()


def test_scenario_value_types_are_usage_errors(scenario_file, tmp_path, capsys):
    data = json.loads(Path(scenario_file).read_text())
    data["m"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = run_cli("simulate", "--scenario", bad, "--mode", "feasibility", "--out", tmp_path / "o")
    assert code == cli.EXIT_USAGE
    assert "scenario key 'm' has the wrong type: null" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, message", [
    ("m", 0, "sheep count m must be at least 1"),
    ("T", 0, "horizon T must be positive"),
    ("noise_std", -0.1, "noise_std must be nonnegative"),
    ("radii", 0.0, "radii must be m positive reals"),
    ("action_half", 0.0, "action_half must be positive"),
    ("noise_cells", 0, "noise_cells must be at least 1"),
    ("offset_box", -0.1, "offset_box must be nonnegative"),
    # No noise at all died with an IndexError traceback at the first block, a
    # sheep short or a waypoint short in numpy's reshape, naming no field.
    ("noise", [], "scenario field 'noise' has 0 values, not the 2000 of its shape (5, 2, 200)"),
    ("sheep_coeffs", lambda v: v[:-1],
     "scenario field 'sheep_coeffs' has 96 values, not the 120 of its shape (5, 2, 12)"),
    ("waypoints", lambda v: v[:-1],
     "scenario field 'waypoints' has 4 values, not the 6 of its shape (3, 2)"),
    # An integer beyond the floats was an OverflowError traceback.
    pytest.param("T", 10 ** 400, "scenario field 'T' holds a number too large for a float",
                 id="T-beyond_the_floats"),
    ("xdagger", lambda v: v[:3] + [-10 ** 400] + v[4:],
     "scenario field 'xdagger' holds a number too large for a float"),
])
def test_scenario_value_ranges_are_usage_errors(scenario_file, tmp_path, capsys, key, value,
                                                message):
    # Types alone would pass these: a negative noise_std would run, and the
    # frozen environment would drop its noise without a word.
    data = json.loads(Path(scenario_file).read_text())
    if key == "radii":
        data[key][1] = value
    else:
        data[key] = value(data[key]) if callable(value) else value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = run_cli("simulate", "--scenario", bad, "--mode", "feasibility", "--out", tmp_path / "o")
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_offline_value_types_are_usage_errors(scenario_file, tmp_path, capsys):
    sol = OfflineSolution(xstar=np.zeros(24), offline_cost=0.0, xdagger=np.zeros(24),
                          viability_residual=-1.0, K=0.0, grid=TimeGrid(T=1.0, num_steps=1),
                          cost_cumulative=np.zeros(2))
    for key, value, message in (("K", None, "offline solution key 'K' has the wrong type: null"),
                                ("grid", {"T": 1.0, "num_steps": 1.5},
                                 "offline solution grid key 'num_steps' has the wrong type: 1.5")):
        off = tmp_path / "offline.json"
        off.write_text(json.dumps({**cli.offline_to_dict(sol, "black_sheep"), key: value}))
        code = run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle", "--objective",
                       "blacksheep", "--offline", off, "--out", tmp_path / "o")
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("offline, missing", [
    ({}, "['xstar', 'offline_cost', 'xdagger', 'viability_residual', 'K', 'grid', "
         "'cost_cumulative', 'grid.T', 'grid.num_steps']"),
    ({"xstar": [], "offline_cost": 0, "xdagger": [], "viability_residual": 0, "K": 0,
      "cost_cumulative": [], "grid": {"T": 1.0}}, "['grid.num_steps']"),
], ids=["empty", "no_num_steps"])
def test_offline_file_missing_keys_is_usage_error(scenario_file, tmp_path, capsys, offline, missing):
    off = tmp_path / "offline.json"
    off.write_text(json.dumps(offline))
    code = run_cli("simulate", "--scenario", scenario_file, "--mode", "saddle", "--objective",
                   "blacksheep", "--offline", off, "--out", tmp_path / "o")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "offline solution lacks keys" in err and missing in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content, flags, message", [
    ([], ("--config", "{bad}"), "experiment config must be a JSON object"),
    ([], ("--scenario", "{scenario}", "--offline", "{bad}"), "an offline solution must be a JSON object"),
    ([], ("--scenario", "{bad}"), "a scenario must be a JSON object"),
    ({"version": 1, "kind": "herd"}, ("--scenario", "{bad}"), "unsupported scenario kind 'herd'"),
], ids=["config_array", "offline_array", "scenario_array", "scenario_kind"])
def test_input_files_of_the_wrong_shape_are_usage_errors(scenario_file, tmp_path, capsys, content,
                                                         flags, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    flags = [str(f).format(bad=bad, scenario=scenario_file) for f in flags]
    out = tmp_path / "o"
    assert run_cli("simulate", *flags, "--mode", "saddle", "--objective", "blacksheep",
                   "--out", out) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    ({"scenario": {"seed": 1, "bogus": 3}}, "unknown inline scenario keys: ['bogus']"),
    ({"scenario": {"seed": None}}, "inline scenario key 'seed' has the wrong type: null"),
    ({"scenario": {"seed": 1, "m": [5]}}, "inline scenario key 'm' has the wrong type: [5]"),
    ({"epsilon": None}, "config key 'epsilon' has the wrong type: null"),
    ({"stride": [10]}, "config key 'stride' has the wrong type: [10]"),
    ({"objective": ["blacksheep"]}, "config key 'objective' has the wrong type"),
    ({"delta": True}, "config key 'delta' has the wrong type: true"),
    # An integer beyond the floats was an OverflowError traceback.
    ({"delta": 10 ** 400}, "config key 'delta' is too large for a float"),
    # Flags have argparse's choices; config values are checked by the command.
    ({"mode": "fast"}, "mode must be one of"),
    ({"objective": "cheap"}, "objective must be one of"),
], ids=["inline_unknown", "inline_null", "inline_list", "null", "list", "unhashable", "bool",
        "beyond_the_floats", "mode_choice", "objective_choice"])
def test_config_value_types_are_usage_errors(scenario_file, tmp_path, capsys, cfg, message):
    cfg = {"version": 1, "scenario": str(scenario_file), "mode": "feasibility",
           "out": str(tmp_path / "o"), **cfg}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", cfg_path) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_saturated_run_records_floor(scenario_file, tmp_path):
    out = tmp_path / "sat"
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 1e-3, "--delta", 0.1, "--out", out) == 0
    md = json.loads((out / "metrics.json").read_text())
    assert len(md["fit"]) == len(md["fit_bounds"]) == len(md["saturated_fit"]) == 5
    assert md["clipped_fit_norm"] == np.linalg.norm(np.maximum(md["fit"], 0.0))
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
    f_cols = [i for i, h in enumerate(header) if h.startswith("f_") and h != "f_0val"]
    assert np.all(data[:, f_cols] >= -0.1 - 1e-9)


def test_saturated_report_checks_the_floor(scenario_file, tmp_path, capsys):
    # report recomputes the floor check from the CSV: a value below -delta fails it.
    out = tmp_path / "sat"
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 1e-3, "--delta", 0.1, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("report", "--results", out) == 0
    lines = [ln.strip() for ln in capsys.readouterr().out.splitlines()]
    floor = [ln for ln in lines if ln.startswith("saturated values >= -delta: ")]
    assert len(floor) == 1 and floor[0].startswith("saturated values >= -delta: PASS (min ")
    assert float(floor[0].rsplit(" ", 1)[1].rstrip(")")) >= -0.1
    csv = out / "trajectory.csv"
    header, *rows = csv.read_text().splitlines()
    col = header.split(",").index("f_1")
    cells = rows[-1].split(",")
    cells[col] = "-0.2"
    csv.write_text("\n".join([header, *rows[:-1], ",".join(cells)]) + "\n")
    assert run_cli("report", "--results", out) == 0
    text = capsys.readouterr().out
    assert "saturated values >= -delta: FAIL (min -0.2)" in text
    assert text.rstrip().endswith("report: some checks FAILED")


def test_gradient_report_has_no_multiplier_figure(scenario_file, tmp_path, capsys):
    out = tmp_path / "grad"
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "gradient",
                   "--objective", "blacksheep", "--epsilon", 5, "--step", 1e-3, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("report", "--results", out) == 0
    text = capsys.readouterr().out
    assert "missing: lambda_vs_t (no multiplier columns)" in text
    assert "multipliers in [0, 4R^2+1]" not in text
    assert (out / "fit_vs_t.svg").exists() and not (out / "lambda_vs_t.svg").exists()


def test_config_inline_scenario_takes_the_seed_flag(scenario_file, tmp_path, capsys):
    # The inline parameters with --seed 1 draw the scenario of scenario_file.
    cfg = {"version": 1, "scenario": {"n": 12, "n_sheep": 12, "noise_cells": 200},
           "mode": "feasibility", "epsilon": 5.0, "step": 1e-3}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", cfg_path, "--out", tmp_path / "o") == cli.EXIT_USAGE
    assert "inline scenario parameters need a seed (--seed)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert run_cli("simulate", "--config", cfg_path, "--seed", 1, "--out", tmp_path / "inline") == 0
    assert run_cli("simulate", "--scenario", scenario_file, "--mode", "feasibility",
                   "--epsilon", 5, "--step", 1e-3, "--out", tmp_path / "file") == 0
    assert ((tmp_path / "inline" / "trajectory.csv").read_bytes()
            == (tmp_path / "file" / "trajectory.csv").read_bytes())
    md = json.loads((tmp_path / "inline" / "metrics.json").read_text())
    assert md["scenario_seed"] == 1 and md["scenario_file"] is None
