"""The benchmark's traced run (``bench/run.py --trace 1``) installs
``bench/tracing.py``'s ``Tracer``, which wraps every public function and
method of the package and rebuilds each environment ``shepherd_env`` returns
with ``dataclasses.replace`` on the names it knows.  A change that renames
what the tracer wraps passes the untraced runs and fails the traced one, so
a small CLI chain is run both ways here and must write the same bytes.
Both runs write and parse every trajectory.csv in two processes, so that
the forked paths run under the tracer too."""

import importlib.util
import os
from pathlib import Path

import pytest

from saddlesim import cli

ROOT = Path(__file__).resolve().parents[1]

CHAIN = (
    ("generate", "--seed", "1", "--n", "6", "--n-sheep", "8", "--noise-cells", "100",
     "--horizon", "0.25", "--out", "scen/s1.json"),
    ("simulate", "--scenario", "scen/s1.json", "--mode", "feasibility", "--epsilon", "50",
     "--step", "1e-3", "--sweep", "0.1,0.2", "--delta", "0.1", "--out", "rep/sweep"),
    ("offline", "--scenario", "scen/s1.json", "--objective", "blacksheep", "--max-iter", "50",
     "--out", "rep/offline.json"),
    ("simulate", "--scenario", "scen/s1.json", "--mode", "saddle", "--objective", "blacksheep",
     "--epsilon", "50", "--step", "1e-3", "--offline", "rep/offline.json", "--out", "rep/saddle"),
    ("report", "--results", "rep"),
)


def run_chain(root: Path, monkeypatch, capsys):
    """Each command's exit code and output, every file the chain wrote under
    ``root``, run there with relative paths, and the number of ``os.fork``
    calls: every trajectory.csv is written and parsed in two processes."""
    root.mkdir()
    monkeypatch.chdir(root)
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    with monkeypatch.context() as patch:
        patch.setattr(cli, "FORK_MIN_VALUES", 1)
        patch.setattr(cli, "_usable_cpus", lambda: 2)
        patch.setattr(os, "fork", counted)
        codes = [(cli.main(list(argv)), capsys.readouterr()) for argv in CHAIN]
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return codes, files, len(forks)


def test_a_traced_chain_writes_the_bytes_of_an_untraced_one(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    plain_codes, plain_files, plain_forks = run_chain(tmp_path / "plain", monkeypatch, capsys)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_codes, traced_files, traced_forks = run_chain(tmp_path / "traced", monkeypatch,
                                                             capsys)
    finally:
        tracer.uninstall()
    assert [code for code, _ in plain_codes] == [0] * len(CHAIN)
    assert traced_codes == plain_codes
    assert len(plain_files) >= 12 and traced_files == plain_files
    # Three runs, each trajectory.csv written by simulate and parsed by report.
    assert plain_forks == traced_forks == 6
    assert len(tracer.spans()["names"]) > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
