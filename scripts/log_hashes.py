"""SHA-256 digests of every integrator run in a pytest session, or of every
file the benchmark's CLI chains write, to show that a change keeps each run
bit for bit.

Record, as a pytest plugin (``src`` and ``scripts`` on the path), once per
source tree:

    PYTHONPATH=src:scripts python -m pytest -q -p log_hashes --log-hashes before.json
    PYTHONPATH=src:scripts python -m pytest -q -p log_hashes --log-hashes after.json

Compare:

    python scripts/log_hashes.py diff before.json after.json

The plugin wraps ``saddlesim.dynamics.simulate_rows``, which every
``simulate`` call runs through, before any test module imports it.  Each
call records, per returned row, a digest of every array of its
``TrajectoryLog`` (``t``, ``x``, ``lam``, ``f``, ``f0``, ``fit_accum``,
``cost_accum``, ``lambda_max``: dtype, shape and bytes) and
``max_field_norm`` and ``h_eff`` as exact hex floats, or, for a row that
failed, ``{"error": "Class: message"}`` in that row's place; a call that
raises records the error's class and message in the same form.  Records are
keyed by the test id, its file relative to the working directory (a call made
while a fixture is set up belongs to the test that set it up), and listed in
call order.
Record the CLI chains of a source tree (a checkout with ``src/`` and
``bench/``), once per tree:

    python scripts/log_hashes.py chain TREE chain.json

``chain`` runs each workload of ``TREE/bench/workloads.py`` at seeds 1, 2
and 7, its set-up and then one repeat of its commands, through
``saddlesim.cli.main`` of ``TREE/src``, in a fresh temporary directory with
relative paths, so that the file names inside ``metrics.json`` do not depend
on the tree.  It records each command's exit code under
``WORKLOAD/seedS exit I: ARGV`` and the SHA-256 of each file written under
``WORKLOAD/seedS/PATH``, in the same format as the test records.

``diff`` compares each key's runs in order (a test's, or the one record of
a chain's file or command), row by row across its calls (a call that raised
is one run), so that runs regrouped into other calls still compare.  It
prints each key and run index whose record differs, and the keys that only
the second file has, and exits 1 when a record differs or a key of the first
file is missing from the second.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ARRAYS = ("t", "x", "lam", "f", "f0", "fit_accum", "cost_accum", "lambda_max")

CHAIN_SEEDS = (1, 2, 7)

_records: dict[str, list] = {}
_lock = threading.Lock()
_current = ["<collection>"]


def digest(array) -> str:
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def error_record(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def log_record(log) -> dict:
    if isinstance(log, Exception):
        return error_record(log)
    out = {name: digest(getattr(log, name)) for name in ARRAYS}
    out["max_field_norm"] = float(log.max_field_norm).hex()
    out["h_eff"] = float(log.h_eff).hex()
    return out


def _record(entry: dict) -> None:
    with _lock:
        _records.setdefault(_current[0], []).append(entry)


def _recorded(run):
    @functools.wraps(run)
    def simulate_rows(*args, **kwargs):
        try:
            logs = run(*args, **kwargs)
        except Exception as exc:
            _record(error_record(exc))
            raise
        _record({"logs": [log_record(log) for log in logs]})
        return logs
    return simulate_rows


def _install() -> None:
    """Replace simulate_rows wherever a loaded saddlesim module holds it."""
    from saddlesim import dynamics

    original = dynamics.simulate_rows
    wrapped = _recorded(original)
    for name, module in list(sys.modules.items()):
        if name == "saddlesim" or name.startswith("saddlesim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


# ---------------------------------------------------------------------------
# pytest hooks: active when this module is loaded with ``-p log_hashes``.
# ---------------------------------------------------------------------------

def pytest_addoption(parser):
    parser.addoption("--log-hashes", metavar="PATH", default=None,
                     help="write the digests of every simulate_rows call to PATH")


def pytest_configure(config):
    if config.getoption("--log-hashes"):
        _install()


def pytest_runtest_setup(item):
    # The test id with its file relative to the working directory, which does
    # not depend on where pytest puts its rootdir.
    path = os.path.relpath(item.path, item.config.invocation_params.dir)
    _current[0] = "::".join([path, *item.nodeid.split("::")[1:]])


def pytest_unconfigure(config):
    path = config.getoption("--log-hashes")
    if path:
        with open(path, "w") as fh:
            json.dump(_records, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _runs(calls: list) -> list:
    """A test's runs in order: the rows of each call, or its raised error."""
    return [run for call in calls for run in call.get("logs", [call])]


def diff(before: str, after: str) -> int:
    with open(before) as fh:
        a = json.load(fh)
    with open(after) as fh:
        b = json.load(fh)
    runs = differ = 0
    for test in sorted(set(a) | set(b)):
        if test not in a:
            print(f"{test}: new in {after}")
            continue
        if test not in b:
            print(f"{test}: only in {before}")
            differ += 1
            continue
        ra, rb = _runs(a[test]), _runs(b[test])
        for k in range(max(len(ra), len(rb))):
            runs += 1
            if k >= len(ra) or k >= len(rb):
                print(f"{test} [{k}]: run missing on one side")
                differ += 1
            elif ra[k] != rb[k]:
                print(f"{test} [{k}]: {json.dumps(ra[k])} != {json.dumps(rb[k])}")
                differ += 1
    failed = sum("error" in r for test in a if test in b for r in _runs(a[test]))
    print(f"{len(set(a) & set(b))} keys in both, {runs} runs compared ({failed} failed), "
          f"{differ} differ; {len(set(b) - set(a))} keys new in {after}")
    return 1 if differ else 0


def chain(tree: str, out: str) -> None:
    root = Path(tree).resolve()
    sys.path.insert(0, str(root / "src"))
    from saddlesim import cli
    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"saddlesim was imported from {cli.__file__}, not from {root}")
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    records: dict[str, list] = {}
    home = os.getcwd()
    for name, make in workloads.WORKLOADS.items():
        for seed in CHAIN_SEEDS:
            key = f"{name}/seed{seed}"
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    wl = make(seed, Path("scen"), Path("rep"))
                    for i, cmd in enumerate((*wl.setup, *wl.repeat)):
                        with contextlib.redirect_stdout(io.StringIO()):
                            code = cli.main(list(cmd.argv))
                        records[f"{key} exit {i}: {' '.join(cmd.argv)}"] = [{"exit": code}]
                    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
                        sha = hashlib.sha256(path.read_bytes()).hexdigest()
                        records[f"{key}/{path.as_posix()}"] = [{"sha256": sha}]
                finally:
                    os.chdir(home)
            print(f"{key}: {sum(k.startswith(key + '/') for k in records)} files", flush=True)
    with open(out, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="what", required=True)
    d = sub.add_parser("diff", help="compare two digest files")
    d.add_argument("before")
    d.add_argument("after")
    c = sub.add_parser("chain", help="run the benchmark's CLI chains of a tree and record them")
    c.add_argument("tree", help="source tree holding src/ and bench/")
    c.add_argument("out", help="JSON file to write")
    args = ap.parse_args()
    if args.what == "chain":
        chain(args.tree, args.out)
    else:
        sys.exit(diff(args.before, args.after))


if __name__ == "__main__":
    main()
