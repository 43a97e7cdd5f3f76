"""Output checks behind the benchmark's failure count.

Every check reads the files a command wrote and recomputes what it can with
plain numpy from the scenario JSON, never through the program's own
evaluator, so a change inside the package cannot make its own outputs pass.
Each function returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre, polynomial

VIOLATION_TOL = 1e-6      # grid constraint violation allowed for x* (the certificate threshold)
REFERENCE_RTOL = 1e-9     # final fit / cost / lambda_max against the seed-commit values
COST_RTOL = 1e-9          # offline_cost against the recomputed costs of x* and x-dagger


@dataclass(frozen=True)
class RunOutput:
    """What one simulate run left behind, for the cross-repeat checks."""

    label: str
    steps: int
    csv_sha256: str
    fit: list
    cost: float
    lambda_max: list


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_header(action_dim: int, m: int) -> list[str]:
    """The documented ``trajectory.csv`` column order."""
    return (["t"] + [f"x_{i}" for i in range(action_dim)]
            + [f"lambda_{i}" for i in range(m)] + ["f_0val"]
            + [f"f_{i}" for i in range(1, m + 1)]
            + [f"fit_{i}" for i in range(1, m + 1)] + ["cost_accum"])


def run_dirs(out: Path) -> list[Path]:
    """Run directories (holding ``metrics.json``) under a simulate ``--out``."""
    return sorted(p.parent for p in Path(out).rglob("metrics.json"))


def _close(got, want, rtol: float) -> bool:
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    if got.shape != want.shape:
        return False
    # relative to the vector's own scale, so exact zeros in it do not demand
    # bit equality while its large entries are held to rtol
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    return bool(np.all(np.abs(got - want) <= rtol * scale))


def check_run(run_dir: Path, scenario: dict, label: str) -> tuple[RunOutput | None, list[str]]:
    """Schema, finiteness, multiplier range and fit of one simulate run."""
    csv_path, md_path = run_dir / "trajectory.csv", run_dir / "metrics.json"
    if not csv_path.is_file() or not md_path.is_file():
        return None, [f"{label}: trajectory.csv or metrics.json missing"]
    fails = []
    raw = csv_path.read_bytes()
    md = load_json(md_path)
    n_action, m = 2 * int(scenario["n"]), int(scenario["m"])
    header = raw.split(b"\n", 1)[0].decode().split(",")
    if header != expected_header(n_action, m):
        fails.append(f"{label}: trajectory.csv header differs from the documented schema")
        return None, fails
    try:
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return None, [f"{label}: trajectory.csv does not parse: {exc}"]
    if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        fails.append(f"{label}: trajectory.csv has a short row or a non-finite value")
        return None, fails
    col = {name: i for i, name in enumerate(header)}
    lam = data[:, [col[f"lambda_{i}"] for i in range(m)]]
    ceiling = 4.0 * n_action * float(scenario["action_half"]) ** 2 + 1.0   # 4 R^2 + 1
    if lam.size and (lam.min() < 0.0 or lam.max() > ceiling):
        fails.append(f"{label}: multiplier outside [0, 4R^2+1] "
                     f"(min {lam.min():.6g}, max {lam.max():.6g}, ceiling {ceiling:.6g})")
    t = data[:, col["t"]]
    f = data[:, [col[f"f_{i}"] for i in range(1, m + 1)]]
    fit = np.trapezoid(f, t, axis=0)
    if not _close(md.get("fit", []), fit, REFERENCE_RTOL):
        fails.append(f"{label}: metrics.json fit differs from the trapezoid of the CSV f_i columns")
    out = RunOutput(
        label=label,
        steps=int(round(float(md["T"]) / float(md["h"]))),
        csv_sha256=hashlib.sha256(raw).hexdigest(),
        fit=[float(v) for v in md["fit"]],
        cost=float(md["cost"]),
        lambda_max=[float(v) for v in md["lambda_max"]],
    )
    return out, fails


def check_reference(run: RunOutput, ref: dict) -> list[str]:
    """Final fit, cost and lambda_max against the values recorded at the seed commit."""
    fails = []
    for key in ("fit", "cost", "lambda_max"):
        if not _close(getattr(run, key), ref[key], REFERENCE_RTOL):
            fails.append(f"{run.label}: final {key} moved more than {REFERENCE_RTOL:g} "
                         f"relative from the recorded reference")
    return fails


# ---------------------------------------------------------------------------
# Offline solution: an independent numpy evaluation on the offline grid.
# ---------------------------------------------------------------------------

def _basis(kind: str, n: int, ts: np.ndarray, T: float, deriv: int = 0) -> np.ndarray:
    """(len(ts), n) values of the basis (or its t-derivative) at ts."""
    eye = np.eye(n)
    if kind == "legendre":
        u = 2.0 * ts / T - 1.0
        coef = legendre.legder(eye, deriv) * (2.0 / T) ** deriv if deriv else eye
        return legendre.legval(u, coef).T if coef.size else np.zeros((ts.size, n))
    if kind == "monomial":
        coef = polynomial.polyder(eye, deriv) if deriv else eye
        return polynomial.polyval(ts, coef).T if coef.size else np.zeros((ts.size, n))
    raise ValueError(f"unknown basis kind {kind!r}")


def _grid_eval(scenario: dict, objective: str, x: np.ndarray):
    """Constraint values (K, m) and cost of action x on the offline grid, for
    the noise-mean environment the offline problem is posed on."""
    kind, n, ns, T = scenario["basis"], int(scenario["n"]), int(scenario["n_sheep"]), float(scenario["T"])
    cells = int(scenario["noise_cells"])
    ts = np.linspace(0.0, T, cells + 1)
    w = np.full(cells + 1, T / cells)
    w[[0, -1]] *= 0.5
    shift = 2.0 * float(scenario["noise_std"]) ** 2
    r2 = np.asarray(scenario["radii"], dtype=float) ** 2 - shift
    sheep = _basis(kind, ns, ts, T) @ np.asarray(scenario["sheep_coeffs"], dtype=float).reshape(-1, ns).T
    sheep = sheep.reshape(ts.size, -1, 2)                          # (K, m, 2)
    P = _basis(kind, n, ts, T)
    z = np.stack([P @ x[:n], P @ x[n:]], axis=1)                   # (K, 2)
    d2 = np.sum((z[:, None, :] - sheep) ** 2, axis=2)              # (K, m)
    if objective == "black_sheep":
        f0 = d2[:, 0] + shift
    elif objective == "min_acceleration":
        Pdd = _basis(kind, n, ts, T, deriv=2)
        f0 = np.hypot(Pdd @ x[:n], Pdd @ x[n:])
    else:
        raise ValueError(f"offline check has no objective {objective!r}")
    return d2 - r2[None, :], float(w @ f0)


def check_offline(path: Path, scenario: dict) -> tuple[float | None, list[str]]:
    """x* feasible on the grid, offline_cost honest and no worse than x-dagger."""
    if not Path(path).is_file():
        return None, [f"{path.name}: missing"]
    sol = load_json(path)
    fails = []
    cost_reported = float(sol["offline_cost"])
    viol, cost_star = _grid_eval(scenario, sol["objective"], np.asarray(sol["xstar"], dtype=float))
    _, cost_dagger = _grid_eval(scenario, sol["objective"], np.asarray(sol["xdagger"], dtype=float))
    if viol.max() > VIOLATION_TOL:
        fails.append(f"offline: xstar violates a grid constraint by {viol.max():.3e} "
                     f"(tolerance {VIOLATION_TOL:g})")
    if not _close(cost_reported, cost_star, COST_RTOL):
        fails.append(f"offline: offline_cost {cost_reported!r} is not the cost of xstar ({cost_star!r})")
    if cost_reported > cost_dagger + COST_RTOL * abs(cost_dagger):
        fails.append(f"offline: offline_cost {cost_reported!r} exceeds the cost of xdagger ({cost_dagger!r})")
    return cost_reported, fails
