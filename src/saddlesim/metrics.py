"""Fit, regret, energy, and the bound calculators used by the verification suite.

Fit is the vector of time-integrals of the constraint values along a
trajectory; regret is the accumulated cost minus the accumulated cost of the
clairvoyant optimal fixed action.  The bound calculators evaluate the
guarantees the controllers come with:

* gradient controller:   regret <= V_{x*}(x(0)) / eps,
* feasibility controller: fit_i <= V_{x_dag, e_i}(x(0), lam(0)) / eps,
* bounded action set:     0 <= lam_i(t) <= 4 R^2 + 1,
* full saddle controller: regret <= V_{x*,0}(x(0), lam(0)) / eps and the
  positive part of the fit grows at most like sqrt(K T).

All guarantees are continuous-time statements; discretization is absorbed by
an explicit slack budget (:func:`slack`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import TrajectoryLog
from .environment import saturation_level

if TYPE_CHECKING:  # pragma: no cover
    from .offline import OfflineSolution


def fit(log: TrajectoryLog) -> np.ndarray:
    """Trapezoid integral of each constraint along the logged trajectory."""
    if log.t.shape[0] < 2:
        raise ValueError("log holds fewer than two samples; nothing to integrate")
    return np.trapezoid(log.f, log.t, axis=0)


def saturated_fit(log: TrajectoryLog, delta: float) -> np.ndarray:
    """Fit of the trajectory with constraint values floored at -delta."""
    return fit(replace(log, f=np.maximum(log.f, -saturation_level(delta))))


def energy(xbar: np.ndarray, lambar: np.ndarray, x: np.ndarray, lam: np.ndarray) -> float:
    """Half squared distance of (x, lam) to the comparator pair (xbar, lambar)."""
    xbar = np.asarray(xbar, dtype=float)
    lambar = np.asarray(lambar, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if xbar.shape != x.shape or lambar.shape != lam.shape:
        raise ValueError("energy comparator dimensions do not match the state")
    dx = x - xbar
    dl = lam - lambar
    return 0.5 * (float(dx @ dx) + float(dl @ dl))


def fit_bound(eps: float, x0: np.ndarray, lambda0: np.ndarray, xdagger: np.ndarray, i: int) -> float:
    """Per-component fit guarantee of the feasibility controller.

    Uses the supplied feasible action (from the viability checker); the exact
    minimum over the whole feasible set is not computed, so the returned value
    upper-bounds the sharpest available guarantee and remains valid.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    lambda0 = np.asarray(lambda0, dtype=float)
    e_i = np.zeros(lambda0.shape[0])
    if not (0 <= i < lambda0.shape[0]):
        raise ValueError("constraint index out of range")
    e_i[i] = 1.0
    return energy(xdagger, e_i, x0, lambda0) / eps


def multiplier_bound(R: float) -> float:
    """Multiplier ceiling 4 R^2 + 1 for an action set of norm radius R."""
    if R < 0.0 or not np.isfinite(R):
        raise ValueError("R must be a finite nonnegative norm bound")
    return 4.0 * R * R + 1.0


def clipped_fit_norm(fitvec: np.ndarray) -> float:
    """Euclidean norm of the componentwise positive part of a fit vector."""
    return float(np.linalg.norm(np.maximum(np.asarray(fitvec, dtype=float), 0.0)))


def slack(bound: float, h: float, T: float, lhat: float) -> float:
    """Additive tolerance for checking continuous-time bounds on discrete runs.

    ``max(0.05 |bound|, 10 h T lhat)`` where lhat is the empirical field scale
    logged during simulation; the second term budgets the O(h) integration
    error of the projected Euler scheme.
    """
    return max(0.05 * abs(bound), 10.0 * h * T * lhat)


@dataclass(frozen=True)
class RegretReport:
    regret: float
    online_cost: float
    offline_cost: float
    bound: float
    floor: float


def check_horizon(offline: "OfflineSolution", T: float) -> None:
    """Raise a ValueError unless the offline solution's horizon is T."""
    if abs(offline.grid.T - T) > 1e-9:
        raise ValueError(f"offline horizon {offline.grid.T} does not match trajectory horizon {T}")


def regret(log: TrajectoryLog, offline: "OfflineSolution") -> RegretReport:
    """Online accumulated cost minus the clairvoyant fixed-action cost.

    The offline solution must have been computed for the same horizon; the
    report carries the saddle-controller regret guarantee and the floor
    ``-K T`` implied by the uniform cost-gap constant K.
    """
    check_horizon(offline, log.T)
    online_cost = log.final_cost
    x0 = log.x[0]
    lam0 = log.lam[0] if log.lam.shape[1] else np.zeros(0)
    bound = energy(offline.xstar, np.zeros_like(lam0), x0, lam0) / log.config.epsilon
    return RegretReport(
        regret=online_cost - offline.offline_cost,
        online_cost=online_cost,
        offline_cost=offline.offline_cost,
        bound=bound,
        floor=-offline.K * log.T,
    )
