"""Online controllers and the time integrator.

Three controller modes over a horizon [0, T]:

* ``gradient``     action descent on the objective only (no multipliers),
* ``feasibility``  multiplier-weighted constraint descent, objective ignored,
* ``saddle``       full primal descent / dual ascent on the running Lagrangian
                   ``f0 + lambda . f``.

Action fields are projected onto the tangent cone of the action set X, the
multiplier field onto the tangent cone of the nonnegative orthant, so
trajectories never leave their domains.  The discretization is projected
Euler: project the field, take the explicit step, re-project the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .convex_sets import ConvexSet, NonnegativeOrthant
from .environment import Environment

MODES = ("gradient", "feasibility", "saddle")

DIVERGENCE_LIMIT = 1e12
# Nodes per block of environment time tables: big enough to amortise building
# them, small enough that memory does not grow with the horizon.
GRID_BLOCK = 512


class DivergenceError(RuntimeError):
    """Integrator produced a non-finite or exploding state."""


@dataclass(frozen=True)
class ControllerConfig:
    epsilon: float
    h: float = 1e-4
    mode: str = "saddle"

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("controller gain epsilon must be positive")
        if self.h <= 0.0:
            raise ValueError("integrator step h must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class TrajectoryLog:
    """Thinned state/penalty series plus full-resolution accumulators."""

    t: np.ndarray              # (S,)
    x: np.ndarray              # (S, n)
    lam: np.ndarray            # (S, m_lam)
    f: np.ndarray              # (S, m)
    f0: np.ndarray             # (S,)
    fit_accum: np.ndarray      # (S, m), trapezoid at integrator resolution
    cost_accum: np.ndarray     # (S,)
    config: ControllerConfig
    T: float
    h_eff: float
    lambda_max: np.ndarray     # (m_lam,), max over *every* step, not just samples
    max_field_norm: float      # empirical Lipschitz scale of the state fields

    def __post_init__(self):
        S = self.t.shape[0]
        for name in ("x", "lam", "f", "fit_accum"):
            if getattr(self, name).shape[0] != S:
                raise ValueError(f"series length mismatch on {name}")
        if self.f0.shape[0] != S or self.cost_accum.shape[0] != S:
            raise ValueError("series length mismatch on scalar series")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def final_fit(self) -> np.ndarray:
        return self.fit_accum[-1]

    @property
    def final_cost(self) -> float:
        return float(self.cost_accum[-1])


def simulate(
    env: Environment,
    config: ControllerConfig,
    T: float,
    X: ConvexSet,
    x0: Optional[np.ndarray] = None,
    sample_stride: int = 10,
) -> TrajectoryLog:
    """Run the configured controller over [0, T] and log the trajectory.

    The action starts at ``x0`` (default: the origin) projected onto X, the
    multipliers at zero in the nonnegative orthant.  At each node 0..N the loop
    evaluates the environment, read from the time tables of the node's block of
    ``GRID_BLOCK`` nodes, then advances by projected Euler:
    ``xdot = Pi_X(x, -eps (g0 + G lam))`` (``-eps g0`` in gradient mode,
    ``-eps G lam`` in feasibility mode) and ``lamdot = Pi_Lam(lam, eps f)``.

    The number of steps N is ``round(T / h)`` and the effective step is adjusted
    to land exactly on T.  Accumulators (fit, cost) advance every step by the
    trapezoid rule; the stored series keeps every ``sample_stride``-th node
    plus the endpoint.
    """
    if T <= 0.0:
        raise ValueError("horizon T must be positive")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    m = env.m
    Lam = NonnegativeOrthant(m)
    n_steps = max(1, int(round(T / config.h)))
    h_eff = T / n_steps
    cfg = replace(config, h=h_eff)
    eps = cfg.epsilon
    mode = cfg.mode

    x = X.project_point(np.zeros(X.dim) if x0 is None else np.asarray(x0, dtype=float))
    lam = np.zeros(0 if mode == "gradient" else m)
    lamdot = lam  # gradient mode carries no multipliers: lam and lamdot stay empty
    fit = np.zeros(m)
    cost = 0.0
    lam_max = lam.copy()
    max_field = 0.0

    samples = []  # (t, x, lam, f0, f, fit, cost) at the stored nodes
    half_h = 0.5 * h_eff
    for i in range(n_steps + 1):
        j = i % GRID_BLOCK
        if j == 0:
            # Node k at (k - 1) h + h: +0.0 for k = 0, else the float the step to it lands on.
            at = env.grid_evaluator(np.arange(i - 1, min(i - 1 + GRID_BLOCK, n_steps)) * h_eff + h_eff)
        f0_i, g0, f_i, G = at(j, x)
        if i:
            if m:
                fit = fit + half_h * (f + f_i)
            cost = cost + half_h * (f0 + f0_i)
        f0, f = f0_i, f_i
        if i % sample_stride == 0 or i == n_steps:
            samples.append((i * h_eff, x.copy(), lam.copy(), f0, f.copy(), fit.copy(), cost))
        if i == n_steps:
            break
        if mode == "gradient":
            xdot = X.project_field(x, -eps * g0)
        else:
            drive = G @ lam if mode == "feasibility" else g0 + G @ lam
            xdot = X.project_field(x, -eps * drive)
            lamdot = Lam.project_field(lam, eps * f)
        x = X.project_point(x + h_eff * xdot)
        lam = Lam.project_point(lam + h_eff * lamdot) if lam.size else lam
        if np.abs(x).max() > DIVERGENCE_LIMIT or (lam.size and np.abs(lam).max() > DIVERGENCE_LIMIT):
            raise DivergenceError(
                f"state magnitude exceeded {DIVERGENCE_LIMIT:.0e} at t={i * h_eff + h_eff:.6g}; "
                "reduce the step h or the epsilon*h product"
            )
        field_norm = math.sqrt(float(xdot @ xdot))
        if lamdot.size:
            field_norm = max(field_norm, math.sqrt(float(lamdot @ lamdot)))
        if lam.size:
            np.maximum(lam_max, lam, out=lam_max)
        if field_norm > max_field:
            max_field = field_norm

    ts, xs, lams, f0s, fs, fits, costs = zip(*samples)
    return TrajectoryLog(
        t=np.array(ts),
        x=np.array(xs),
        lam=np.array(lams) if lams[0].size else np.zeros((len(ts), 0)),
        f=np.array(fs),
        f0=np.array(f0s),
        fit_accum=np.array(fits),
        cost_accum=np.array(costs),
        config=cfg,
        T=T,
        h_eff=h_eff,
        lambda_max=lam_max,
        max_field_norm=max_field,
    )
