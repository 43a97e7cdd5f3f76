"""Discretized clairvoyant solver.

Works on a uniform time grid over [0, T]: certifies that a fixed action
satisfying every constraint at every grid node exists (viability), solves for
the optimal fixed action under those constraints by a method of multipliers
started at that viability point, and estimates the uniform cost-gap constant
K used by the regret floor and the sublinear-fit checks.

The continuous-time requirement "for all t" is sampled at grid nodes only;
environments built from smooth bases plus sample-and-hold noise aligned to
the same grid make this exact up to the node spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convex_sets import Box, ConvexSet
from .environment import Environment, EvaluatorError

VIABILITY_TOL = 1e-6
INCONCLUSIVE_BAND = 1e-3
KKT_TOL = 1e-8
INNER_ITER = 100


class InconclusiveViabilityError(RuntimeError):
    """Residual landed between the certificate and rejection thresholds at the
    iteration cap; refine the grid or raise the iteration budget."""


class InfeasibleEnvironmentError(RuntimeError):
    """The offline problem has no feasible fixed action on this grid."""


class InnerSolveError(RuntimeError):
    """A per-node inner minimization failed to converge."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_k = k h with t_0 = 0 and t_N = T."""

    T: float
    num_steps: int

    def __post_init__(self):
        if self.T <= 0.0 or self.num_steps < 1:
            raise ValueError("grid needs T > 0 and at least one step")

    @property
    def h(self) -> float:
        return self.T / self.num_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.num_steps + 1)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.num_steps + 1, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @classmethod
    def from_step(cls, T: float, h: float) -> "TimeGrid":
        n = max(1, int(round(T / h)))
        return cls(T=T, num_steps=n)


@dataclass(frozen=True)
class ViabilityResult:
    viable: bool
    xdagger: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class OfflineSolution:
    xstar: np.ndarray
    offline_cost: float
    xdagger: np.ndarray
    viability_residual: float
    K: float
    grid: TimeGrid
    cost_cumulative: np.ndarray = field(repr=False)
    diagnostics: dict = field(default_factory=dict, repr=False)


def check_viability(
    env: Environment,
    grid: TimeGrid,
    X: ConvexSet,
    max_iter: int = 200_000,
    interior_target: float = np.inf,
    x_init: Optional[np.ndarray] = None,
) -> ViabilityResult:
    """Search for a fixed action with nonpositive constraints at every node.

    Minimizes ``phi(x) = max_{k,i} f_i(t_k, x)`` by projected subgradient with
    Polyak-style level steps and running-average tracking, keeping the best
    point seen.  The environment counts as viable when the best residual is at
    most 1e-6.  By default the search runs until progress stalls (returning a
    near-minimal residual); passing a finite ``interior_target`` stops as soon
    as the residual clears ``-interior_target``, which is enough margin for
    the downstream solvers and much cheaper.
    """
    if env.m == 0:
        x0 = X.project_point(np.zeros(X.dim))
        return ViabilityResult(True, x0, float("-inf"), 0)

    ts = grid.nodes()
    at = env.grid_evaluator(ts)
    x = X.project_point(np.zeros(X.dim)) if x_init is None else X.project_point(np.asarray(x_init, float))

    def phi(xv: np.ndarray) -> tuple[float, int, int]:
        vals = env.batch_constraints(ts, xv)
        k, i = np.unravel_index(np.argmax(vals), vals.shape)
        return float(vals[k, i]), int(k), int(i)

    best_x = x.copy()
    best_phi, _, _ = phi(x)
    x_avg = x.copy()
    stall = 0
    it = 0
    while it < max_iter:
        val, k, i = phi(x)
        if val < best_phi - 1e-12:
            best_phi, best_x = val, x.copy()
            stall = 0
        else:
            stall += 1
        if best_phi <= -interior_target:
            break
        # No certified lower bound exists for a subgradient method.  A long
        # stall with the certificate already in hand just stops improving the
        # interior margin; a long stall at a clearly positive residual is
        # treated as non-viable.  Residuals inside the inconclusive band keep
        # iterating until the cap, which raises.
        if stall > 1500 and best_phi <= VIABILITY_TOL:
            break
        if stall > 3000 and best_phi > INCONCLUSIVE_BAND:
            break
        _, _, _, G = at(k, x)
        g = G[:, i]
        gn2 = float(g @ g)
        if gn2 <= 1e-300:
            break
        level = best_phi - max(1e-4, 0.1 * abs(best_phi)) / np.sqrt(1.0 + it)
        step_len = max(val - level, 1e-12) / gn2
        x = X.project_point(x - step_len * g)
        x_avg += (x - x_avg) / (it + 2.0)
        if (it + 1) % 500 == 0:
            avg_val, _, _ = phi(x_avg)
            if avg_val < best_phi:
                best_phi, best_x = avg_val, x_avg.copy()
        it += 1

    if it >= max_iter and VIABILITY_TOL < best_phi <= INCONCLUSIVE_BAND:
        raise InconclusiveViabilityError(
            f"residual {best_phi:.3e} after {it} iterations sits between the viability "
            f"certificate ({VIABILITY_TOL:.0e}) and rejection ({INCONCLUSIVE_BAND:.0e}); "
            "refine the grid or raise max_iter"
        )
    return ViabilityResult(bool(best_phi <= VIABILITY_TOL), best_x, best_phi, it)


def solve_offline(
    env: Environment,
    grid: TimeGrid,
    X: ConvexSet,
    viability: Optional[ViabilityResult] = None,
    max_iter: int = 6000,
) -> OfflineSolution:
    """Optimal fixed action on the grid: min sum_k w_k f0(t_k, x) subject to
    f_i(t_k, x) <= 0 at every node.

    Method of multipliers warm-started at the viability point x-dagger.  The
    augmented Lagrangian ``L(x, mu) = sum_k w_k f0 + (|lam|^2 - |mu|^2) / (2 rho)``
    with ``lam = max(0, mu + rho f)`` costs one ``batch_constraints`` and one
    ``batch_evaluate`` call, whose gradient at the multipliers ``lam`` is
    exactly grad_x L.  Each inner solve is a nonmonotone spectral projected
    gradient (Barzilai-Borwein step, Armijo test against the last 10 values)
    that stops at stationarity ``KKT_TOL`` or after ``INNER_ITER`` evaluations;
    then ``mu <- lam``, and ``rho`` grows tenfold unless the violation fell to
    a quarter.  ``max_iter`` bounds the Lagrangian evaluations of all inner
    solves together; the loop ends early once violation, stationarity and
    complementarity clear their tolerances, which ``converged`` reports.  A
    last iterate violating by v > 0 is blended once toward x-dagger with
    ``theta = v / (v + margin)`` (feasible by convexity), and the cheaper of
    that point and x-dagger wins.  Non-convergence is reported through the
    diagnostics, not raised.
    """
    if not env.has_objective:
        raise ValueError("offline solve requires an environment with an objective")
    if viability is None:
        viability = check_viability(env, grid, X)
    if not viability.viable:
        raise InfeasibleEnvironmentError(
            f"viability residual {viability.residual:.3e} exceeds {VIABILITY_TOL:.0e}; "
            "run check_viability and redraw the scenario"
        )

    ts = grid.nodes()
    w = grid.trapezoid_weights()
    xd = viability.xdagger
    mu = np.zeros((ts.shape[0], env.m))
    rho = 1.0

    def lagrangian(x):
        f = env.batch_constraints(ts, x)
        lam = np.maximum(0.0, mu + rho * f)
        f0s, _, grad = env.batch_evaluate(ts, x, w, lam)
        return float(w @ f0s) + (np.sum(lam * lam) - np.sum(mu * mu)) / (2.0 * rho), grad, f

    def stationarity(x, grad):
        return float(np.max(np.abs(X.project_point(x - grad) - x)))

    def certified(violation, stat, comp):
        return violation <= VIABILITY_TOL and stat <= KKT_TOL and comp <= KKT_TOL

    x, it, viol_prev = np.array(xd, dtype=float), 0, np.inf
    while it < max_iter:
        val, grad, f = lagrangian(x)
        it += 1
        recent, step, stop = [val], 1.0, min(max_iter, it + INNER_ITER)
        while it < stop and stationarity(x, grad) > KKT_TOL:
            d = X.project_point(x - step * grad) - x
            slope, t_ls = float(grad @ d), 1.0
            while it < stop:
                val_n, grad_n, f_n = lagrangian(x + t_ls * d)
                it += 1
                if val_n <= max(recent) + 1e-4 * t_ls * slope:
                    break
                t_ls *= 0.5
            else:
                break
            s, y = t_ls * d, grad_n - grad
            sy = float(s @ y)
            step = min(1e10, max(1e-10, float(s @ s) / sy)) if sy > 0.0 else 1e10
            x, val, grad, f = x + s, val_n, grad_n, f_n
            recent = (recent + [val])[-10:]
        mu = np.maximum(0.0, mu + rho * f)
        viol = float(np.max(f, initial=0.0))
        if certified(viol, stationarity(x, grad), abs(float(np.sum(mu * f)))):
            break
        if viol > 0.25 * viol_prev:
            rho *= 10.0
        viol_prev = viol

    def cost(xv):
        return float(w @ env.batch_evaluate(ts, xv, w, np.zeros_like(mu))[0])

    viol = float(np.max(env.batch_constraints(ts, x), initial=-np.inf))
    margin = -viability.residual
    if viol > 0.0:
        theta = viol / (viol + margin) if margin > 0.0 else 1.0
        x = (1.0 - theta) * x + theta * xd
    xstar = x if cost(x) <= cost(xd) else np.array(xd, dtype=float)

    f0s, fs, grad = env.batch_evaluate(ts, xstar, w, mu)
    diagnostics = {
        "iterations": it,
        "kkt_stationarity": stationarity(xstar, grad),
        "complementarity": abs(float(np.sum(mu * fs))),
        "violation": float(np.max(fs, initial=-np.inf)),
    }
    diagnostics["converged"] = certified(diagnostics["violation"], diagnostics["kkt_stationarity"],
                                         diagnostics["complementarity"])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * grid.h * (f0s[:-1] + f0s[1:]))])
    return OfflineSolution(
        xstar=xstar,
        offline_cost=float(w @ f0s),
        xdagger=xd,
        viability_residual=viability.residual,
        K=estimate_K(env, grid, X, xstar),
        grid=grid,
        cost_cumulative=cum,
        diagnostics=diagnostics,
    )


def estimate_K(
    env: Environment,
    grid: TimeGrid,
    X: ConvexSet,
    xstar: np.ndarray,
    tol: float = 1e-7,
    max_iter: int = 2000,
) -> float:
    """Uniform bound on f0(t, x*) minus the pointwise minimum of f0(t, .) over X.

    Solves the per-node minimization by monotone projected gradient descent
    (probed step, halving on non-decrease) and returns the largest gap,
    clamped below at zero.  Nodes run in lockstep on (K, n) arrays: a stopped
    node holds its point, but each step evaluates all K until the last stops.
    """
    ts = grid.nodes()

    def objective(xs):  # (f0 (K,), f, g0 (K, n)) with one action per node
        return env.batch_evaluate(ts, xs, np.ones(ts.shape[0]), np.zeros((ts.shape[0], env.m)))

    def project(Z):
        if isinstance(X, Box):
            return np.minimum(np.maximum(Z, X.lower), X.upper)  # Box.project_point, row-wise
        return np.array([X.project_point(z) for z in Z]).reshape(Z.shape)

    def gradient_map(xs, g):
        return np.max(np.abs(xs - project(xs - g)), axis=1)

    f_star = objective(np.asarray(xstar, dtype=float))[0]
    x = np.tile(X.project_point(np.zeros(X.dim)), (ts.shape[0], 1))
    f_x, _, g = objective(x)
    gnorm = np.linalg.norm(g, axis=1)
    g_p = objective(x + g / np.where(gnorm > 0.0, gnorm, 1.0)[:, None] * 1e-4)[2]
    L = np.linalg.norm(g_p - g, axis=1) / 1e-4
    step = 1.0 / np.where(L > 1e-12, L, 1.0)
    running = np.ones(ts.shape[0], dtype=bool)
    for _ in range(max_iter):
        running &= gradient_map(x, g) > tol
        if not running.any():
            break
        trial = np.where(running[:, None], project(x - step[:, None] * g), x)
        f_trial, _, g_trial = objective(trial)
        worse = running & ~(f_trial < f_x)
        take = running & ~worse
        x[take], f_x[take], g[take] = trial[take], f_trial[take], g_trial[take]
        step[worse] *= 0.5
        running &= ~(worse & (step < 1e-16))
    else:
        gmap = np.where(running, gradient_map(x, g), 0.0)
        k = int(np.argmax(gmap > 1e-4))
        if gmap[k] > 1e-4:
            raise InnerSolveError(f"inner minimization stalled at node t={ts[k]:.6g} "
                                  f"(gradient map {gmap[k]:.3e})")
    gap = f_star - f_x
    if not np.isfinite(gap).all():
        raise EvaluatorError(f"non-finite objective at node t={ts[np.isfinite(gap).argmin()]:.6g}")
    return max(0.0, float(np.max(gap)))
