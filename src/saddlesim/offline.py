"""Discretized clairvoyant solver.

Works on a uniform time grid over [0, T]: searches for a fixed action
satisfying every constraint at every grid node (viability), solves for the
optimal fixed action under those constraints, and estimates the uniform
cost-gap constant K used by the regret floor and the sublinear-fit checks.
All three run on one routine, :func:`_spg`, nonmonotone spectral projected
gradient (Birgin, Martinez & Raydan, SIAM J. Optim. 2000) on the rows of a
(B, n) array, projected by one ``X.project_point`` call; ``estimate_K`` runs it
with one row per node, and the other two are one method-of-multipliers loop
over it, :func:`_multipliers`; each of their evaluations is one grid call,
``batch_evaluate``.  The viability search is that loop's phase 1,
min s subject to f_i(t_k, x) <= s; it stops at ``-interior_target`` or once an
outer iteration lowers the best residual by less than ``VIABILITY_TOL``.  "Not
viable" means only that it ended above ``VIABILITY_TOL``, not that no viable
action exists.

The continuous-time requirement "for all t" is sampled at grid nodes only;
environments built from smooth bases plus sample-and-hold noise aligned to
the same grid make this exact up to the node spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convex_sets import ConvexSet
from .environment import Environment, EvaluatorError

VIABILITY_TOL = 1e-6
KKT_TOL = 1e-8
INNER_ITER = 100
MEMORY = 10  # nonmonotone Armijo window
MIN_STEP = 1e-16  # a row whose line search shrinks below this stops


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


def _gradient_map(project, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.max(np.abs(project(x - g) - x), axis=-1)


def _spg(fun, project, x: np.ndarray, budget: int, tol: float):
    """Nonmonotone spectral projected gradient on each row of x (B, n).

    ``fun(x)`` returns per-row values, gradients and one more per-row output.
    Each row searches along d = P(x - step g) - x, its step starting at
    1 / max|P(x - g) - x| and then the Barzilai-Borwein s.s / s.y whenever
    s.y > 0.  It accepts x + frac d once the value is at most the largest of
    its last ``MEMORY`` values plus 1e-4 frac g.d, else moves frac to the
    minimizer of the quadratic through both values and the slope, within
    [0.01, 0.5] frac.  A row stops, holding its point, at stationarity
    (max|P(x - g) - x| <= tol) or once frac < ``MIN_STEP``.  Each call of
    ``fun`` covers every row and counts as one of at most ``budget``
    evaluations, so a row follows the same sequence as alone.  Returns the
    points, values, gradients, extra outputs, the rows still running and the
    evaluations made.
    """
    x = np.array(x, dtype=float)
    val, grad, aux = (np.array(a, dtype=float) for a in fun(x))
    evals, gmap = 1, _gradient_map(project, x, grad)
    running = gmap > tol
    step = np.clip(1.0 / np.where(running, gmap, 1.0), 1e-10, 1e10)
    recent = np.repeat(val[:, None], MEMORY, axis=1)
    frac = np.ones(x.shape[0])
    d = project(x - step[:, None] * grad) - x
    slope = (grad * d).sum(axis=1)
    while evals < budget and running.any():
        trial = x + (frac * running)[:, None] * d  # a stopped row evaluates its own point
        val_n, grad_n, aux_n = fun(trial)
        evals += 1
        ok = running & (val_n - recent.max(axis=1) <= 1e-4 * frac * slope)
        curv = val_n - val - frac * slope  # frac^2 times the curvature of the quadratic through them
        shrink = -frac * frac * slope / (2.0 * np.where(curv > 0.0, curv, 1.0))
        shrink = np.where(curv > 0.0, np.clip(shrink, 0.01 * frac, 0.5 * frac), 0.5 * frac)
        frac = np.where(running & ~ok, shrink, frac)
        running &= frac >= MIN_STEP
        a = np.flatnonzero(ok)  # only accepted rows change below
        xa, ga = trial[a], grad_n[a]
        s, y = xa - x[a], ga - grad[a]
        sy = (s * y).sum(axis=1)
        bb = np.clip((s * s).sum(axis=1) / np.where(sy > 0.0, sy, 1.0), 1e-10, 1e10)
        step[a] = sa = np.where(sy > 0.0, bb, step[a])
        x[a], val[a], grad[a], aux[a] = xa, val_n[a], ga, aux_n[a]
        recent[a] = np.concatenate([recent[a, 1:], val_n[a, None]], axis=1)
        running[a] = ~(_gradient_map(project, xa, ga) <= tol)
        frac[a] = 1.0
        d[a] = da = project(xa - sa[:, None] * ga) - xa
        slope[a] = (ga * da).sum(axis=1)
    return x, val, grad, aux, running, evals


def _multipliers(evaluate, project, z: np.ndarray, mu: np.ndarray, max_iter: int):
    """Method of multipliers for min F(z) subject to c(z) <= 0 (K, m).

    ``evaluate(z)`` returns F(z), c(z) and ``pull(lam)``, the gradient of F +
    sum lam c at z, so one grid call serves each evaluation.  The augmented
    Lagrangian ``F + (|lam|^2 - |mu|^2) / (2 rho)``, with ``lam = max(0, mu +
    rho c)``, is minimized by :func:`_spg` runs of at most ``INNER_ITER``
    evaluations, ``max_iter`` in all.  After each, ``mu <- lam`` and the loop
    yields ``(z, grad, c, mu, rho, evaluations)`` until the caller leaves it;
    ``rho`` then grows tenfold unless the violation fell tenfold or is at most
    ``VIABILITY_TOL`` (one at rounding level stops falling).
    """
    rho, it, viol_prev = 1.0, 0, np.inf

    def lagrangian(Z):
        value, c, pull = evaluate(Z[0])
        lam = np.maximum(0.0, mu + rho * c)
        value += (np.sum(lam * lam) - np.sum(mu * mu)) / (2.0 * rho)
        return np.array([value]), pull(lam)[None], c[None]

    while it < max_iter:
        Z, _, grad, c, _, used = _spg(lagrangian, project, z[None], min(INNER_ITER, max_iter - it), KKT_TOL)
        z, grad, c, it = Z[0], grad[0], c[0], it + used
        mu = np.maximum(0.0, mu + rho * c)
        yield z, grad, c, mu, rho, it
        viol = float(np.max(c, initial=0.0))
        if viol > VIABILITY_TOL and viol > 0.1 * viol_prev:
            rho *= 10.0
        viol_prev = viol


def check_viability(
    env: Environment,
    grid: TimeGrid,
    X: ConvexSet,
    max_iter: int = 200_000,
    interior_target: float = np.inf,
    x_init: Optional[np.ndarray] = None,
) -> ViabilityResult:
    """Search for a fixed action with nonpositive constraints at every node.

    Minimizes the residual ``max_{k,i} f_i(t_k, x)`` as phase 1 of the method
    of multipliers, min s over X x R subject to f_i(t_k, x) <= s, from the
    projected ``x_init`` (or zero) and s = its residual.  Each Lagrangian
    evaluation is one ``batch_evaluate``: its f gives the constraints, its
    pullback with zero weights the x-gradient, and dL/ds = 1 - sum lam.
    ``batch_constraints`` gives the residual of the start and of each outer
    iteration.  It stops at ``-interior_target`` (a start already there is
    returned with 0 iterations), after ``max_iter`` Lagrangian evaluations
    (``iterations`` counts them), or once an outer iteration lowers the best
    residual by less than ``VIABILITY_TOL``, and returns the best point.
    Viable means that residual is at most ``VIABILITY_TOL``; not viable means
    only that the search ended above it, not that no viable action exists.
    """
    ts, n = grid.nodes(), X.dim
    x = X.project_point(np.zeros(n) if x_init is None else np.asarray(x_init, float))
    if env.m == 0:
        return ViabilityResult(True, X.project_point(np.zeros(n)), float("-inf"), 0)
    f = env.batch_constraints(ts, x)
    best, best_x, it = float(np.max(f)), x, 0
    if best <= -interior_target:
        return ViabilityResult(bool(best <= VIABILITY_TOL), best_x, best, it)
    no_weight = np.zeros(ts.shape[0])

    def evaluate(z):
        _, f, pull = env.batch_evaluate(ts, z[:n])
        return z[n], f - z[n], lambda lam: np.append(pull(no_weight, lam), 1.0 - np.sum(lam))

    def project(Z):
        return np.concatenate([X.project_point(Z[:, :n]), Z[:, n:]], axis=1)

    for z, _, _, _, _, it in _multipliers(evaluate, project, np.append(x, best), np.zeros_like(f),
                                          max_iter):
        residual, previous = float(np.max(env.batch_constraints(ts, z[:n]))), best
        if residual < best:
            best, best_x = residual, z[:n].copy()
        if best <= -interior_target or previous - best < VIABILITY_TOL:
            break
    return ViabilityResult(bool(best <= VIABILITY_TOL), best_x, best, it)


def solve_offline(
    env: Environment,
    grid: TimeGrid,
    X: ConvexSet,
    viability: Optional[ViabilityResult] = None,
    max_iter: int = 4000,
) -> OfflineSolution:
    """Optimal fixed action on the grid: min sum_k w_k f0(t_k, x) subject to
    f_i(t_k, x) <= 0 at every node.

    :func:`_multipliers` from the viability point x-dagger, with one
    ``batch_evaluate`` call per Lagrangian evaluation, ``max_iter`` of them in
    all.  The loop ends early once violation, stationarity and complementarity
    clear their tolerances, which ``converged`` reports; ``penalty`` is the
    last ``rho``.  A last iterate violating by v > 0 (one ``batch_constraints``
    call) is blended once toward x-dagger with ``theta = v / (v + margin)``
    (feasible by convexity), and the cheaper of that point and x-dagger wins;
    its grid call gives the cost and the certificate.  Non-convergence is
    reported, not raised.
    """
    if not env.has_objective:
        raise ValueError("offline solve requires an environment with an objective")
    if viability is None:
        viability = check_viability(env, grid, X)
    if not viability.viable:
        raise InfeasibleEnvironmentError(f"viability residual {viability.residual:.3e} exceeds "
                                         f"{VIABILITY_TOL:.0e}; run check_viability and redraw the scenario")
    ts, w, xd = grid.nodes(), grid.trapezoid_weights(), viability.xdagger

    def evaluate(x):
        f0s, f, pull = env.batch_evaluate(ts, x)
        return float(w @ f0s), f, lambda lam: pull(w, lam)

    def certificate(x, grad, f, mu):  # grad of the Lagrangian at the multipliers mu
        c = {"kkt_stationarity": float(_gradient_map(X.project_point, x, grad)),
             "complementarity": abs(float(np.sum(mu * f))), "violation": float(np.max(f, initial=-np.inf))}
        c["converged"] = (c["violation"] <= VIABILITY_TOL
                          and max(c["kkt_stationarity"], c["complementarity"]) <= KKT_TOL)
        return c

    x, mu, rho, it = np.array(xd, dtype=float), np.zeros((ts.shape[0], env.m)), 1.0, 0
    for x, grad, f, mu, rho, it in _multipliers(evaluate, X.project_point, x, mu, max_iter):
        if certificate(x, grad, f, mu)["converged"]:
            break

    viol = float(np.max(env.batch_constraints(ts, x), initial=-np.inf))
    margin = -viability.residual
    if viol > 0.0:
        theta = viol / (viol + margin) if margin > 0.0 else 1.0
        x = (1.0 - theta) * x + theta * xd
    at_x, at_xd = env.batch_evaluate(ts, x), env.batch_evaluate(ts, xd)
    xstar, (f0s, fs, pull) = ((x, at_x) if w @ at_x[0] <= w @ at_xd[0]
                              else (np.array(xd, dtype=float), at_xd))
    diagnostics = {"iterations": it, **certificate(xstar, pull(w, mu), fs, mu), "penalty": rho}
    cum = np.concatenate([[0.0], np.cumsum(0.5 * grid.h * (f0s[:-1] + f0s[1:]))])
    return OfflineSolution(xstar=xstar, offline_cost=float(w @ f0s), xdagger=xd,
                           viability_residual=viability.residual, K=estimate_K(env, grid, X, xstar),
                           grid=grid, cost_cumulative=cum, diagnostics=diagnostics)


def estimate_K(
    env: Environment,
    grid: TimeGrid,
    X: ConvexSet,
    xstar: np.ndarray,
    tol: float = 1e-7,
    max_iter: int = 2000,
) -> float:
    """Uniform bound on f0(t, x*) minus the pointwise minimum of f0(t, .) over X.

    One :func:`_spg` run from the projection of zero, a row per node, with
    gradient-map tolerance ``tol`` and ``max_iter`` evaluations; returns the
    largest gap, clamped below at zero.  A node still running at the budget
    with a gradient map above 1e-4 raises :class:`InnerSolveError`.
    """
    ts = grid.nodes()
    ones, no_mu = np.ones(ts.shape[0]), np.zeros((ts.shape[0], env.m))

    def objective(xs):  # one action per node
        f0, _, pull = env.batch_evaluate(ts, xs)
        return f0, pull(ones, no_mu), f0

    f_star = env.batch_evaluate(ts, np.asarray(xstar, dtype=float))[0]
    x0 = X.project_point(np.zeros((ts.shape[0], X.dim)))
    x, f_x, g, _, running, _ = _spg(objective, X.project_point, x0, max_iter, tol)
    gmap = np.where(running, _gradient_map(X.project_point, x, g), 0.0)
    k = int(np.argmax(gmap > 1e-4))
    if gmap[k] > 1e-4:
        raise InnerSolveError(f"inner minimization stalled at node t={ts[k]:.6g} "
                              f"(gradient map {gmap[k]:.3e})")
    gap = f_star - f_x
    if not np.isfinite(gap).all():
        raise EvaluatorError(f"non-finite objective at node t={ts[np.isfinite(gap).argmin()]:.6g}")
    return max(0.0, float(np.max(gap)))
