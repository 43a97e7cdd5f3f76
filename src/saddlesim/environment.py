"""Time-varying cost and constraint evaluators.

An :class:`Environment` bundles, for an action dimension ``n`` and constraint
count ``m``, evaluators producing at ``(t, x)``:

* ``f0(t, x)``   scalar objective value (0 when there is no objective),
* ``g0(t, x)``   an objective subgradient, shape ``(n,)``,
* ``f(t, x)``    constraint values, shape ``(m,)``,
* ``G(t, x)``    constraint subgradients stacked column-wise, shape ``(n, m)``.

Environments are closures over immutable scenario data; evaluation is pure,
deterministic, and thread-safe.  Every constraint and the objective must be
convex in ``x`` and integrable in ``t`` (sample-and-hold discontinuities are
fine, the integrator step resolves them).

Rows.  An environment has ``n_rows`` rows, independent problems of the same
shape (one scenario each, for instance one horizon of a sweep), so that an
integrator can run one trajectory per row as rows of one array.  Most
environments have one row.

Grid protocol.  Every environment answers the same three calls, and the
caller owns the nodes and how many it asks for at once:

* ``on_grid(ts, rows)`` builds what depends on ``t`` alone once for all nodes
  of the environment rows ``rows`` (R,), row r at its own nodes ``ts[r]`` of
  ``ts`` (R, K), and returns ``raw(k, X)``: the evaluation of each row at
  ``(ts[r, k], X[r])`` for actions X (R, n), doing only the x-dependent
  algebra.  It returns f0 (R,), g0 (R, n), f (R, m) and G (R, n, m)
  unchecked: the integrator checks a block of them with :func:`require_finite`,
  other callers use :meth:`Environment.grid_evaluator` (one node: ``eval_full``).
* ``batch_evaluate(ts, x)``, the grid Lagrangian, serves solvers that need
  all nodes (K,) of a one-row environment at once.  One call returns f0 (K,),
  f (K, m) and ``pull(w, mu)``, the gradient of ``sum_k w_k f0_k + mu_k . f_k``
  at x.  ``batch_constraints(ts, x)`` is its f alone.

An environment may keep the tables of the last node set it was asked for, and
must build new ones for any other node set.  :func:`pointwise` builds all
three calls from a per-node ``(t, x) -> (f0, g0, f, G)``, with one row: its
batch calls evaluate every node raw and carry the same guard.  The shepherd
environment instead keeps one table per scenario for both kinds of caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

# Per-node evaluator: (t, x) -> (f0, g0 (n,), f (m,), G (n, m)).
FullEval = Callable[[float, np.ndarray], tuple[float, np.ndarray, np.ndarray, np.ndarray]]
# Time tables: (ts (R, K), rows (R,)) -> raw(k, X), the unchecked evaluation
# of environment row rows[r] at (ts[r, k], X[r]) for every r.
OnGrid = Callable[[np.ndarray, np.ndarray], Callable[[int, np.ndarray], tuple]]
# Vectorized constraint evaluator: (ts (K,), x) -> values (K, m).
BatchConstraints = Callable[[np.ndarray, np.ndarray], np.ndarray]
# Grid Lagrangian: (ts (K,), x) -> (f0 (K,), f (K, m), pull), with pull(w (K,),
# mu (K, m)) = sum_k w_k g0(t_k, x) + G(t_k, x) mu_k.  In both batch evaluators
# x is one action (n,), or one per node (K, n), and then pull's row k is term k.
BatchEval = Callable[[np.ndarray, np.ndarray], tuple]


class EvaluatorError(RuntimeError):
    """Non-finite evaluator output, reported with its location."""


def require_finite(ts: np.ndarray, X: np.ndarray, *finite: np.ndarray) -> None:
    """The finiteness guard: raise :class:`EvaluatorError` at the first
    evaluation, in C order of the axes (any number) of their times ``ts``, with
    a non-finite output.  ``X`` (..., n) holds the actions, and ``finite`` the
    ``np.isfinite`` masks of the outputs f0, g0, f and G, the axes of ts first."""
    bad = ~np.all([ok.all(axis=tuple(range(ts.ndim, ok.ndim))) for ok in finite], axis=0)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise EvaluatorError(f"non-finite evaluator output at t={float(ts[i])!r}, x={X[i]!r}")


@dataclass(frozen=True)
class Environment:
    n: int
    m: int
    on_grid: OnGrid = field(repr=False)
    batch_constraints: BatchConstraints = field(repr=False)
    batch_evaluate: BatchEval = field(repr=False)
    has_objective: bool = True
    n_rows: int = 1

    def eval_full(self, t: float, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        return self.grid_evaluator([t])(0, x)

    def grid_evaluator(self, ts: np.ndarray) -> Callable[[int, np.ndarray], tuple]:
        """Checked evaluator over the nodes ``ts`` (R, K) of the first R
        environment rows, for callers that evaluate node by node: the raw
        evaluator of ``on_grid`` behind a shape check and :func:`require_finite`.

        ``at(k, X)`` evaluates row r at (ts[r, k], X[r]) for actions X (R, n)
        and returns f0 (R,), g0 (R, n), f (R, m) and G (R, n, m).  Nodes ts
        (K,) are the one-row case of row 0: ``at(k, x)`` takes one action x
        (n,) and returns f0 as a float and g0, f, G without the row axis.
        """
        ts = np.asarray(ts, dtype=float)
        one = ts.ndim == 1
        if one:
            ts = ts[None]
        raw = self.on_grid(ts, np.arange(ts.shape[0]))
        shape = (ts.shape[0], self.n)
        want = shape[1:] if one else shape

        def at(k: int, X: np.ndarray) -> tuple:
            X = np.asarray(X, dtype=float)
            if X.shape != want:
                raise ValueError(f"expected action{'' if one else 's'} of shape {want}, got {X.shape}")
            X = X.reshape(shape)
            f0, g0, f, G = out = raw(k, X)
            require_finite(ts[:, k], X, *map(np.isfinite, out))
            if one:
                return float(f0[0]), g0[0], f[0], G[0]
            return out

        return at

    def saturate(self, delta: float) -> "Environment":
        """Environment with constraints floored at -delta.

        Constraint values become ``max(f_i, -delta)``.  Subgradients keep the
        active branch: the original column where ``f_i >= -delta`` (including
        the tie, which keeps the controller responsive at the kink), zero
        where ``f_i < -delta``; the grid Lagrangian zeroes ``mu`` there.  The
        objective is untouched.  Every row is floored alike.
        """
        if delta <= 0.0:
            raise ValueError("saturation level delta must be positive")
        delta = float(delta)
        base_grid, batch_con, batch_full = self.on_grid, self.batch_constraints, self.batch_evaluate

        def floor(f):
            return np.maximum(f, -delta)

        def clip(f0, g0, f, G):
            return f0, g0, floor(f), np.where((f >= -delta)[..., None, :], G, 0.0)

        def sat_on_grid(ts: np.ndarray, rows: np.ndarray):
            at = base_grid(ts, rows)
            return lambda k, X: clip(*at(k, X))

        def sat_batch_con(ts: np.ndarray, x: np.ndarray) -> np.ndarray:
            return floor(batch_con(ts, x))

        def sat_batch_full(ts: np.ndarray, x: np.ndarray):
            f0, f, pull = batch_full(ts, x)
            active = f >= -delta
            return f0, floor(f), lambda w, mu: pull(w, np.where(active, mu, 0.0))

        return replace(self, on_grid=sat_on_grid, batch_constraints=sat_batch_con,
                       batch_evaluate=sat_batch_full)


def pointwise(n: int, m: int, evaluate: FullEval, has_objective: bool = True) -> Environment:
    """One-row environment from a per-node evaluator ``evaluate(t, x) -> (f0, g0, f, G)``.

    ``on_grid`` calls it once per node.  The grid Lagrangian evaluates every
    node that way and checks them all with one :func:`require_finite` call, so
    a non-finite output raises :class:`EvaluatorError` with its node time there
    too.  The integrator checks a block at its end; if ``evaluate`` raises
    (at a NaN action, say), it raises the first error that check meets in
    the nodes before, or else ``evaluate``'s exception.
    """

    def on_grid(ts: np.ndarray, rows: np.ndarray):
        tl = ts[0].tolist()

        def raw(k: int, X: np.ndarray):
            # The outputs as one-row arrays.  A list of one Python float
            # builds a float64 array without numpy's dtype argument handling.
            f0, g0, f, G = evaluate(tl[k], X[0])
            return np.array([float(f0)]), g0[None], f[None], G[None]

        return raw

    def batch_evaluate(ts: np.ndarray, x: np.ndarray):
        ts = np.asarray(ts, dtype=float)
        xs = np.broadcast_to(np.asarray(x, dtype=float), (ts.shape[0], n))
        raw = on_grid(ts[None], np.arange(1))
        f0, g0, f, G = map(np.concatenate, zip(*(raw(k, xs[k:k + 1]) for k in range(ts.shape[0]))))
        require_finite(ts, xs, *map(np.isfinite, (f0, g0, f, G)))

        def pull(w: np.ndarray, mu: np.ndarray) -> np.ndarray:
            # A matmul over the stack of nodes runs the kernel of each node's 1-D G @ mu.
            grads = w[:, None] * g0 + (G @ mu[:, :, None])[..., 0]
            return grads if x.ndim == 2 else grads.sum(axis=0)

        return f0, f, pull

    return Environment(n=n, m=m, on_grid=on_grid,
                       batch_constraints=lambda ts, x: batch_evaluate(ts, x)[1],
                       batch_evaluate=batch_evaluate, has_objective=has_objective)


def from_functions(
    n: int,
    m: int,
    f0: Optional[Callable[[float, np.ndarray], float]] = None,
    g0: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
    f: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
    G: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
) -> Environment:
    """Assemble an Environment from separate callables (test/fixture helper)."""
    has_objective = f0 is not None
    if has_objective and g0 is None:
        raise ValueError("objective supplied without its subgradient")
    if (f is None) != (G is None):
        raise ValueError("constraints and their subgradients must come together")
    if f is None and m != 0:
        raise ValueError("m > 0 but no constraint evaluator supplied")

    zero_g0 = np.zeros(n)
    zero_f = np.zeros(m)
    zero_G = np.zeros((n, m))

    def evaluate(t: float, x: np.ndarray):
        v0 = float(f0(t, x)) if f0 is not None else 0.0
        gv = np.asarray(g0(t, x), dtype=float) if g0 is not None else zero_g0
        fv = np.asarray(f(t, x), dtype=float) if f is not None else zero_f
        Gv = np.asarray(G(t, x), dtype=float) if G is not None else zero_G
        return v0, gv, fv, Gv

    return pointwise(n, m, evaluate, has_objective)


def finite_diff_check(env: Environment, t: float, x: np.ndarray, h_fd: float) -> float:
    """Max relative error between analytic subgradients and central differences.

    Only meaningful where the evaluator is differentiable at (t, x); callers
    sample random smooth points.  Relative error is measured against
    ``max(1, |finite difference|)`` componentwise.
    """
    x = np.asarray(x, dtype=float)
    at = env.grid_evaluator([t])
    _, g0, _, G = at(0, x)
    n, m = env.n, env.m
    fd_g0 = np.zeros(n)
    fd_G = np.zeros((n, m))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h_fd
        f0p, _, fp, _ = at(0, x + e)
        f0m, _, fm, _ = at(0, x - e)
        fd_g0[i] = (f0p - f0m) / (2.0 * h_fd)
        fd_G[i, :] = (fp - fm) / (2.0 * h_fd)
    err = 0.0
    if env.has_objective:
        err = float(np.max(np.abs(g0 - fd_g0) / np.maximum(1.0, np.abs(fd_g0))))
    if m > 0:
        err = max(err, float(np.max(np.abs(G - fd_G) / np.maximum(1.0, np.abs(fd_G)))))
    return err
