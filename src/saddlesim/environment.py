"""Time-varying cost and constraint evaluators.

An :class:`Environment` bundles, for an action dimension ``n`` and constraint
count ``m``, evaluators producing at ``(t, x)``:

* ``f0(t, x)``   scalar objective value (0 when there is no objective),
* ``g0(t, x)``   an objective subgradient, shape ``(n,)``,
* ``f(t, x)``    constraint values, shape ``(m,)``,
* ``G(t, x)``    constraint subgradients stacked column-wise, shape ``(n, m)``.

Environments are closures over immutable scenario data; evaluation is
deterministic, and thread-safe except that one per-node evaluator (below)
writes its own buffers, so it serves one thread at a time.  Every constraint and the objective must be
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
  ``ts`` (R, K), and returns ``raw(k, X, out)``: the evaluation of each row at
  ``(ts[r, k], X[r])`` for actions X (R, n), doing only the x-dependent
  algebra.  It writes f and then f0 into ``out`` (R, m + 1) and returns g0
  (R, n) and G (R, n, m), unchecked, as views of one node buffer of its own
  (R, n + n m), their ``base``, in a layout the environment chooses, which
  its next call overwrites.  The integrator writes ``out`` into its block
  array [pre | f | f0] of each node, so that the raw field
  [-eps (g0 + G lam) | eps f] of the saddle step is one multiply of
  [pre | f], pre = g0 + G lam, by a signed gain row.  It checks a block of
  outputs with :func:`require_finite` (one ``np.isfinite`` of the node buffer
  per node); other callers use
  :meth:`Environment.grid_evaluator`, which returns copies (one node:
  ``eval_full``).
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
from typing import Callable

import numpy as np

# Per-node evaluator: (t, x) -> (f0, g0 (n,), f (m,), G (n, m)).
FullEval = Callable[[float, np.ndarray], tuple[float, np.ndarray, np.ndarray, np.ndarray]]
# Time tables: (ts (R, K), rows (R,)) -> raw(k, X, out), the unchecked
# evaluation of environment row rows[r] at (ts[r, k], X[r]) for every r: it
# writes f and then f0 into out (R, m + 1) and returns g0 (R, n) and G (R, n, m),
# views of one node buffer (R, n + n m), their base, in a layout the
# environment chooses, valid until its next call.
OnGrid = Callable[[np.ndarray, np.ndarray], Callable[[int, np.ndarray, np.ndarray], tuple]]
# Vectorized constraint evaluator: (ts (K,), x) -> values (K, m).
BatchConstraints = Callable[[np.ndarray, np.ndarray], np.ndarray]
# Grid Lagrangian: (ts (K,), x) -> (f0 (K,), f (K, m), pull), with pull(w (K,),
# mu (K, m)) = sum_k w_k g0(t_k, x) + G(t_k, x) mu_k.  In both batch evaluators
# x is one action (n,), or one per node (K, n), and then pull's row k is term k.
BatchEval = Callable[[np.ndarray, np.ndarray], tuple]


class EvaluatorError(RuntimeError):
    """Non-finite evaluator output, reported with its location."""


def saturation_level(delta: float) -> float:
    """``delta`` as a float, the level a saturated environment floors its
    constraints at; a ValueError unless it is positive and finite."""
    if not 0.0 < delta < np.inf:
        raise ValueError("saturation level delta must be positive and finite")
    return float(delta)


def require_finite(ts: np.ndarray, X: np.ndarray, *finite: np.ndarray) -> None:
    """The finiteness guard: raise :class:`EvaluatorError` at the first
    evaluation, in C order of the axes (any number) of their times ``ts``, with
    a non-finite output.  ``X`` (..., n) holds the actions, and ``finite`` the
    ``np.isfinite`` masks of the outputs f0, g0, f and G (in any grouping),
    the axes of ts first.  Outputs that are all finite, nearly always, are
    found so by one ``all()`` per mask; only others are searched."""
    if all(ok.all() for ok in finite):
        return
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
        and returns f0 (R,), g0 (R, n), f (R, m) and G (R, n, m), arrays of
        its own that later calls leave as they are.  Nodes ts (K,) are the
        one-row case of row 0: ``at(k, x)`` takes one action x (n,) and
        returns f0 as a float and g0, f, G without the row axis.
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
            out = np.empty((shape[0], self.m + 1))
            g0, G = raw(k, X, out)
            f, f0 = out[:, :-1], out[:, -1]
            require_finite(ts[:, k], X, *map(np.isfinite, (f0, g0, f, G)))
            g0, G = g0.copy(order="K"), G.copy(order="K")  # in the evaluator's order
            if one:
                return float(f0[0]), g0[0], f[0], G[0]
            return f0, g0, f, G

        return at

    def saturate(self, delta: float) -> "Environment":
        """Environment with constraints floored at -delta.

        Constraint values become ``max(f_i, -delta)``.  Subgradients keep the
        active branch: the original column where ``f_i >= -delta`` (including
        the tie, which keeps the controller responsive at the kink), zero
        where ``f_i < -delta``; the grid Lagrangian zeroes ``mu`` there.  The
        objective is untouched.  Every row is floored alike.
        """
        delta = saturation_level(delta)
        base_grid, batch_con, batch_full = self.on_grid, self.batch_constraints, self.batch_evaluate

        def floor(f):
            return np.maximum(f, -delta)

        def sat_on_grid(ts: np.ndarray, rows: np.ndarray):
            raw = base_grid(ts, rows)
            # The inactive columns ~(f >= -delta) (NaN among them), formed in
            # a buffer of the block, and the ufuncs, bound once.
            inactive = np.empty((len(rows), 1, self.m), dtype=bool)
            flat = inactive[:, 0]
            greater_equal, logical_not, copyto, maximum = (
                np.greater_equal, np.logical_not, np.copyto, np.maximum)

            def sat_raw(k: int, X: np.ndarray, out: np.ndarray):
                g0, G = raw(k, X, out)
                f = out[:, :-1]
                logical_not(greater_equal(f, -delta, flat), flat)
                copyto(G, 0.0, where=inactive)
                maximum(f, -delta, out=f)
                return g0, G

            return sat_raw

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
        J = np.empty((1, n + n * m))
        # G's part of J in C and in Fortran order: G goes in the order of the
        # evaluator's array, so that the integrator's G lam runs the BLAS
        # kernel it would run on that array (their last bits can differ).
        g0, G_c = J[:, :n], J[:, n:].reshape(1, n, m)
        G_f = J[:, n:].reshape(1, m, n).transpose(0, 2, 1)

        def raw(k: int, X: np.ndarray, out: np.ndarray):
            out[0, m], g0[0], out[0, :m], Gk = evaluate(tl[k], X[0])
            G = G_f if np.isfortran(Gk) else G_c
            G[0] = Gk
            return g0, G

        return raw

    def batch_evaluate(ts: np.ndarray, x: np.ndarray):
        ts = np.asarray(ts, dtype=float)
        K = ts.shape[0]
        xs = np.broadcast_to(np.asarray(x, dtype=float), (K, n))
        raw = on_grid(ts[None], np.arange(1))
        V, g0, G = np.empty((K, m + 1)), np.empty((K, n)), np.empty((K, n, m))
        for k in range(K):
            g0[k:k + 1], G[k:k + 1] = raw(k, xs[k:k + 1], V[k:k + 1])
        f0, f = V[:, m].copy(), V[:, :m].copy()  # C-contiguous, as the solvers read them
        require_finite(ts, xs, *map(np.isfinite, (f0, g0, f, G)))

        def pull(w: np.ndarray, mu: np.ndarray) -> np.ndarray:
            # A matmul over the stack of nodes runs the kernel of each node's 1-D G @ mu.
            grads = w[:, None] * g0 + (G @ mu[:, :, None])[..., 0]
            return grads if x.ndim == 2 else grads.sum(axis=0)

        return f0, f, pull

    return Environment(n=n, m=m, on_grid=on_grid,
                       batch_constraints=lambda ts, x: batch_evaluate(ts, x)[1],
                       batch_evaluate=batch_evaluate, has_objective=has_objective)
