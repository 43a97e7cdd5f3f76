"""Online controllers and the time integrator.

Three controller modes over a horizon [0, T]:

* ``gradient``     action descent on the objective only (no multipliers),
* ``feasibility``  multiplier-weighted constraint descent, objective ignored,
* ``saddle``       full primal descent / dual ascent on the running Lagrangian
                   ``f0 + lambda . f``.

The controllers are one projected dynamical system on the state set
S = X x R+^m of joined rows z = [x | lam] (:class:`~.convex_sets.StateSet`):
the field is projected onto the tangent cone of S.  The discretization is the
projected step ``Pi_S(z + h u)`` along the raw field u, whose h -> 0 limit is
the tangent-cone field; on a box or an orthant it is bit for bit the step
along that field from a state whose blocked coordinates sit on their faces.

One loop, :func:`simulate_rows`, integrates every row of an environment at
once as the rows of one (B, n + m) state array, each row over its own horizon;
a run of one scenario, :func:`simulate`, is its one-row case.  Per-step work
is mostly call overhead on arrays of a few dozen entries, so B rows cost
little more per step than one.  A row that fails retires with its error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .convex_sets import ConvexSet, StateSet
from .environment import Environment, EvaluatorError, require_finite

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
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("controller gain epsilon must be positive and finite")
        if not 0.0 < self.h < np.inf:
            raise ValueError("integrator step h must be positive and finite")
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
    """Run the configured controller over [0, T] and log the trajectory: the
    one-row case of :func:`simulate_rows`, raising its one row's error."""
    log, = simulate_rows(env, config, [T], X, x0, sample_stride)
    if isinstance(log, Exception):
        raise log
    return log


def check_run(T: Sequence[float], sample_stride: int) -> list[float]:
    """The horizons ``T`` as floats; a ValueError unless each is positive and
    finite and the stride is at least 1."""
    Ts = [float(t) for t in T]
    if not all(0.0 < t < np.inf for t in Ts):
        raise ValueError("horizon T must be positive and finite")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    return Ts


@np.errstate(all="ignore")
def simulate_rows(
    env: Environment,
    config: ControllerConfig,
    T: Sequence[float],
    X: ConvexSet,
    x0: Optional[np.ndarray] = None,
    sample_stride: int = 10,
) -> list[TrajectoryLog | DivergenceError | EvaluatorError]:
    """Run the configured controller on every row of ``env``, row b over
    [0, T[b]], as rows of one array, and log each row's trajectory.

    Row b is bit for bit the run of its environment row alone.  It has its
    own step count N_b = ``round(T[b] / h)`` and effective step
    ``h_b = T[b] / N_b``, adjusted to land exactly on T[b].  The actions
    start at ``x0`` (default: the origin; one action for all rows or one per
    row) projected onto X, the multipliers at zero in the nonnegative orthant.
    At each node the loop evaluates every running row at once, read from the
    time tables of the rows' current block of at most ``GRID_BLOCK`` nodes
    by ``raw(k, X, out)``: f and then f0 go into the node's row of the block
    array [pre | f | f0], and g0 and G, views of one node buffer of the
    evaluator in a layout of its choosing, hold until the next call.  Then
    it steps the joined state z = [x | lam] in place, by the set's own
    ``row_projector``, bound once per call, to ``Pi_S(z + h u)`` on
    S = X x R+^m (X in gradient mode: no multipliers) along the raw field
    u = [v | w], ``v = -eps (g0 + G lam)`` (``-eps g0`` in gradient mode,
    ``-eps G lam`` in feasibility mode) and ``w = eps f``.  The matmul writes
    ``G lam`` into the node's ``pre``, saddle mode adds g0 there, and u is
    one multiply of [pre | f] by the signed gain row [-eps ... | +eps ...]
    (gradient mode multiplies g0 alone).  Every ``G lam`` is a matmul over
    the stack of rows; it runs the kernel of the 1-D ``@`` on each row, so it
    reproduces it bit for bit (an ``einsum`` adds in another order).  A step
    allocates no array.

    Each row keeps its own accumulators (fit, cost; trapezoid rule every
    step), multiplier maximum and field norm, and stores every
    ``sample_stride``-th node plus its last one.  A block's steps run
    unchecked and silently (a NaN or a huge state runs on to the block's end),
    keeping their raw fields, states, f and f0, and one ``np.isfinite`` of
    the node buffer per node in block arrays.
    At the block's end one test over the whole block clears it; only a block
    that fails it is searched, by one pass per row, for the first error that
    a check after every step would have met, a state past ``DIVERGENCE_LIMIT``
    (:class:`DivergenceError` with the row's time) and then a non-finite
    output (``EvaluatorError`` with its time and action); the row then retires
    with it in its place in the returned list.  One ``project_field`` call per
    factor of S (none for the multipliers in gradient mode) takes the
    tangent-cone fields of the rows that passed for the field-norm maximum
    (of the action and multiplier fields) and raises
    ``MembershipError`` at the first state stepped from outside its set, the
    actions before the multipliers: a broken projection stops the call.  So
    does an evaluator that raises, with the first error that the block's
    check meets in the nodes and the step before it (over all rows, node by
    node), or else with its own exception.  A row retires at its last node
    N_b: blocks end at the next row's last node, and the rows left go on with
    fresh tables.
    """
    Ts = check_run(T, sample_stride)
    if len(Ts) != env.n_rows:
        raise ValueError(f"{len(Ts)} horizons for an environment of {env.n_rows} rows")
    B, m = len(Ts), env.m
    steps = [max(1, int(round(t / config.h))) for t in Ts]
    h = np.array([t / n for t, n in zip(Ts, steps)])
    eps, mode = config.epsilon, config.mode
    n, m_lam = X.dim, 0 if mode == "gradient" else m
    S = StateSet(X, m_lam) if m_lam else X  # X alone when there are no multipliers

    # The state of the rows still running, in the order of ``rows``, their
    # environment rows; ``ends`` holds their last nodes and hcol their steps.
    rows, ends, hcol = np.arange(B), np.array(steps), h[:, None]
    x = X.project_point(np.broadcast_to(np.zeros(n) if x0 is None else x0, (B, n)))
    if n != env.n:
        raise ValueError(f"expected actions of shape {(B, env.n)}, got {x.shape}")
    z = np.concatenate([x, np.zeros((B, m_lam))], axis=1)  # the multipliers start at 0
    # The mode, decided once: multipliers move unless in gradient mode, and
    # the action field carries the objective unless in feasibility mode.
    dual, saddle = mode != "gradient", mode == "saddle"
    # What a step calls, bound once: numpy's ufuncs (out passed by position)
    # and the in-place projector onto S, whose width is checked here.
    matmul, multiply, add, isfinite = np.matmul, np.multiply, np.add, np.isfinite
    project = S.row_projector(z)
    # The signed gain row: gain [pre | f] is the raw field u = [v | w] in one
    # multiply, -eps over the actions and +eps over the multipliers.
    gain = np.concatenate([np.full(n, -eps), np.full(m_lam, eps)])
    # Trapezoid sums of f and f0 (fit, cost) up to the last node taken in,
    # and f and f0 at that node.
    sums, prev = np.zeros((B, m + 1)), np.zeros((B, m + 1))
    # The largest squared field norm: sqrt is monotone and correctly rounded,
    # so its root is the largest norm.
    lam_max, max_sq = z[:, n:].copy(), np.zeros(B)
    logs: list = [None] * B
    parts: list = [[] for _ in range(B)]  # per row: its stored nodes, one chunk per block

    i = 0
    while rows.size:
        first, last = i, min(i + GRID_BLOCK - 1, int(ends.min()))
        shape = (last - first + 1, rows.size)
        # Node k at (k - 1) h + h: +0.0 for k = 0, else the float the step to it lands on.
        ts = np.arange(first - 1, last) * hcol + hcol
        raw = env.on_grid(ts, rows)
        # Each row's step and the gain row tiled over the rows' states: numpy
        # runs same-shape products faster than a broadcast column or row.
        hz, gains = np.repeat(hcol, S.dim, axis=1), np.tile(gain, (rows.size, 1))
        # The raw fields [v | w] of the steps into the block's nodes (none into
        # node 0), the states [x | lam] at the node before the block and its
        # nodes, and views of their parts.
        us = np.zeros((*shape, S.dim))
        vs, ws = np.split(us, [n], axis=-1)
        zs = np.empty((shape[0] + 1, *z.shape))
        xs, lams = np.split(zs, [n], axis=-1)
        # [pre | f | f0] at the same nodes: raw writes f and f0, and the step
        # from a node forms pre = g0 + G lam (G lam in feasibility mode) there.
        A = np.empty((shape[0] + 1, shape[1], n + m + 1))
        pres, V = A[..., :n], A[..., n:]
        zs[:2], V[0] = z, prev  # node 0 takes no step; a later block's first step overwrites zs[1]
        # Which entries of each node's buffer, the base of g0 and G, are finite.
        J_ok = np.empty((*shape, n + n * m), dtype=bool)
        # Each node's views, bound by iterating the block arrays.
        nodes = zip(zs, lams[..., None], pres[..., None], pres, A[..., :S.dim], us, zs[1:],
                    xs[1:], V[1:], J_ok)
        for j, (zp, lam, pre_col, pre, field, u, z, x, out, node_ok) in enumerate(nodes):
            if j or first:  # the projected Euler step from node j + first - 1, written in place
                if dual:  # u = [-eps pre | eps f]
                    matmul(G, lam, pre_col)
                    if saddle:
                        add(g0, pre, pre)
                    multiply(field, gains, u)
                else:  # u = -eps g0
                    multiply(g0, gains, u)
                multiply(hz, u, z)
                add(zp, z, z)
                project(z)
            try:
                g0, G = raw(j, x, out)
            except Exception:
                # An evaluator that raises stops the call, after the first
                # error of the nodes stepped so far and of the step into node j.
                _check_block(ts, xs[1:j + 2], lams[1:j + 2], V[1:j + 1], J_ok[:j], first)
                raise
            isfinite(g0.base, node_ok)  # g0 and G are views of their base
        errors = [None] * rows.size
        try:  # every row at once: a block that passes is not searched row by row
            _check_block(ts, xs[1:], lams[1:], V[1:], J_ok, first)
        except (DivergenceError, EvaluatorError):
            for r in range(rows.size):  # each row's check on that row alone
                try:
                    _check_block(ts[r:r + 1], xs[1:, r:r + 1], lams[1:, r:r + 1],
                                 V[1:, r:r + 1], J_ok[:, r:r + 1], first)
                except (DivergenceError, EvaluatorError) as err:
                    errors[r] = err
        ok = np.array([e is None for e in errors])
        # The tangent-cone fields at the states the rows that passed stepped
        # from, which also checks that each state is a member of its set: factor
        # by factor, the actions first, as S.project_field goes, but with no
        # joined copy, which would add a block-sized array to the peak memory.
        sel = slice(None) if ok.all() else ok  # a view unless a row failed
        xdots = X.project_field(xs[:-1, sel], vs[:, sel])
        lamdots = S.factors[1].project_field(lams[:-1, sel], ws[:, sel]) if m_lam else ws[:, sel]
        sums, prev = _close_block(V, xs[1:], lams[1:], sums, 0.5 * hcol, first, rows, ends,
                                  sample_stride, parts)
        np.maximum(lam_max, lams.max(axis=0), out=lam_max)
        max_sq[sel] = np.maximum(max_sq[sel], np.maximum(
            np.vecdot(xdots, xdots), np.vecdot(lamdots, lamdots)).max(axis=0))
        # Failed rows retire with their error, and rows at their last node with
        # their log; the others step on from it in the next block.
        for r, b in enumerate(rows.tolist()):
            if errors[r] or ends[r] == last:
                logs[b] = errors[r] or _log(parts[b], config, Ts[b], float(h[b]), lam_max[r],
                                            float(np.sqrt(max_sq[r])))
        # Step on from a copy of the last state (and of f there, in prev): no
        # view of this block's arrays, and not its tables (raw), may keep them
        # alive while the next block builds its own.
        z, keep = zs[-1].copy(), ok & (ends > last)
        raw = nodes = zp = lam = pre_col = pre = field = u = x = out = node_ok = None
        if not keep.all():
            (rows, ends, hcol, z, g0, G, sums, prev, lam_max, max_sq) = (
                a[keep] for a in (rows, ends, hcol, z, g0, G, sums, prev, lam_max, max_sq))
        i = last + 1
    return logs


def _check_block(ts, xs, lams, V, J_ok, first: int) -> None:
    """Raise the first error that a check after every step would have met in
    a block, node by node and row by row: at node j, a step into it (none into
    a run's node 0) that took ``xs[j]`` or ``lams[j]`` past the limit (a row
    holding a NaN is not past it), then a non-finite f and f0 (``V[j]``) or
    node buffer (its ``np.isfinite`` mask ``J_ok``, in any layout after the
    node and row axes).  The outputs may end a node before the states: that
    node's step is checked, not its outputs.

    A block that passes, nearly every one, is found so by one test over each
    whole array (NaN fails it); only a block that fails it is searched node by
    node."""
    if (np.abs(xs).max(initial=0.0) <= DIVERGENCE_LIMIT
            and np.abs(lams).max(initial=0.0) <= DIVERGENCE_LIMIT
            and J_ok.all() and np.isfinite(V).all()):
        return
    over = ((np.abs(xs).max(axis=-1) > DIVERGENCE_LIMIT)
            | (np.abs(lams).max(axis=-1, initial=0.0) > DIVERGENCE_LIMIT))
    over[0] &= first > 0
    j = int(np.argmax(np.append(over.any(axis=1), True)))  # first node past the limit, or len(over)
    require_finite(ts.T[:j], xs[:j], np.isfinite(V[:j]), J_ok[:j])
    if j < len(over):
        r = int(np.argmax(over[j]))
        raise DivergenceError(f"state magnitude exceeded {DIVERGENCE_LIMIT:.0e} at t={ts[r, j]:.6g}; "
                              "reduce the step h or the epsilon*h product")


def _close_block(V, xs, lams, sums, half, first: int, rows, ends, stride: int, parts):
    """Take a block's nodes into the trapezoid sums and store each running
    row's nodes of the block: those on the stride and its last node.

    ``V`` holds [f | f0] at the node before the block and at its nodes,
    ``xs`` and ``lams`` the states at its nodes, and ``half`` each row's half
    step.  Each node adds ``half (v_prev + v)`` to
    the sums in node order (``np.add.accumulate`` adds one term at a time,
    with the rounding of a running sum).  Returns the sums and the values at
    the block's last node.
    """
    terms = half * (V[:-1] + V[1:])
    if first == 0:
        terms[0] = 0.0  # node 0 starts the sums
    acc = np.add.accumulate(np.concatenate([sums[None], terms]), axis=0)[1:]
    I = np.arange(first, first + xs.shape[0])
    for r, b in enumerate(rows.tolist()):
        k = np.flatnonzero((I % stride == 0) | (I == ends[r]))
        parts[b].append((I[k], xs[k, r], lams[k, r], V[k + 1, r, -1], V[k + 1, r, :-1],
                         acc[k, r, :-1], acc[k, r, -1]))
    return acc[-1].copy(), V[-1].copy()


def _log(parts, config: ControllerConfig, T: float, h: float, lam_max: np.ndarray,
         max_field: float) -> TrajectoryLog:
    I, x, lam, f0, f, fit, cost = (np.concatenate(c) for c in zip(*parts))
    return TrajectoryLog(t=I * h, x=x, lam=lam, f=f, f0=f0, fit_accum=fit, cost_accum=cost,
                         config=replace(config, h=h), T=T, h_eff=h, lambda_max=lam_max,
                         max_field_norm=max_field)
