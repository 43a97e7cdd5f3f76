"""Shepherd tracking benchmark.

A planar agent (the shepherd) picks polynomial path coefficients
``x = [x_{1,0..n-1}, x_{2,0..n-1}]`` so that its position
``z_k(t) = sum_j x_{kj} p_j(t)`` stays within radius ``r_i`` of every target
(sheep) at every time.  Sheep follow minimum-acceleration polynomial paths
through random waypoints from (0,0) at t=0 to (1,1) at t=T, perturbed by
frozen sample-and-hold Gaussian noise so the environment is a deterministic,
integrable function shared by the online controller and the offline solver.

Constraints are ``f_i(t,x) = ||z(t) - y_i(t)||^2 - r_i^2``; optional
objectives are the distance to the first sheep (``black_sheep``) or the
acceleration magnitude ``||z''(t)||`` (``min_acceleration``).  Every
evaluator reads one set of time tables (basis rows and sheep positions), and
:func:`sheep_positions` computes the positions with the same operations, so
the per-node, batch and plotted sheep positions are the same numbers.

The default polynomial basis is Legendre shifted to [0, T]: monomials at
basis size 30 make the path QP and the constraint rows catastrophically
ill-conditioned on [0, 1].  Monomials stay available for fidelity runs at
reduced size; everything downstream is basis-agnostic.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .convex_sets import Box
from .environment import Environment
from .offline import VIABILITY_TOL, TimeGrid, ViabilityResult, check_viability

BASIS_KINDS = ("legendre", "monomial")
SCENARIO_VERSION = 1
GENERATOR_VERSION = 1
MAX_DRAWS = 100
_NUMBER = (int, float)  # a JSON number; bool is not one


class GeneratorError(RuntimeError):
    """Scenario generation failed (singular path QP or viability loop cap)."""


# ---------------------------------------------------------------------------
# Polynomial bases
# ---------------------------------------------------------------------------

def basis_values(kind: str, n: int, ts: np.ndarray, T: float) -> np.ndarray:
    """Values of the basis at the given times, a (len(ts), n) array.

    Legendre polynomials are shifted to [0, T] through u = 2t/T - 1 and
    evaluated by their three-term recurrence, so endpoint evaluation is exact
    and stable.  The recurrence runs on contiguous rows, one per polynomial,
    and the values are returned C-contiguous.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if kind == "monomial":
        return ts[:, None] ** np.arange(n)[None, :]
    if kind != "legendre":
        raise ValueError(f"unknown basis kind {kind!r}")
    u = 2.0 * ts / T - 1.0
    P = np.empty((n, ts.shape[0]))
    P[0] = 1.0
    if n > 1:
        P[1] = u
    for j in range(1, n - 1):
        P[j + 1] = ((2 * j + 1) * u * P[j] - j * P[j - 1]) / (j + 1)
    return np.ascontiguousarray(P.T)


def basis_matrices(kind: str, n: int, ts: np.ndarray, T: float):
    """Values, first and second t-derivatives of the basis at the given times.

    Returns three (len(ts), n) arrays, the values bit for bit those of
    :func:`basis_values`.  Legendre derivatives come from their recurrences
    in u, so they too are exact at the endpoints.
    """
    P = basis_values(kind, n, ts, T)
    K = P.shape[0]
    Pd, Pdd = np.zeros((K, n)), np.zeros((K, n))
    if kind == "monomial":
        j = np.arange(n)
        if n > 1:
            Pd[:, 1:] = j[1:] * P[:, :-1]
        if n > 2:
            Pdd[:, 2:] = (j[2:] * (j[2:] - 1)) * P[:, :-2]
        return P, Pd, Pdd
    if n > 1:
        Pd[:, 1] = 1.0
    for j in range(1, n - 1):  # in u, scaled to t below
        Pd[:, j + 1] = (2 * j + 1) * P[:, j] + Pd[:, j - 1]
        Pdd[:, j + 1] = (2 * j + 1) * Pd[:, j] + Pdd[:, j - 1]
    s = 2.0 / T
    return P, s * Pd, s * s * Pdd


def acceleration_gram(kind: str, n: int, T: float) -> np.ndarray:
    """Exact Gram matrix of second derivatives: G_jk = integral of p_j'' p_k''.

    Closed form in both bases (monomial power integrals; Legendre derivative
    recurrences in coefficient space), no quadrature, so the path QP is exact.
    """
    if kind == "monomial":
        G = np.zeros((n, n))
        j = np.arange(n, dtype=float)
        for a in range(2, n):
            for b in range(2, n):
                G[a, b] = (j[a] * (j[a] - 1) * j[b] * (j[b] - 1)) * T ** (a + b - 3) / (a + b - 3)
        return G
    if kind != "legendre":
        raise ValueError(f"unknown basis kind {kind!r}")
    # Differentiation in Legendre coefficient space: (Dc)_l = (2l+1) sum of
    # c_j over j > l with j - l odd.
    D = np.zeros((n, n))
    for l in range(n):
        for j in range(l + 1, n):
            if (j - l) % 2 == 1:
                D[l, j] = 2 * l + 1
    A = D @ D
    w = 2.0 / (2.0 * np.arange(n) + 1.0)
    return (2.0 / T) ** 3 * (A.T * w) @ A


def _flapack():
    """scipy's compiled LAPACK wrappers, the extension module
    ``scipy.linalg._flapack``, loaded without the ``scipy.linalg`` package
    around it (its import costs more than the module and loads code that is
    never used here).

    The module is found by the import system's own path finder in scipy's
    ``linalg`` directory, which ``find_spec("scipy")`` names without importing
    scipy, and registered in ``sys.modules`` under its own name, so that a
    later ``import scipy.linalg`` re-exports this module object.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, "linalg") for d in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"cannot find the extension module {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _solve_path_qp(G: np.ndarray, con_rows: np.ndarray, b: np.ndarray):
    """Equality-constrained QP min c'Gc s.t. con_rows c = b via the bordered
    KKT system, with symmetric equilibration and iterative refinement.

    ``b`` is one right-hand side (p,) or k of them as the columns of (p, k).
    The KKT matrix is equilibrated, its condition number taken and its
    Bunch-Kaufman factorization (LAPACK ``dsytrf``) formed once for all of
    them.  Each column is then solved and refined on its own with ``dsytrs``,
    the bits of a symmetric ``scipy.linalg.solve`` of that column alone (one
    solve of all columns at once rounds differently).

    Returns (coefficients, condition number of the scaled KKT matrix): the
    coefficients are (n,) for one right-hand side and a C-contiguous (k, n)
    array for k.  The LAPACK wrappers come from :func:`_flapack` at the first
    call: only scipy's LAPACK extension module is loaded, and only by the
    commands that fit a sheep path.
    """
    lapack = _flapack()

    n = G.shape[0]
    p = con_rows.shape[0]
    kkt = np.zeros((n + p, n + p))
    kkt[:n, :n] = 2.0 * G
    kkt[:n, n:] = con_rows.T
    kkt[n:, :n] = con_rows
    scale = np.sqrt(np.maximum(np.abs(kkt).max(axis=1), 1e-30))
    S = 1.0 / scale
    kkt_s = kkt * S[:, None] * S[None, :]
    cond = float(np.linalg.cond(kkt_s))
    # The blocked factorization at its queried work size, as scipy.linalg.solve runs it.
    lwork = int(lapack.dsytrf_lwork(n + p)[0])
    factor, pivots, info = lapack.dsytrf(kkt_s, lwork=lwork)
    if info > 0:
        raise GeneratorError("singular path QP system (rank-deficient constraints): "
                             f"zero pivot {info} of the factorization")
    b = np.asarray(b, dtype=float)
    coeffs = np.empty((b.size // p, n))
    for c, col in enumerate(b.reshape(p, -1).T):
        rhs = np.concatenate([np.zeros(n), col])
        y = S * lapack.dsytrs(factor, pivots, S * rhs)[0]
        for _ in range(2):
            r = rhs - kkt @ y
            y = y + S * lapack.dsytrs(factor, pivots, S * r)[0]
        if not np.all(np.isfinite(y)):
            raise GeneratorError("path QP solve produced non-finite coefficients")
        coeffs[c] = y[:n]
    return (coeffs[0] if b.ndim == 1 else coeffs), cond


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShepherdScenario:
    m: int
    n: int                      # shepherd basis size (action dim is 2n)
    n_sheep: int                # sheep basis size
    basis: str
    T: float
    radii: np.ndarray           # (m,)
    L: int
    offset_box: float
    noise_std: float
    seed: int
    noise_cells: int
    sheep_coeffs: np.ndarray    # (m, 2, n_sheep)
    noise: np.ndarray           # (m, 2, noise_cells)
    waypoints: np.ndarray       # (L, 2)
    offsets: np.ndarray         # (m, L, 2), first sheep all zeros
    action_half: float
    draws: int
    xdagger: np.ndarray         # viability certificate
    viability_residual: float
    viability_iterations: int   # Lagrangian evaluations of the viability search
    kkt_condition: float

    @property
    def action_dim(self) -> int:
        return 2 * self.n

    def action_set(self) -> Box:
        hw = np.full(self.action_dim, self.action_half)
        return Box(-hw, hw)

    def offline_grid(self) -> TimeGrid:
        return TimeGrid(T=self.T, num_steps=self.noise_cells)


def encode_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Stack a (2, n) coefficient matrix into the action vector (2n,)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] != 2:
        raise ValueError("expected a (2, n) coefficient matrix")
    return np.concatenate([coeffs[0], coeffs[1]])


def _noise_cells(scenario_T: float, cells: int, ts: np.ndarray) -> np.ndarray:
    # Half-open cells [j, j+1); the 1e-9 nudge keeps grid times computed with
    # accumulated float rounding on the cell they were meant to sample.
    idx = np.floor(ts / scenario_T * cells + 1e-9).astype(int)
    return np.clip(idx, 0, cells - 1)


def _positions(scenario: ShepherdScenario, ts: np.ndarray, Ps: np.ndarray,
               noisy: bool) -> np.ndarray:
    """Sheep positions in the planar layout: one contiguous (2, K, m) array,
    all x-coordinates, then all y-coordinates, from the sheep basis rows ``Ps``
    (K, n_sheep) at ``ts``, with the frozen noise cells added when ``noisy``."""
    # One gemv per node, summing in the order of coeff_flat @ Ps[k];
    # einsum and Ps @ coeff_flat.T sum in another order.
    coeff_flat = scenario.sheep_coeffs.reshape(2 * scenario.m, scenario.n_sheep)
    Y = (coeff_flat @ Ps[:, :, None])[..., 0].reshape(-1, scenario.m, 2).transpose(2, 0, 1)
    if noisy:
        cells = _noise_cells(scenario.T, scenario.noise_cells, ts)
        Y = Y + scenario.noise[:, :, cells].transpose(1, 2, 0)
    return np.ascontiguousarray(Y)


def sheep_positions(scenario: ShepherdScenario, ts: np.ndarray) -> np.ndarray:
    """Positions of every sheep at the given times, shape (len(ts), m, 2): a
    transposed view of the evaluators' planar table."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    P = basis_values(scenario.basis, scenario.n_sheep, ts, scenario.T)
    return _positions(scenario, ts, P, scenario.noise_std > 0.0).transpose(1, 2, 0)


OBJECTIVES = ("none", "black_sheep", "min_acceleration")
NOISE_VARIANTS = ("frozen", "mean", "off")


def shepherd_env(scenario: ShepherdScenario | Sequence[ShepherdScenario],
                 objective: str = "none", noise: str = "frozen") -> Environment:
    """Environment with the m proximity constraints and the chosen objective.

    ``scenario`` is one scenario, or a sequence of scenarios that share ``m``,
    ``n``, ``n_sheep`` and ``basis``, one environment row each (for instance
    one horizon of a sweep).  Each row's time tables are built at that row's
    node times with that row's horizon, radii and paths, exactly as for its
    scenario alone, and then stacked.  The grid Lagrangian (the ``batch_*``
    evaluators) serves one-row environments only.

    ``noise`` picks the path variant:

    * ``frozen``  the benchmark environment: smooth paths plus the scenario's
      frozen sample-and-hold noise table (what the controller runs against);
    * ``mean``    the exact noise average: smooth paths with ``2 sigma^2``
      added to every squared distance (``E||z - y - w||^2``), used for the
      viability certificate and the offline constraint set, which would be
      almost surely infeasible against held noise spikes;
    * ``off``     the smooth paths alone (path diagnostics).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if noise not in NOISE_VARIANTS:
        raise ValueError(f"noise must be one of {NOISE_VARIANTS}")
    scenarios = [scenario] if isinstance(scenario, ShepherdScenario) else list(scenario)
    scenario = scenarios[0]  # the shape of every row, and the one-row grid Lagrangian's
    if any((s.m, s.n, s.n_sheep, s.basis) != (scenario.m, scenario.n, scenario.n_sheep,
                                                scenario.basis) for s in scenarios):
        raise ValueError("the scenarios of one environment must share m, n, n_sheep and basis")
    nb = scenario.n
    shifts = np.array([2.0 * s.noise_std**2 if noise == "mean" else 0.0 for s in scenarios])
    r2s = np.stack([s.radii**2 - shift for s, shift in zip(scenarios, shifts)])
    noisy = [noise == "frozen" and s.noise_std > 0.0 for s in scenarios]
    shift, r2 = float(shifts[0]), r2s[0]
    has_obj, accel = objective != "none", objective == "min_acceleration"
    last = (None, None)  # the last node set (a copy) and its tables

    def tables(ts: np.ndarray):
        # The first row's tables at ts, and r2 tiled (K, m) so that
        # f = |d|^2 - r2 runs as one flat loop, for the batch evaluators.  The
        # offline solvers call them on one grid thousands of times, so the last
        # node set's tables are kept and reused for an equal one.  The slot is
        # one tuple, read and replaced whole, so concurrent callers at worst
        # rebuild.
        nonlocal last
        key, tab = last
        if key is None or not np.array_equal(key, ts):
            tab = (*_tables(scenario, ts, noisy[0], accel), np.tile(r2, (len(ts), 1)))
            last = (np.array(ts, dtype=float), tab)
        return tab

    def on_grid(ts: np.ndarray, rows: np.ndarray):
        # Row r's tables at its nodes ts[r], stacked node by node: basis rows
        # B (K, R, q, nb), P and for the acceleration objective P'' (q = 2),
        # and sheep coordinates Y (K, R, 2, m).  The broadcast views that
        # raw(k, X, out) multiplies with and the buffers it writes are built
        # here, once per block, so that each node indexes each table once and
        # allocates no array.  raw writes f and then f0 into out and returns
        # g0 and G as views of one node buffer J in the layout chosen below;
        # the integrator forms its raw field from them with one signed-gain
        # multiply.  An integrator asks for each block once, so nothing is kept.
        tabs = [_tables(scenarios[i], t, noisy[i], accel)
                for i, t in zip(rows.tolist(), ts)]
        q = 2 if accel else 1
        B = np.stack([np.stack(tab[:q], axis=1) for tab in tabs], axis=1)
        Y = np.stack([tab[2].transpose(1, 0, 2) for tab in tabs], axis=1)
        R, m = len(tabs), scenario.m
        rows_dot = B[:, :, :, None, :]       # (K, R, q, 1, nb): z and z'' rows
        # G's factor 2p (K, R, 1, nb, 1): 2p (x) d has the bits of p (x) 2d,
        # since doubling is exact.
        p2 = 2.0 * B[:, :, 0, None, :, None]
        if accel:
            # The factors [2p ... 2p | p''] (K, R, 1, nb, m + 1) of G = 2p (x) d
            # and of g0 = p'' (x) a / |a|: one product with [d | a / |a|].
            factors = np.empty((*p2.shape[:-1], m + 1))
            factors[..., :m], factors[..., m] = p2, B[:, :, 1, None, :]
        rr, sh = r2s[rows], shifts[rows]
        # A zero shift leaves f0's bits: f0 = f_1 + r_1^2, with r_1^2 >= +0.0,
        # is never -0.0.
        shifted = bool(sh.any())
        # The node's buffers: z and a, the offsets d = z - y (for
        # min-acceleration [d | a / |a|], a's direction in the last column)
        # and their squares, and the node buffer J, in planar order: for
        # min-acceleration (R, 2, nb, m + 1), G = 2p (x) d in the first m
        # columns and g0 in the last, else [g0 | G] (g0 stays 0 with no
        # objective), where G and d are contiguous; then their views.
        za, dd = np.empty((R, q, 2)), np.empty((R, 2, m))
        dan = np.empty((R, 2, m + 1 if accel else m))
        J = np.zeros((R, 2 * nb * (1 + m)))
        if accel:
            J_planar = J.reshape(R, 2, nb, m + 1)
            g0_planar, G_planar = J_planar[..., m], J_planar[..., :m]
        else:
            g0_planar = J[:, :2 * nb].reshape(R, 2, nb)
            G_planar = J[:, 2 * nb:].reshape(R, 2, nb, m)
        g0, G = g0_planar.reshape(R, 2 * nb), G_planar.reshape(R, 2 * nb, m)
        z_col, a, a1, a2 = za[:, 0, :, None], za[:, -1], za[:, -1, 0], za[:, -1, 1]
        d, an, dd1, dd2 = dan[..., :m], dan[..., -1], dd[:, 0], dd[:, 1]
        d_G, dan_J, G_first, rr_first = d[:, :, None, :], dan[:, :, None, :], G[:, :, 0], rr[:, 0]
        # X's rows as (R, 1, 2, nb), and the ufuncs, bound once.
        x_planar = (-1, 1, 2, nb)
        vecdot, subtract, multiply, add, hypot, divide, copyto = (
            np.vecdot, np.subtract, np.multiply, np.add, np.hypot, np.divide, np.copyto)

        def raw(k: int, X: np.ndarray, out: np.ndarray):
            # The x-dependent algebra at node k of every row.  The position z
            # and the acceleration a, each coordinate of each row one dot
            # product, come from one vecdot, bit for bit the 1-D products.
            vecdot(X.reshape(x_planar), rows_dot[k], za)
            subtract(z_col, Y[k], d)
            multiply(d, d, dd)
            f, f0 = out[:, :m], out[:, m]
            add(dd1, dd2, f)
            subtract(f, rr, f)
            if accel:
                hypot(a1, a2, f0)
                # Every row moving (a NaN row too, which the guard rejects):
                # no row needs the zero subgradient.  The test reads the few
                # norms as Python floats, cheaper than a numpy reduction.
                moving = None if all(f0.tolist()) else f0 > 0.0
                divide(a, out[:, m:] if moving is None else np.where(moving, f0, 1.0)[:, None], an)
                multiply(factors[k], dan_J, J_planar)
                if moving is not None:
                    copyto(g0_planar, 0.0, where=~moving[:, None, None])
                return g0, G
            multiply(p2[k], d_G, G_planar)
            if objective == "black_sheep":
                add(f[:, 0], rr_first, f0)
                if shifted:
                    add(f0, sh, f0)
                copyto(g0, G_first)
            else:
                f0[...] = 0.0
            return g0, G

        return raw

    # The batch evaluators keep the planar layout: coordinates z and
    # coordinate weights s are (2, K), offsets d = z - Y are (2, K, m), and
    # each step is a plain ufunc over whole planes or one matrix product.
    # Their sum orders decide the last bits of the offline solution: z takes
    # one gemv per coordinate, s adds the sheep one at a time from zero, and
    # the pullback of one action is one B.T @ s product.

    def _coords(B: np.ndarray, x: np.ndarray) -> np.ndarray:
        # (2, K): basis rows B (K, nb) times one action x (n,), one gemv per
        # coordinate, or times one action per node (K, n).
        return (np.stack([B @ x[:nb], B @ x[nb:]]) if x.ndim == 1
                else np.einsum("kj,kcj->ck", B, x.reshape(-1, 2, nb)))

    def _pullback(B: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        # Gradient in x of sum_k s_k . _coords(B, x)_k for s (2, K).  With one
        # action per node the product is asked for in C order: numpy would
        # lay it out like s, and the reshape would then copy (K, n) again.
        if x.ndim == 1:
            return (B.T @ s.T).T.ravel()
        return np.multiply(B[:, None, :], s.T[:, :, None], order="C").reshape(x.shape)

    def batch_evaluate(ts: np.ndarray, x: np.ndarray):
        if len(scenarios) > 1:
            raise ValueError("the grid Lagrangian serves a one-row environment")
        P, Pdd, Y, R2 = tables(ts)
        d = _coords(P, x)[:, :, None] - Y                    # (2, K, m)
        dd = d * d
        f = dd[0] + dd[1] - R2
        if objective == "black_sheep":
            f0 = f[:, 0] + r2[0] + shift
        elif objective == "min_acceleration":
            a = _coords(Pdd, x)
            f0 = np.linalg.norm(a, axis=0)
        else:
            f0 = np.zeros(ts.shape[0])

        def pull(w: np.ndarray, mu: np.ndarray) -> np.ndarray:
            # G_k mu_k = 2 p_k (d_k . mu_k) per coordinate (a reduction over
            # the short m axis would be slower than the loop); black sheep's
            # g0 is the first constraint's column, so its weight joins mu[:, 0].
            dmu = d * mu
            s = np.zeros(dmu.shape[:2])
            for i in range(scenario.m):
                s += dmu[:, :, i]
            if objective == "black_sheep":
                s += w * d[:, :, 0]
            # In place: with one action per node grad is (K, n), and a fresh
            # array of that size costs more than the arithmetic.
            grad = _pullback(P, s, x)
            grad *= 2.0
            if objective == "min_acceleration":
                # a = 0 wherever f0 = 0, so those nodes add nothing.
                grad += _pullback(Pdd, w / np.where(f0 > 0.0, f0, 1.0) * a, x)
            return grad

        return f0, f, pull

    return Environment(n=2 * nb, m=scenario.m, on_grid=on_grid,
                       batch_constraints=lambda ts, x: batch_evaluate(ts, x)[1],
                       batch_evaluate=batch_evaluate,
                       has_objective=has_obj, n_rows=len(scenarios))


def _tables(scenario: ShepherdScenario, ts: np.ndarray, use_noise: bool, accel: bool):
    """Time tables of one scenario at the nodes ts: basis rows P (K, nb) and,
    if ``accel``, P'' (else None), and the planar sheep table Y (2, K, m)."""
    kind, nb, T = scenario.basis, scenario.n, scenario.T
    if accel:
        P, _, Pdd = basis_matrices(kind, nb, ts, T)
    else:
        P, Pdd = basis_values(kind, nb, ts, T), None
    Ps = P if scenario.n_sheep == nb else basis_values(kind, scenario.n_sheep, ts, T)
    return P, Pdd, _positions(scenario, ts, Ps, use_noise)


def _check_ranges(p: dict) -> np.ndarray:
    """Raise a ValueError naming the first scenario parameter out of its
    range, given the generator's parameters ``p`` keyed by their
    ``GENERATE_PARAMS`` names; return the radii, one per sheep (a scalar
    radius is shared)."""
    m, L, radius = p["m"], p["L"], p["radius"]
    for ok, message in ((p["basis"] in BASIS_KINDS, f"basis must be one of {BASIS_KINDS}"),
                        (m >= 1, "sheep count m must be at least 1"),
                        (0.0 < p["T"] < np.inf, "horizon T must be positive and finite"),
                        (0.0 <= p["noise_std"] < np.inf,
                         "noise_std must be nonnegative and finite"),
                        (0.0 <= p["offset_box"] < np.inf,
                         "offset_box must be nonnegative and finite"),
                        (p["noise_cells"] >= 1, "noise_cells must be at least 1"),
                        (0.0 < p["action_half"] < np.inf,
                         "action_half must be positive and finite"),
                        (L >= 0, "waypoint count L must be nonnegative"),
                        (p["n_sheep"] > L + 2, "sheep basis size n_sheep must exceed L + 2 "
                                               "equality constraints")):
        if not ok:
            raise ValueError(message)
    radii = np.full(m, float(radius)) if np.isscalar(radius) else np.asarray(radius, dtype=float)
    if radii.shape != (m,) or not np.all((radii > 0.0) & (radii < np.inf)):
        raise ValueError("radii must be m positive reals, each finite")
    return radii


# The parameters of generate_sheep_paths and their JSON types: the names of
# generate's flags, the keys of an inline scenario, and (radii for radius)
# what regenerate reads off a scenario.  Null is none.
GENERATE_PARAMS = {
    "seed": int, "m": int, "T": _NUMBER, "radius": (*_NUMBER, list), "n": int, "n_sheep": int,
    "basis": str, "L": int, "offset_box": _NUMBER, "noise_std": _NUMBER, "noise_cells": int,
    "action_half": _NUMBER,
}


def generate_sheep_paths(
    seed: int,
    m: int = 5,
    T: float = 1.0,
    radius: float | np.ndarray = 0.3,
    n: int = 30,
    n_sheep: Optional[int] = None,
    basis: str = "legendre",
    L: int = 3,
    offset_box: float = 0.1,
    noise_std: float = 0.1,
    noise_cells: int = 1000,
    action_half: float = 5.0,
) -> ShepherdScenario:
    """Draw a viable scenario: waypoints, minimum-acceleration sheep paths,
    frozen noise, and the viability certificate.

    Each sheep's path minimizes the integral of squared acceleration subject
    to the endpoint and waypoint interpolation constraints (an equality
    constrained QP per coordinate).  The first sheep gets zero waypoint
    offsets.  Draw-and-check repeats until the checker certifies viability,
    up to 100 draws; the RNG stream continues across draws so the scenario is
    a pure function of the seed.

    Viability is certified against the noise-mean environment (see
    :func:`shepherd_env`): no smooth trajectory can satisfy the pointwise
    constraints against held white-noise spikes, so the certificate covers
    the exact expected constraints instead, and the online bound checks carry
    the noise fluctuation inside their discretization slack.
    """
    n_sheep = n if n_sheep is None else n_sheep
    radii = _check_ranges(locals())  # the parameters, n_sheep resolved

    rng = np.random.default_rng(seed)
    G = acceleration_gram(basis, n_sheep, T)
    con_times = np.concatenate([[0.0], (np.arange(1, L + 1) * T) / (L + 1), [T]])
    con_rows = basis_values(basis, n_sheep, con_times, T)

    off_box = []  # largest warm-start coefficient of each draw it rejected
    for attempt in range(1, MAX_DRAWS + 1):
        waypoints = rng.uniform(0.0, 1.0, size=(L, 2))
        offsets = np.zeros((m, L, 2))
        if m > 1 and L > 0:
            offsets[1:] = rng.uniform(-offset_box, offset_box, size=(m - 1, L, 2))
        noise = noise_std * rng.standard_normal((m, 2, noise_cells))

        # One path per sheep and coordinate, column 2i + c for sheep i's
        # coordinate c: start 0, its waypoints, end 1.  All 2m paths share
        # the KKT matrix, so one call factors it once.
        targets = (waypoints + offsets).transpose(1, 0, 2).reshape(L, 2 * m)
        b = np.concatenate([np.zeros((1, 2 * m)), targets, np.ones((1, 2 * m))])
        coeffs, cond = _solve_path_qp(G, con_rows, b)
        coeffs = coeffs.reshape(m, 2, n_sheep)

        scenario = ShepherdScenario(
            m=m, n=n, n_sheep=n_sheep, basis=basis, T=T, radii=radii, L=L,
            offset_box=offset_box, noise_std=noise_std, seed=seed,
            noise_cells=noise_cells, sheep_coeffs=coeffs, noise=noise,
            waypoints=waypoints, offsets=offsets, action_half=action_half,
            draws=attempt, xdagger=np.zeros(2 * n), viability_residual=np.inf,
            viability_iterations=0, kkt_condition=cond,
        )
        env = shepherd_env(scenario, "none", noise="mean")
        # Warm start at the herd-center path: the mean of polynomial paths is
        # the polynomial of the mean coefficients, so when the bases agree it
        # is exact; otherwise fit it on the grid.
        grid = scenario.offline_grid()
        if n_sheep == n:
            x_init = encode_coeffs(coeffs.mean(axis=0))
        else:
            ts = grid.nodes()
            P_shep = basis_values(basis, n, ts, T)
            P_sheep = basis_values(basis, n_sheep, ts, T)
            center = np.einsum("kj,cj->kc", P_sheep, coeffs.mean(axis=0))
            cx, *_ = np.linalg.lstsq(P_shep, center[:, 0], rcond=None)
            cy, *_ = np.linalg.lstsq(P_shep, center[:, 1], rcond=None)
            x_init = np.concatenate([cx, cy])
        # A warm start outside the action box would be clipped, far from the
        # herd-centre path (monomial paths at n = 8 have coefficients in the
        # hundreds); reject the draw at once.
        coef = float(np.abs(x_init).max())
        if coef > action_half:
            off_box.append(coef)
            continue
        via = check_viability(env, grid, scenario.action_set(), interior_target=3e-2,
                              x_init=x_init)
        if via.viable:
            return replace(scenario, xdagger=via.xdagger, viability_residual=via.residual,
                           viability_iterations=via.iterations)
    if len(off_box) == MAX_DRAWS:
        raise GeneratorError(
            f"no draw in {MAX_DRAWS} for seed {seed} has its herd-centre path inside the "
            f"action box: the largest coefficient, {max(off_box):.4g}, exceeds action_half "
            f"(--action-half) {action_half:g}; use the legendre basis or a larger box")
    raise GeneratorError(f"no viable environment in {MAX_DRAWS} draws for seed {seed}")


def regenerate(scenario: ShepherdScenario, T: float) -> ShepherdScenario:
    """Fresh scenario with the same parameters but the horizon T."""
    params = {name: getattr(scenario, "radii" if name == "radius" else name)
              for name in GENERATE_PARAMS}
    return generate_sheep_paths(**{**params, "T": T})


def viability_certificate(scenario: ShepherdScenario) -> ViabilityResult:
    return ViabilityResult(
        viable=scenario.viability_residual <= VIABILITY_TOL,
        xdagger=scenario.xdagger,
        residual=scenario.viability_residual,
        iterations=scenario.viability_iterations,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_json(obj) -> dict:
    """The dataclass ``obj`` as a JSON object, arrays as nested lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(obj).items()}


def write_json(path, d: dict) -> None:
    with open(path, "w") as fh:
        json.dump(d, fh, sort_keys=True, indent=1)
        fh.write("\n")


def check_types(what: str, d: dict, types: dict) -> None:
    """Raise a ValueError naming the first key of ``types`` whose value in the
    JSON object d has another type (one type or a tuple of them)."""
    for key, kind in types.items():
        value = d[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{what} key {key!r} has the wrong type: {json.dumps(value)}")


# A field's JSON types and the conversion of its value to the field, by the
# text of its annotation: this package defers annotations, so a dataclass
# field's type is that text.  Any other annotation names a nested dataclass.
_JSON_FIELDS = {"int": (int, int), "float": (_NUMBER, float), "str": (str, str),
                "dict": (dict, dict), "np.ndarray": (list, lambda v: np.asarray(v, dtype=float))}


def _nested(cls, f):
    # The dataclass that the field f of cls names, or None.
    return None if f.type in _JSON_FIELDS else getattr(sys.modules[cls.__module__], f.type)


def _missing_keys(cls, d: dict, prefix: str = "") -> list:
    # The fields without a default that d lacks, then those of its nested
    # dataclasses (all of them, where d has no object for one).
    required = [f for f in fields(cls) if f.default is f.default_factory is MISSING]
    missing = [prefix + f.name for f in required if f.name not in d]
    for f in required:
        if sub := _nested(cls, f):
            value = d[f.name] if isinstance(d.get(f.name), dict) else {}
            missing += _missing_keys(sub, value, f"{prefix}{f.name}.")
    return missing


def from_json(cls, d: dict, what: str, finite_except=()):
    """The dataclass ``cls`` from the JSON object d, by its fields'
    annotations: required keys, JSON types, and finite numbers and arrays
    (but for the fields ``finite_except``), each as a ValueError; numbers
    become floats and arrays float arrays.  Keys of no field are ignored."""
    missing = _missing_keys(cls, d)
    if missing:
        raise ValueError(f"{what} lacks keys: {missing}")
    present = [(f.name, f.type, _nested(cls, f)) for f in fields(cls) if f.name in d]
    check_types(what, d, {k: dict if sub else _JSON_FIELDS[t][0] for k, t, sub in present})
    values = {}
    for k, t, sub in present:
        if sub:
            values[k] = from_json(sub, d[k], f"{what} {k}")
            continue
        try:
            values[k] = _JSON_FIELDS[t][1](d[k])
        except (TypeError, ValueError):  # a list that is no rectangle of numbers
            raise ValueError(f"{what} field {k!r} is not an array of numbers") from None
        if (t in ("float", "np.ndarray") and k not in finite_except
                and not np.isfinite(values[k]).all()):
            raise ValueError(f"{what} field {k!r} has non-finite values")
    return cls(**values)


def scenario_to_dict(s: ShepherdScenario) -> dict:
    return {**to_json(s), "version": SCENARIO_VERSION, "generator_version": GENERATOR_VERSION,
            "kind": "shepherd"}


def scenario_from_dict(d: dict) -> ShepherdScenario:
    if not isinstance(d, dict):
        raise ValueError("a scenario must be a JSON object")
    unknown = set(d) - {"version", "kind", "generator_version", *ShepherdScenario.__annotations__}
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    if d.get("version") != SCENARIO_VERSION:
        raise ValueError(f"unsupported scenario version {d.get('version')!r}")
    if d.get("kind") != "shepherd":
        raise ValueError(f"unsupported scenario kind {d.get('kind')!r}")
    # The only number fields that feed neither the environment nor the action
    # set, and so may be infinite.
    s = from_json(ShepherdScenario, d, "scenario", ("viability_residual", "kkt_condition"))
    return replace(s, radii=_check_ranges({**d, "radius": s.radii}),
                   waypoints=s.waypoints.reshape(s.L, 2), offsets=s.offsets.reshape(s.m, s.L, 2))


def save_scenario(s: ShepherdScenario, path) -> None:
    write_json(path, scenario_to_dict(s))


def load_scenario(path) -> ShepherdScenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
