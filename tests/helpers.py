"""Shared toy environments and samplers for the test suite."""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from saddlesim.convex_sets import Ball, Box, ConvexSet, NonnegativeOrthant, _check_dim
from saddlesim.environment import Environment, pointwise
from saddlesim.metrics import energy


def tracking_env(values: np.ndarray, T: float) -> Environment:
    """f0(t, x) = ||x - c(t)||^2 with c piecewise constant over equal segments."""
    values = np.asarray(values, dtype=float)
    S = values.shape[0]
    n = values.shape[1]
    empty_f = np.zeros(0)
    empty_G = np.zeros((n, 0))

    def evaluate(t, x):
        seg = min(int(t / T * S), S - 1)
        d = x - values[seg]
        return float(d @ d), 2.0 * d, empty_f, empty_G

    return pointwise(n, 0, evaluate)


def quadratic_env(center: np.ndarray) -> Environment:
    """Time-invariant f0(x) = ||x - c||^2, no constraints."""
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    empty_f = np.zeros(0)
    empty_G = np.zeros((n, 0))

    def evaluate(t, x):
        d = x - center
        return float(d @ d), 2.0 * d, empty_f, empty_G

    return pointwise(n, 0, evaluate)


def norm_env(A: np.ndarray) -> Environment:
    """f0(x) = ||A x||, subgradient A^T A x / ||A x|| away from the kink."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    empty_f = np.zeros(0)
    empty_G = np.zeros((n, 0))

    def evaluate(t, x):
        Ax = A @ x
        v = float(np.linalg.norm(Ax))
        g = A.T @ (Ax / v) if v > 0.0 else np.zeros(n)
        return v, g, empty_f, empty_G

    return pointwise(n, 0, evaluate)


def stationary_points_env(points: np.ndarray, radius: float) -> Environment:
    """Constraints ||x - p_i||^2 - r^2, time-invariant (herd frozen in place)."""
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    r2 = radius * radius
    zero_g = np.zeros(n)

    def evaluate(t, x):
        d = x[None, :] - points
        f = np.einsum("ij,ij->i", d, d) - r2
        G = 2.0 * d.T
        return 0.0, zero_g, f, G

    return pointwise(n, m, evaluate, has_objective=False)


def disc_constrained_env(center: np.ndarray, radius: float, target: np.ndarray) -> Environment:
    """f0 = ||x - target||^2 subject to the single disc constraint ||x - c||^2 <= r^2."""
    center = np.asarray(center, dtype=float)
    target = np.asarray(target, dtype=float)
    n = center.shape[0]
    r2 = radius * radius

    def evaluate(t, x):
        d0 = x - target
        dc = x - center
        return (
            float(d0 @ d0),
            2.0 * d0,
            np.array([float(dc @ dc) - r2]),
            (2.0 * dc)[:, None],
        )

    return pointwise(n, 1, evaluate)


def random_set(rng: np.random.Generator, dim: int = None, kinds=("box", "ball", "orthant")):
    """Random convex set with moderate scale; balls keep radius >= 1."""
    dim = dim or int(rng.integers(1, 5))
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, size=dim)
        hi = lo + rng.uniform(0.5, 3.0, size=dim)
        return Box(lo, hi)
    if kind == "ball":
        return Ball(rng.uniform(-1.0, 1.0, size=dim), rng.uniform(1.0, 2.5))
    return NonnegativeOrthant(dim)


def point_in_set(rng: np.random.Generator, cset, boundary: bool = False) -> np.ndarray:
    """Member point, either safely interior or exactly on the boundary."""
    if isinstance(cset, NonnegativeOrthant):  # a Box, whose branch would draw +inf
        x = rng.uniform(0.2, 2.0, size=cset.dim)
        if boundary:
            idx = int(rng.integers(cset.dim))
            x[idx] = 0.0
        return x
    if isinstance(cset, Box):
        u = rng.uniform(0.15, 0.85, size=cset.dim)
        x = cset.lower + u * (cset.upper - cset.lower)
        if boundary:
            idx = int(rng.integers(cset.dim))
            x[idx] = cset.lower[idx] if rng.random() < 0.5 else cset.upper[idx]
        return x
    if isinstance(cset, Ball):
        d = rng.standard_normal(cset.dim)
        d /= max(np.linalg.norm(d), 1e-12)
        rad = cset.radius if boundary else rng.uniform(0.0, 0.8) * cset.radius
        return cset.center + rad * d
    raise TypeError(f"no member draw for {type(cset).__name__}")


def midpoint_convex(fun, rng: np.random.Generator, n: int, samples: int = 200,
                    scale: float = 2.0, tol: float = 1e-9) -> bool:
    """Midpoint convexity spot check for x -> fun(x) (scalar or vector valued)."""
    for _ in range(samples):
        a = rng.uniform(-scale, scale, size=n)
        b = rng.uniform(-scale, scale, size=n)
        mid = 0.5 * (a + b)
        if np.any(np.asarray(fun(mid)) > 0.5 * (np.asarray(fun(a)) + np.asarray(fun(b))) + tol):
            return False
    return True


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


def projection_gap(cset: ConvexSet, x0: np.ndarray, x: np.ndarray, v: np.ndarray) -> float:
    """(x0 - x).v minus (x0 - x).Pi(x0, v), for members x0 and x.

    The field projection only ever removes outward components, so the gap is
    nonnegative (up to roundoff); every Lyapunov argument in the controllers
    rests on this inequality.
    """
    x0 = cset._require_member(x0)
    x = cset._require_member(x)
    v = _check_dim(cset.dim, v)
    w = x0 - x
    return float(w @ v - w @ cset.project_field(x0, v))


def regret_bound(eps: float, x0: np.ndarray, xstar: np.ndarray) -> float:
    """Regret guarantee of the gradient controller: V_{x*}(x0) / eps."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return energy(xstar, np.zeros(0), x0, np.zeros(0)) / eps


def decode_coeffs(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`saddlesim.shepherd.encode_coeffs`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * n,):
        raise ValueError(f"expected action of shape ({2 * n},)")
    return np.stack([x[:n], x[n:]])


def assert_same_fields(a, b) -> None:
    """Every field of the dataclass b is a's, bit for bit and of a's Python
    type (arrays of a's dtype and shape), nested dataclasses field by field."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(y) is type(x), f.name
        if dataclasses.is_dataclass(x):
            assert_same_fields(x, y)
        elif isinstance(x, np.ndarray):
            assert (y.dtype, y.shape, y.tobytes()) == (x.dtype, x.shape, x.tobytes()), f.name
        else:  # repr tells -0.0 from 0.0, and 1 from 1.0 in a dict
            assert repr(y) == repr(x), f.name
