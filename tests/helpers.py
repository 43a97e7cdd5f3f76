"""Shared toy environments and samplers for the test suite."""

from __future__ import annotations

import numpy as np

from saddlesim.convex_sets import Ball, Box, NonnegativeOrthant
from saddlesim.environment import Environment, pointwise


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
    x = rng.uniform(0.2, 2.0, size=cset.dim)
    if boundary:
        idx = int(rng.integers(cset.dim))
        x[idx] = 0.0
    return x


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
