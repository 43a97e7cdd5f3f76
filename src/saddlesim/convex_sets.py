"""Closed convex sets with exact point projection and tangent-cone field projection.

The controllers need the whole space, boxes, Euclidean balls, the nonnegative
orthant (the multiplier domain) and the product of an action set with it.  Point
projection ``P(z)`` returns the unique nearest member of each row of z (..., n);
field projection ``Pi(x, v)`` returns, for each row of x (..., n) and the
matching row of v, the limit quotient ``lim (P(x + d*v) - x) / d`` as
``d -> 0+``, i.e. the projection of ``v`` onto the tangent cone at ``x``.
Both work row by row, and a row gives the same bits alone as in a stack, so an
integrator running several trajectories as rows of one array reproduces each
one run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# A state is treated as a member of the set if its Euclidean distance to the
# set is at most this; the integrators re-project every step so drift never
# accumulates beyond it.
MEMBERSHIP_TOL = 1e-9

# A ball point counts as boundary when ||x - c|| >= r * (1 - BALL_BOUNDARY_RTOL).
BALL_BOUNDARY_RTOL = 1e-9

# Box/orthant boundary classification tolerance (absolute, post-projection
# states sit exactly on the bound).
_BOX_EDGE_TOL = 1e-12


class MembershipError(ValueError):
    """Raised when a field projection is requested at a point outside the set."""


class DimensionError(ValueError):
    """Raised on ambient-dimension mismatch."""


def _check_dim(set_dim: int, z: np.ndarray, rows: bool = False) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if (z.ndim != 1 and not rows) or z.shape[-1:] != (set_dim,):
        raise DimensionError(f"expected {'rows' if rows else 'vector'} of dim {set_dim}, got shape {z.shape}")
    return z


@dataclass(frozen=True)
class ConvexSet:
    """Base type; subclasses implement the projection primitives."""

    dim: int

    def project_point(self, z: np.ndarray) -> np.ndarray:
        """Nearest member of the set (unique minimizer of ||y - z||) for each
        row of z (..., n); a row projects alone, bit for bit."""
        raise NotImplementedError

    def row_projector(self, z: np.ndarray) -> Callable[[np.ndarray], object]:
        """``project(y)``, which projects each row of y in place, bit for bit
        ``project_point(y)``, for arrays y of z's width (..., n): the width is
        checked here, once, as ``project_point`` checks it."""
        _check_dim(self.dim, z, rows=True)
        project_point = self.project_point
        return lambda y: np.copyto(y, project_point(y))

    def distance(self, x: np.ndarray) -> float:
        """Euclidean distance from x to the set."""
        x = _check_dim(self.dim, x)
        return float(np.linalg.norm(self.project_point(x) - x))

    def project_field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Tangent-cone projection of each row of v at the matching member row
        of x (..., n).

        Equals v on every row where x is interior; raises
        :class:`MembershipError`, with the distance of the first row outside,
        when a row of x lies outside the set beyond the membership tolerance.
        """
        raise NotImplementedError

    def norm_bound(self) -> float:
        """R with ||x|| <= R for every member; inf for unbounded variants."""
        return np.inf

    def _inside(self, x: np.ndarray) -> np.ndarray:
        # Membership of each row of x (..., n) within MEMBERSHIP_TOL, shape
        # (...), or of each coordinate where membership goes coordinate by
        # coordinate, (..., n); subclasses check directly, without the
        # project-then-norm round trip.  NaN coordinates are outside.
        return np.linalg.norm(self.project_point(x) - x, axis=-1) <= MEMBERSHIP_TOL

    def _require_member(self, x: np.ndarray, rows: bool = False) -> np.ndarray:
        x = _check_dim(self.dim, x, rows)
        inside = self._inside(x)
        if not inside.all():  # one test of the whole stack; rows only when it fails
            first = np.argmin(inside.reshape(x.size // self.dim, -1).all(axis=1))
            row = x.reshape(-1, self.dim)[first]
            raise MembershipError(
                f"point at distance {self.distance(row):.3e} from set (tolerance "
                f"{MEMBERSHIP_TOL:.0e}); integrator state has drifted outside the domain"
            )
        return x


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    """Componentwise bounds ``lower <= x <= upper`` (infinite bounds allowed).

    From a member whose blocked coordinates sit exactly on their faces,
    ``project_point(x + h v)`` is bit for bit ``project_point(x + h
    project_field(x, v))``: the tangent cone is a product of half-lines and
    lines, and a blocked coordinate clamps back onto its face.  The clip
    bounds are kept as a vector (n,) for one point and as one row (1, n) for
    rows (R, n): numpy runs a (1, n) row against a single row of input
    without its slower broadcasting loop.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionError("box bounds must be 1-D arrays of equal length")
        if np.any(lower > upper):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "dim", lower.shape[0])
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        # The bounds as (vectors, rows), indexed by "the input has rows".
        object.__setattr__(self, "_clip", ((lower, upper), (lower[None], upper[None])))

    def project_point(self, z: np.ndarray) -> np.ndarray:
        z = _check_dim(self.dim, z, rows=True)
        lower, upper = self._clip[z.ndim > 1]
        return np.minimum(np.maximum(z, lower), upper)

    def row_projector(self, z: np.ndarray) -> Callable[[np.ndarray], object]:
        # project_point's clip pair on the bounds for z's rank, bound once.
        lower, upper = self._clip[_check_dim(self.dim, z, rows=True).ndim > 1]
        maximum, minimum = np.maximum, np.minimum
        return lambda y: minimum(maximum(y, lower, out=y), upper, out=y)

    def _inside(self, x: np.ndarray) -> np.ndarray:
        return (x >= self.lower - MEMBERSHIP_TOL) & (x <= self.upper + MEMBERSHIP_TOL)

    def project_field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = self._require_member(x, rows=True)
        v = _check_dim(self.dim, v, rows=True)
        # Per-component half-line rule: a coordinate within _BOX_EDGE_TOL of
        # a face counts as on it, and loses its outward component.
        blocked = (((x <= self.lower + _BOX_EDGE_TOL) & (v < 0.0))
                   | ((x >= self.upper - _BOX_EDGE_TOL) & (v > 0.0)))
        return np.where(blocked, 0.0, v)

    def norm_bound(self) -> float:
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            return np.inf
        return float(np.sqrt(np.sum(np.maximum(self.lower**2, self.upper**2))))


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    center: np.ndarray
    radius: float

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        radius = float(radius)
        if radius <= 0.0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "dim", center.shape[0])
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    def project_point(self, z: np.ndarray) -> np.ndarray:
        z = _check_dim(self.dim, z, rows=True)  # rows inside are returned as they are
        d = z - self.center
        nrm = np.linalg.norm(d, axis=-1, keepdims=True)
        far = nrm > self.radius
        return np.where(far, self.center + d * (self.radius / np.where(far, nrm, 1.0)), z)

    def distance(self, x: np.ndarray) -> float:
        x = _check_dim(self.dim, x)
        return max(0.0, float(np.linalg.norm(x - self.center)) - self.radius)

    def _inside(self, x: np.ndarray) -> np.ndarray:
        return _norm(x - self.center) <= self.radius + MEMBERSHIP_TOL

    def project_field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = self._require_member(x, rows=True)
        v = _check_dim(self.dim, v, rows=True)
        d = x - self.center
        nrm = _norm(d)
        edge = nrm >= self.radius * (1.0 - BALL_BOUNDARY_RTOL)
        if not edge.any():
            return v.copy()
        # On the boundary the tangent cone is the halfspace {w : w.u <= 0}
        # for the outward unit normal u; remove the outward radial component
        # iff it points out.  Interior rows keep v.
        u = d / np.where(edge, nrm, 1.0)[..., None]
        radial = np.vecdot(u, v)
        return np.where((edge & (radial > 0.0))[..., None], v - radial[..., None] * u, v)

    def norm_bound(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius


class FullSpace(Box):
    """The whole space R^n: the box with bounds -inf and +inf."""

    def __init__(self, dim: int):
        super().__init__(np.full(dim, -np.inf), np.full(dim, np.inf))


class NonnegativeOrthant(Box):
    """``x >= 0``, the multiplier domain: the box with bounds 0 and +inf."""

    def __init__(self, dim: int):
        super().__init__(np.zeros(dim), np.full(dim, np.inf))


@dataclass(frozen=True, eq=False)
class StateSet(ConvexSet):
    """The saddle state set X x R+^m on joined rows [x | lam] (..., n + m).

    A joined row projects to the bits of its x slice projected onto X and its
    lam slice onto the orthant: for a box X (the whole space is one) that is
    one clip onto the box [lower | 0], [upper | +inf], as min(y, +inf) is y.
    Field projection goes factor by factor, the actions first, so a state
    off the set raises the first factor's :class:`MembershipError`."""

    factors: tuple

    def __init__(self, X: ConvexSet, m: int):
        box = isinstance(X, Box) and Box(np.append(X.lower, np.zeros(m)),
                                         np.append(X.upper, np.full(m, np.inf)))
        for name, value in (("dim", X.dim + m), ("factors", (X, NonnegativeOrthant(m))),
                            ("_box", box)):
            object.__setattr__(self, name, value)

    def project_point(self, z: np.ndarray) -> np.ndarray:
        if self._box:
            return self._box.project_point(z)
        return np.concatenate([s.project_point(p) for s, p in zip(self.factors, self._split(z))],
                              axis=-1)

    def row_projector(self, z: np.ndarray) -> Callable[[np.ndarray], object]:
        return self._box.row_projector(z) if self._box else super().row_projector(z)

    def project_field(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        parts = zip(self.factors, self._split(z), self._split(v))
        return np.concatenate([s.project_field(x, w) for s, x, w in parts], axis=-1)

    def _split(self, z) -> list:
        return np.split(_check_dim(self.dim, z, rows=True), [self.factors[0].dim], axis=-1)


def _norm(d: np.ndarray) -> np.ndarray:
    # Euclidean norm of each row, bit for bit np.linalg.norm of the row alone:
    # the square root of its dot product, which np.vecdot forms per row with
    # the 1-D ``@`` kernel.
    return np.sqrt(np.vecdot(d, d))
