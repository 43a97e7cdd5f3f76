"""Closed convex sets with exact point projection and tangent-cone field projection.

Four variants cover everything the controllers need: the whole space, boxes,
Euclidean balls, and the nonnegative orthant (the multiplier domain).  Point
projection ``P(z)`` returns the unique nearest member of each row of z (..., n);
field projection ``Pi(x, v)`` at one point x returns the limit quotient
``lim (P(x + d*v) - x) / d`` as ``d -> 0+``, i.e. the projection of ``v`` onto
the tangent cone at ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def distance(self, x: np.ndarray) -> float:
        """Euclidean distance from x to the set."""
        x = _check_dim(self.dim, x)
        return float(np.linalg.norm(self.project_point(x) - x))

    def project_field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Tangent-cone projection of v at a member point x.

        Equals v whenever x is interior; raises :class:`MembershipError` when
        x lies outside the set beyond the membership tolerance.
        """
        raise NotImplementedError

    def norm_bound(self) -> float:
        """R with ||x|| <= R for every member; inf for unbounded variants."""
        return np.inf

    def _inside(self, x: np.ndarray) -> bool:
        # Membership within MEMBERSHIP_TOL without the generic
        # project-then-norm round trip; subclasses override with cheaper
        # direct checks (hot integrator path).  NaN coordinates are outside.
        return self.distance(x) <= MEMBERSHIP_TOL

    def _require_member(self, x: np.ndarray) -> np.ndarray:
        x = _check_dim(self.dim, x)
        if not self._inside(x):
            raise self._outside_error(x)
        return x

    def _outside_error(self, x: np.ndarray) -> MembershipError:
        return MembershipError(
            f"point at distance {self.distance(x):.3e} from set (tolerance "
            f"{MEMBERSHIP_TOL:.0e}); integrator state has drifted outside the domain"
        )


@dataclass(frozen=True)
class FullSpace(ConvexSet):
    def project_point(self, z: np.ndarray) -> np.ndarray:
        return _check_dim(self.dim, z, rows=True).copy()

    def distance(self, x: np.ndarray) -> float:
        _check_dim(self.dim, x)
        return 0.0

    def _inside(self, x: np.ndarray) -> bool:
        return True

    def project_field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        _check_dim(self.dim, x)
        return _check_dim(self.dim, v).copy()


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    """Componentwise bounds ``lower <= x <= upper`` (infinite bounds allowed).

    The membership band ``[lower - MEMBERSHIP_TOL, upper + MEMBERSHIP_TOL]``
    and the edge band ``(lower + _BOX_EDGE_TOL, upper - _BOX_EDGE_TOL)`` are
    computed once here, not per call, since the integrators query them every
    step.
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
        object.__setattr__(self, "_member_lower", lower - MEMBERSHIP_TOL)
        object.__setattr__(self, "_member_upper", upper + MEMBERSHIP_TOL)
        object.__setattr__(self, "_edge_lower", lower + _BOX_EDGE_TOL)
        object.__setattr__(self, "_edge_upper", upper - _BOX_EDGE_TOL)

    def project_point(self, z: np.ndarray) -> np.ndarray:
        z = _check_dim(self.dim, z, rows=True)
        return np.minimum(np.maximum(z, self.lower), self.upper)

    def _inside(self, x: np.ndarray) -> bool:
        return bool(((x >= self._member_lower) & (x <= self._member_upper)).all())

    def project_field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Tangent-cone projection of v at x; raises MembershipError off the box.

        A point strictly inside the edge band on every coordinate is interior,
        hence a member, and v is returned (copied) after that one test.  Any
        other point, NaN coordinates included (they fail every comparison),
        goes through the full membership check before the boundary rule.
        """
        x = _check_dim(self.dim, x)
        if ((x > self._edge_lower) & (x < self._edge_upper)).all():
            return _check_dim(self.dim, v).copy()
        if not self._inside(x):
            raise self._outside_error(x)
        v = _check_dim(self.dim, v)
        # Per-component half-line rule; the box tangent cone is a product of
        # lines/half-lines so components decouple.
        blocked = ((x <= self._edge_lower) & (v < 0.0)) | ((x >= self._edge_upper) & (v > 0.0))
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
        out = nrm > self.radius
        return np.where(out, self.center + d * (self.radius / np.where(out, nrm, 1.0)), z)

    def distance(self, x: np.ndarray) -> float:
        x = _check_dim(self.dim, x)
        return max(0.0, float(np.linalg.norm(x - self.center)) - self.radius)

    def _inside(self, x: np.ndarray) -> bool:
        return float(np.linalg.norm(x - self.center)) <= self.radius + MEMBERSHIP_TOL

    def project_field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = self._require_member(x)
        v = _check_dim(self.dim, v)
        d = x - self.center
        nrm = np.linalg.norm(d)
        if nrm < self.radius * (1.0 - BALL_BOUNDARY_RTOL):
            return v.copy()
        # On the boundary the tangent cone is the halfspace {w : w.u <= 0}
        # for the outward unit normal u; remove the outward radial component
        # iff it points out.
        u = d / nrm
        radial = float(u @ v)
        if radial <= 0.0:
            return v.copy()
        return v - radial * u

    def norm_bound(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius


@dataclass(frozen=True)
class NonnegativeOrthant(ConvexSet):
    def project_point(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(_check_dim(self.dim, z, rows=True), 0.0)

    def _inside(self, x: np.ndarray) -> bool:
        return bool((x >= -MEMBERSHIP_TOL).all())

    def project_field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Tangent-cone projection of v at x; raises MembershipError off the orthant.

        One reduction, the smallest coordinate (NaN if any coordinate is NaN,
        +inf in dimension 0), decides both interior (v is returned, copied) and
        membership.  Multipliers often sit exactly at 0, so the boundary rule
        runs on most steps.
        """
        x = _check_dim(self.dim, x)
        x_min = np.minimum.reduce(x, initial=np.inf)
        if x_min > _BOX_EDGE_TOL:
            return _check_dim(self.dim, v).copy()
        if not x_min >= -MEMBERSHIP_TOL:
            raise self._outside_error(x)
        v = _check_dim(self.dim, v)
        return np.where((x <= _BOX_EDGE_TOL) & (v < 0.0), 0.0, v)


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
