import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlesim.convex_sets import (
    _BOX_EDGE_TOL,
    MEMBERSHIP_TOL,
    Ball,
    Box,
    DimensionError,
    FullSpace,
    MembershipError,
    NonnegativeOrthant,
    StateSet,
)

from helpers import point_in_set, projection_gap, random_set


def test_box_point_projection_clamps():
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(box.project_point(np.array([1.5, 0.5])), [1.0, 0.5])


def test_ball_point_projection_radial():
    ball = Ball([0.0, 0.0], 1.0)
    assert np.allclose(ball.project_point(np.array([2.0, 0.0])), [1.0, 0.0])


def test_box_projection_matches_grid_argmin(rng):
    box = Box([0.0, 0.0], [1.0, 1.0])
    g = np.linspace(0.0, 1.0, 201)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    for _ in range(30):
        z = rng.uniform(-1.0, 2.0, size=2)
        p = box.project_point(z)
        best = grid[np.argmin(np.einsum("ij,ij->i", grid - z, grid - z))]
        assert np.linalg.norm(p - best) <= 1e-2


def test_field_projection_box_lower_bound():
    box = Box([0.0], [1.0])
    assert box.project_field(np.array([0.0]), np.array([-1.0]))[0] == 0.0
    # inward component untouched
    assert box.project_field(np.array([0.0]), np.array([1.0]))[0] == 1.0


def test_field_projection_interior_identity(rng):
    for _ in range(50):
        cset = random_set(rng)
        x = point_in_set(rng, cset, boundary=False)
        v = rng.standard_normal(cset.dim) * 3.0
        assert np.allclose(cset.project_field(x, v), v)


def test_ball_boundary_field_matches_limit_quotient():
    ball = Ball([0.0, 0.0], 1.0)
    x = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0])
    out = ball.project_field(x, v)
    delta = 1e-6
    quotient = (ball.project_point(x + delta * v) - x) / delta
    assert np.allclose(out, [0.0, 1.0], atol=1e-9)
    assert np.linalg.norm(out - quotient) <= 1e-4


def test_field_projection_limit_quotient_sweep(rng):
    delta = 1e-6
    for _ in range(500):
        cset = random_set(rng)
        x = point_in_set(rng, cset, boundary=bool(rng.random() < 0.5))
        v = rng.standard_normal(cset.dim) * 2.0
        out = cset.project_field(x, v)
        quotient = (cset.project_point(x + delta * v) - x) / delta
        assert np.linalg.norm(out - quotient) <= 1e-3


def test_projection_gap_interior_is_zero(rng):
    for _ in range(20):
        cset = random_set(rng)
        x0 = point_in_set(rng, cset, boundary=False)
        x = point_in_set(rng, cset)
        v = rng.standard_normal(cset.dim)
        assert projection_gap(cset, x0, x, v) == pytest.approx(0.0, abs=1e-12)


def test_projection_gap_box_example():
    box = Box([0.0], [1.0])
    gap = projection_gap(box, np.array([0.0]), np.array([1.0]), np.array([-1.0]))
    assert gap == pytest.approx(1.0)


def test_projection_gap_nonnegative_sweep(rng):
    for _ in range(1000):
        cset = random_set(rng)
        x0 = point_in_set(rng, cset, boundary=bool(rng.random() < 0.5))
        x = point_in_set(rng, cset, boundary=bool(rng.random() < 0.3))
        v = rng.standard_normal(cset.dim) * 3.0
        assert projection_gap(cset, x0, x, v) >= -1e-9


def test_point_projection_idempotent(rng):
    for _ in range(200):
        cset = random_set(rng)
        z = rng.standard_normal(cset.dim) * 4.0
        p = cset.project_point(z)
        assert np.linalg.norm(cset.project_point(p) - p) <= 1e-12


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(1,), (2,), (6,), (2, 3)]))
def test_point_projection_of_rows_matches_each_row(seed, lead):
    # A stack (..., n) projects row by row, bit for bit; a member row (and a
    # ball's centre, whose norm is 0) comes back as it is, without a warning.
    rng = np.random.default_rng(seed)
    cset = random_set(rng)
    Z = rng.standard_normal((*lead, cset.dim)) * rng.uniform(0.1, 4.0)
    rows = Z.reshape(-1, cset.dim)
    rows[0] = point_in_set(rng, cset)
    if isinstance(cset, Ball):
        rows[-1] = cset.center
    with np.errstate(all="raise"):
        P = cset.project_point(Z)
    assert P.shape == Z.shape
    assert np.array_equal(P.reshape(-1, cset.dim)[0], rows[0])
    for idx in np.ndindex(*lead):
        assert np.array_equal(P[idx], cset.project_point(Z[idx]))
    for bad in (np.zeros((*lead, cset.dim + 1)), np.zeros((cset.dim, 0)), np.float64(1.0)):
        with pytest.raises(DimensionError):
            cset.project_point(bad)


def test_point_projection_nonexpansive(rng):
    for _ in range(200):
        cset = random_set(rng)
        z1 = rng.standard_normal(cset.dim) * 4.0
        z2 = rng.standard_normal(cset.dim) * 4.0
        lhs = np.linalg.norm(cset.project_point(z1) - cset.project_point(z2))
        assert lhs <= np.linalg.norm(z1 - z2) + 1e-12


def test_field_projection_lands_in_tangent_cone(rng):
    # x + delta * Pi(x, v) must stay within 1e-9 * delta of the set; unit
    # fields and ball radii >= 1 keep the quadratic curvature term inside
    # that budget (d^2/(2r) <= 0.5e-18 at delta = 1e-9).
    delta = 1e-9
    for _ in range(300):
        cset = random_set(rng)
        x = point_in_set(rng, cset, boundary=bool(rng.random() < 0.6))
        v = rng.standard_normal(cset.dim)
        v /= max(np.linalg.norm(v), 1e-12)
        out = cset.project_field(x, v)
        if isinstance(cset, Ball):
            # stable closed form of dist(x + delta*out, ball)
            step = delta * np.linalg.norm(out)
            d = np.linalg.norm(x - cset.center)
            if d >= cset.radius * (1.0 - 1e-9):
                dist = step * step / (cset.radius + np.hypot(cset.radius, step))
            else:
                dist = 0.0
        else:
            dist = cset.distance(x + delta * out)
        assert dist <= 1e-9 * delta + 1e-30


def test_membership_error_outside(rng):
    box = Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(MembershipError):
        box.project_field(np.array([1.5, 0.5]), np.array([1.0, 0.0]))
    ball = Ball([0.0, 0.0], 1.0)
    with pytest.raises(MembershipError):
        projection_gap(ball, np.array([2.0, 0.0]), np.array([0.0, 0.0]), np.array([1.0, 0.0]))


def test_box_field_nan_coordinate_raises():
    box = Box([0.0, 0.0], [1.0, 1.0])
    v = np.array([1.0, -1.0])
    for x in ([np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan], [0.0, np.nan]):
        with pytest.raises(MembershipError):
            box.project_field(np.array(x), v)
    with pytest.raises(MembershipError):
        NonnegativeOrthant(2).project_field(np.array([1.0, np.nan]), v)


def test_field_just_outside_tolerance_raises():
    # 2 * MEMBERSHIP_TOL past each face is outside; half of it is a member
    # (boundary rule applies: the outward component is removed).
    box = Box([0.0, -1.0], [1.0, 2.0])
    for i in range(2):
        for face, sign in ((box.lower, -1.0), (box.upper, 1.0)):
            x = 0.5 * (box.lower + box.upper)
            x[i] = face[i] + sign * 2.0 * MEMBERSHIP_TOL
            with pytest.raises(MembershipError):
                box.project_field(x, np.ones(2))
            x[i] = face[i] + sign * 0.5 * MEMBERSHIP_TOL
            out = box.project_field(x, sign * np.ones(2))
            assert out[i] == 0.0 and out[1 - i] == sign
    orth = NonnegativeOrthant(2)
    with pytest.raises(MembershipError):
        orth.project_field(np.array([1.0, -2.0 * MEMBERSHIP_TOL]), np.ones(2))
    assert np.array_equal(
        orth.project_field(np.array([1.0, -0.5 * MEMBERSHIP_TOL]), -np.ones(2)), [-1.0, 0.0])


def test_interior_field_checks_dimension_and_copies():
    for cset, x in ((Box([0.0, 0.0], [1.0, 1.0]), np.array([0.5, 0.5])),
                    (NonnegativeOrthant(2), np.array([1.0, 1.0]))):
        with pytest.raises(DimensionError):
            cset.project_field(x, np.ones(3))
        with pytest.raises(DimensionError):
            cset.project_field(np.ones(3), np.ones(2))
        v = np.array([1.0, -1.0])
        out = cset.project_field(x, v)
        assert np.array_equal(out, v) and out is not v


def test_dimension_errors():
    box = Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionError):
        box.project_point(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)


def test_norm_bounds():
    assert Box([-1.0, -2.0], [2.0, 1.0]).norm_bound() == pytest.approx(np.sqrt(4.0 + 4.0))
    assert Ball([3.0, 0.0], 2.0).norm_bound() == pytest.approx(5.0)
    assert np.isinf(FullSpace(2).norm_bound())
    assert np.isinf(NonnegativeOrthant(2).norm_bound())
    assert np.isinf(Box([0.0], [np.inf]).norm_bound())


def test_whole_space_and_orthant_are_boxes_with_infinite_bounds():
    # The box rules hold at non-finite states too: a coordinate at +inf
    # blocks an outward field, and NaN is outside the whole space.
    for cset, lower in ((FullSpace(2), -np.inf), (NonnegativeOrthant(2), 0.0)):
        assert isinstance(cset, Box)
        assert np.array_equal(cset.lower, [lower] * 2) and np.array_equal(cset.upper, [np.inf] * 2)
        assert np.array_equal(cset.project_field(np.array([np.inf, 1.0]), np.ones(2)), [0.0, 1.0])
    with pytest.raises(MembershipError):
        FullSpace(2).project_field(np.array([np.nan, 1.0]), np.ones(2))


def test_orthant_field_rule():
    orth = NonnegativeOrthant(3)
    x = np.array([0.0, 1.0, 0.0])
    v = np.array([-2.0, -2.0, 3.0])
    assert np.allclose(orth.project_field(x, v), [0.0, -2.0, 3.0])


# Property tests for the two field projections the integrators use.  Members
# are drawn with every coordinate on its lower face, on its upper face or
# strictly inside, so faces, corners and infinite bounds all occur.
_coord = st.floats(-3.0, 3.0, allow_nan=False)
_field = st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False)),
                  min_size=5, max_size=5)


@st.composite
def box_and_members(draw, count=1):
    dim = draw(st.integers(1, 5))
    lower, upper = [], []
    for _ in range(dim):
        lo = draw(st.one_of(st.just(-np.inf), _coord))
        hi = draw(st.one_of(st.just(np.inf), st.floats(0.1, 3.0).map(
            lambda w, lo=lo: (0.0 if np.isinf(lo) else lo) + w)))
        lower.append(lo)
        upper.append(hi)
    box = Box(lower, upper)
    members = []
    for _ in range(count):
        x = np.empty(dim)
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            where = draw(st.sampled_from([w for w, b in (("lower", lo), ("upper", hi))
                                          if np.isfinite(b)] + ["inside"]))
            if where == "lower":
                x[i] = lo
            elif where == "upper":
                x[i] = hi
            else:
                # At least 0.05 from a finite bound: 1e-7 * |v| never reaches it.
                a = lo if np.isfinite(lo) else hi - 3.0 if np.isfinite(hi) else -3.0
                b = hi if np.isfinite(hi) else a + 3.0
                x[i] = a + draw(st.floats(0.05, 0.95)) * (b - a)
        members.append(x)
    return box, members


@st.composite
def orthant_and_members(draw, count=1):
    dim = draw(st.integers(1, 5))
    coord = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    return NonnegativeOrthant(dim), [np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
                                     for _ in range(count)]


def check_field_is_the_limit_quotient(cset, x, v):
    delta = 1e-7
    quotient = (cset.project_point(x + delta * v) - x) / delta
    # Blocked components clamp back onto x exactly, so they are exactly 0;
    # the free ones lose only the rounding of x + delta * v.
    np.testing.assert_allclose(cset.project_field(x, v), quotient, rtol=0.0, atol=1e-7)


@settings(max_examples=300, deadline=None, database=None)
@given(case=box_and_members(), field=_field)
def test_box_field_is_the_limit_quotient(case, field):
    box, (x,) = case
    check_field_is_the_limit_quotient(box, x, np.array(field[:box.dim]))


@settings(max_examples=300, deadline=None, database=None)
@given(case=orthant_and_members(), field=_field)
def test_orthant_field_is_the_limit_quotient(case, field):
    orth, (x,) = case
    check_field_is_the_limit_quotient(orth, x, np.array(field[:orth.dim]))


@settings(max_examples=300, deadline=None, database=None)
@given(case=st.one_of(box_and_members(count=2), orthant_and_members(count=2)), field=_field)
def test_projection_gap_is_nonnegative_for_members(case, field):
    cset, (x0, x) = case
    assert projection_gap(cset, x0, x, np.array(field[:cset.dim])) >= -1e-12


def test_rows_field_projection_is_each_row_alone(rng):
    # Rows of members, interior and on the boundary, with their fields: a
    # stack projects each row to the bits of the row alone, and one row off
    # the set raises with that row's distance.
    for _ in range(300):
        cset = random_set(rng)
        R = int(rng.integers(1, 5))
        X = np.array([point_in_set(rng, cset, boundary=bool(rng.random() < 0.5)) for _ in range(R)])
        V = rng.standard_normal((R, cset.dim)) * 3.0
        out = cset.project_field(X, V)
        assert out.shape == X.shape
        for r in range(R):
            assert np.array_equal(out[r], cset.project_field(X[r], V[r]))
        bad = int(rng.integers(R))
        X[bad] = X[bad] - 5.0 if isinstance(cset, NonnegativeOrthant) else X[bad] + 5.0
        with pytest.raises(MembershipError, match=re.escape(f"distance {cset.distance(X[bad]):.3e} ")):
            cset.project_field(X, V)


# Bit patterns of the field projections.  The boundary rule writes +0.0
# where it blocks a component and keeps v's own bits (-0.0, NaN payloads,
# infinities) everywhere else; the reference is that np.where rule written
# out.  Fields hold signed zeros, NaN and infinities; members hold signed
# zeros on faces at 0.
_special = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300])
_field_entry = st.one_of(_special, st.floats(-3.0, 3.0, allow_nan=False))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@st.composite
def box_rows(draw):
    dim, R = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lower = draw(st.lists(st.sampled_from([-np.inf, -1.0, 0.0]), min_size=dim, max_size=dim))
    upper = [lo + 1.0 if np.isfinite(lo) else draw(st.sampled_from([0.0, 1.0, np.inf]))
             for lo in lower]
    X = np.empty((R, dim))
    for r in range(R):
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            faces = [b for b in (lo, hi) if np.isfinite(b)] + [-0.0] * (0.0 in (lo, hi))
            inside = (lo + hi) / 2.0 if np.isfinite(lo + hi) else (lo + 1.0 if np.isfinite(lo)
                                                                  else hi - 1.0 if np.isfinite(hi)
                                                                  else 0.5)
            X[r, i] = draw(st.sampled_from(faces + [inside]))
    V = np.array(draw(st.lists(_field_entry, min_size=R * dim, max_size=R * dim))).reshape(R, dim)
    return Box(lower, upper), X, V


@settings(max_examples=400, deadline=None, database=None)
@given(case=box_rows())
def test_box_field_bits_are_the_where_rule(case):
    box, X, V = case
    lo, hi = box.lower + _BOX_EDGE_TOL, box.upper - _BOX_EDGE_TOL
    ref = np.where(((X <= lo) & (V < 0.0)) | ((X >= hi) & (V > 0.0)), 0.0, V)
    assert np.array_equal(_bits(box.project_field(X, V)), _bits(ref))
    assert np.array_equal(_bits(box.project_field(X[0], V[0])), _bits(ref[0]))


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data(), dim=st.integers(1, 5), R=st.integers(1, 3))
def test_orthant_field_bits_are_the_where_rule(data, dim, R):
    coord = st.sampled_from([0.0, -0.0, 1e-13, 0.5, 2.0])
    X = np.array(data.draw(st.lists(coord, min_size=R * dim, max_size=R * dim))).reshape(R, dim)
    V = np.array(data.draw(st.lists(_field_entry, min_size=R * dim, max_size=R * dim)))
    V = V.reshape(R, dim)
    orth = NonnegativeOrthant(dim)
    ref = np.where((X <= _BOX_EDGE_TOL) & (V < 0.0), 0.0, V)
    assert np.array_equal(_bits(orth.project_field(X, V)), _bits(ref))
    assert np.array_equal(_bits(orth.project_field(X[0], V[0])), _bits(ref[0]))


# The integrator steps by project_point(x + h * v) and takes the tangent-cone
# field only for its norm.  On a box or an orthant the two steps agree bit for
# bit from a member whose near-face coordinates sit exactly on their faces: a
# blocked coordinate clamps back onto the face's own bits either way, and a
# free one takes the same x + h * v.
_h = st.floats(1e-6, 1.0)


def check_raw_step_is_tangent_step(cset, X, V, h):
    tangent = cset.project_point(X + h * cset.project_field(X, V))
    assert np.array_equal(_bits(cset.project_point(X + h * V)), _bits(tangent))


@settings(max_examples=300, deadline=None, database=None)
@given(case=box_and_members(), field=_field, h=_h)
def test_box_raw_step_is_the_tangent_step(case, field, h):
    box, (x,) = case
    check_raw_step_is_tangent_step(box, x, np.array(field[:box.dim]), h)


@settings(max_examples=300, deadline=None, database=None)
@given(case=box_rows(), h=_h)
def test_box_raw_step_is_the_tangent_step_on_signed_zeros_and_specials(case, h):
    check_raw_step_is_tangent_step(*case, h)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), dim=st.integers(1, 5), R=st.integers(1, 3), h=_h)
def test_orthant_raw_step_is_the_tangent_step(data, dim, R, h):
    coord = st.sampled_from([0.0, -0.0, 0.5, 2.0])
    X = np.array(data.draw(st.lists(coord, min_size=R * dim, max_size=R * dim))).reshape(R, dim)
    V = np.array(data.draw(st.lists(_field_entry, min_size=R * dim, max_size=R * dim)))
    check_raw_step_is_tangent_step(NonnegativeOrthant(dim), X, V.reshape(R, dim), h)


def test_raw_step_differs_off_the_face_inside_the_edge_band():
    # Within _BOX_EDGE_TOL of a face but not on it, the tangent field counts
    # the coordinate as on the face and holds it in place; the raw step clips
    # it onto the face.
    x, v = np.array([0.5 * _BOX_EDGE_TOL, 0.5]), np.array([-1.0, -1.0])
    for cset in (Box([0.0, 0.0], [1.0, 1.0]), NonnegativeOrthant(2)):
        assert cset.project_point(x + 0.1 * cset.project_field(x, v)).tolist() == [x[0], 0.4]
        assert cset.project_point(x + 0.1 * v).tolist() == [0.0, 0.4]


# The saddle state set X x R+^m on joined rows [x | lam].  A joined row
# projects to the bits of its x slice projected onto X and its lam slice onto
# the orthant (on a box or the whole space by one clip of the joined row), and
# a field projection raises the error of the first factor a state leaves, the
# actions before the multipliers.  States sit on faces, inside, off the set,
# at -0.0, NaN or an infinity, on boxes with infinite bounds.
_off = st.sampled_from([5.0, -5.0, -1e-6, -0.0, np.nan, np.inf, -np.inf])


@st.composite
def joined_rows(draw):
    box, X, V = draw(box_rows())
    (R, dim), m = X.shape, draw(st.integers(1, 3))
    cset = draw(st.sampled_from([box, FullSpace(dim), Ball(np.zeros(dim), 2.0)]))
    lam = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 2.0]), min_size=R * m,
                                 max_size=R * m))).reshape(R, m)
    W = np.array(draw(st.lists(_field_entry, min_size=R * m, max_size=R * m))).reshape(R, m)
    Z, U = np.hstack([X, lam]), np.hstack([V, W])
    for _ in range(draw(st.integers(0, 3))):  # entries moved off their set
        Z[draw(st.integers(0, R - 1)), draw(st.integers(0, dim + m - 1))] = draw(_off)
    return cset, Z, U


def _factors(cset, Z):
    m = Z.shape[-1] - cset.dim
    return StateSet(cset, m), NonnegativeOrthant(m), cset.dim


@settings(max_examples=400, deadline=None, database=None)
@given(case=joined_rows())
def test_state_set_projects_each_factor_bit_for_bit(case):
    cset, Z, _ = case
    S, Lam, n = _factors(cset, Z)
    with np.errstate(all="ignore"):  # a ball meets inf / inf
        ref = np.concatenate([cset.project_point(Z[:, :n]), Lam.project_point(Z[:, n:])], axis=1)
        assert np.array_equal(_bits(S.project_point(Z)), _bits(ref))
        assert np.array_equal(_bits(S.project_point(Z[0])), _bits(ref[0]))


@settings(max_examples=400, deadline=None, database=None)
@given(case=joined_rows())
def test_state_set_field_raises_the_first_factors_error(case):
    cset, Z, U = case
    S, Lam, n = _factors(cset, Z)
    with np.errstate(all="ignore"):  # the distance of an infinite state meets inf - inf
        try:
            ref = np.concatenate([cset.project_field(Z[:, :n], U[:, :n]),
                                  Lam.project_field(Z[:, n:], U[:, n:])], axis=1)
        except MembershipError as err:
            with pytest.raises(MembershipError, match=re.escape(str(err))):
                S.project_field(Z, U)
        else:
            assert np.array_equal(_bits(S.project_field(Z, U)), _bits(ref))


@settings(max_examples=200, deadline=None, database=None)
@given(case=joined_rows())
def test_row_projector_projects_in_place_bit_for_bit(case):
    cset, Z, _ = case
    S, _, n = _factors(cset, Z)
    with np.errstate(all="ignore"):  # a ball meets inf / inf
        for s, z in ((cset, Z[:, :n]), (S, Z)):
            y = z.copy()
            s.row_projector(z)(y)
            assert np.array_equal(_bits(y), _bits(s.project_point(z)))


def test_row_projector_is_project_point_on_special_rows():
    # The integrator's in-place projector, bound once per call, against
    # project_point: NaN, +-inf, -0.0 at a 0 bound and values on a bound, in
    # one row alone, a stack of rows and a block of stacks.
    sets = [Box([-1.0, 0.0, -2.0], [1.0, 0.5, 0.0]), FullSpace(3), NonnegativeOrthant(3),
            StateSet(Box([-1.0, 0.0], [1.0, 0.5]), 1), StateSet(Ball([0.0, 0.0], 1.0), 1)]
    rows = np.array([[np.nan, -0.0, -0.0], [np.inf, -np.inf, 0.0], [-1.0, 0.5, -2.0],
                     [1.0, 0.0, 0.0], [-np.inf, np.nan, np.inf], [2.5, -0.25, 0.3],
                     [-0.0, 0.25, -0.0]])
    with np.errstate(all="ignore"):  # a ball meets inf / inf
        for cset in sets:
            for z in (rows[0], rows, np.stack([rows, rows[::-1]])):
                y = z.copy()
                cset.row_projector(z)(y)
                assert np.array_equal(_bits(y), _bits(cset.project_point(z))), cset
            for bad in (np.zeros(4), np.zeros((2, 2))):
                with pytest.raises(DimensionError):
                    cset.row_projector(bad)
                with pytest.raises(DimensionError):
                    cset.project_point(bad)
    # A -0.0 clamped at a 0 lower bound comes out +0.0, as np.maximum gives it.
    y = np.array([[-0.0, 1.0, 2.0]])
    NonnegativeOrthant(3).row_projector(y)(y)
    assert not np.signbit(y[0, 0])


def test_state_set_on_a_box_is_the_joined_box():
    S = StateSet(Box([-1.0, 0.0], [1.0, np.inf]), 2)
    assert S.dim == 4
    assert S.project_point(np.array([2.0, -1.0, -3.0, 4.0])).tolist() == [1.0, 0.0, 0.0, 4.0]
    # Both factors off: the actions' distance is named, not the joined row's.
    with pytest.raises(MembershipError, match=r"distance 1\.000e\+00 "):
        S.project_field(np.array([2.0, 0.0, -2.0, 0.0]), np.zeros(4))
