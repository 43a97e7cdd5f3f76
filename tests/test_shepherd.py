import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre, polynomial

from saddlesim import shepherd
from saddlesim.offline import check_viability

from helpers import assert_same_fields, decode_coeffs, finite_diff_check, midpoint_convex


def basis_row(kind, n, t, T):
    """Values, first and second derivatives of the basis at the single time t."""
    P, Pd, Pdd = shepherd.basis_matrices(kind, n, [t], T)
    return P[0], Pd[0], Pdd[0]


def test_basis_monomial_at_zero():
    p, pd, pdd = basis_row("monomial", 5, 0.0, 1.0)
    assert np.allclose(p, [1, 0, 0, 0, 0])
    assert np.allclose(pd, [0, 1, 0, 0, 0])
    assert np.allclose(pdd, [0, 0, 2, 0, 0])


def test_basis_monomial_at_one():
    p, pd, pdd = basis_row("monomial", 3, 1.0, 1.0)
    assert np.allclose(p, [1, 1, 1])
    assert np.allclose(pd, [0, 1, 2])
    assert np.allclose(pdd, [0, 0, 2])


@pytest.mark.parametrize("kind", ["legendre", "monomial"])
def test_basis_derivatives_match_central_differences(kind):
    n, T = 12, 1.5
    h = 1e-6
    for t in (0.2, 0.5, 1.1):
        p0, pd0, pdd0 = basis_row(kind, n, t, T)
        pp, pdp, _ = basis_row(kind, n, t + h, T)
        pm, pdm, _ = basis_row(kind, n, t - h, T)
        assert np.max(np.abs((pp - pm) / (2 * h) - pd0)) <= 1e-7
        assert np.max(np.abs((pdp - pdm) / (2 * h) - pdd0)) <= 1e-7


def test_basis_matrices_match_numpy_polynomials(rng):
    ts = np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, size=7)])
    T, n, eye = 2.0, 9, np.eye(9)
    u = 2.0 * ts / T - 1.0
    for kind, values, deriv, arg, scale in (
        ("legendre", legendre.legval, legendre.legder, u, 2.0 / T),
        ("monomial", polynomial.polyval, polynomial.polyder, ts, 1.0),
    ):
        P, Pd, Pdd = shepherd.basis_matrices(kind, n, ts, T)
        assert np.allclose(P, values(arg, eye).T)
        assert np.allclose(Pd, scale * values(arg, deriv(eye, 1)).T)
        assert np.allclose(Pdd, scale**2 * values(arg, deriv(eye, 2)).T)
        # The values alone are the bits of the values with the derivatives,
        # at the endpoints 0 and T too.
        for size in (1, 2, 3, 30):
            P = shepherd.basis_values(kind, size, ts, T)
            assert P.shape == (ts.size, size) and P.flags.c_contiguous
            assert P.tobytes() == shepherd.basis_matrices(kind, size, ts, T)[0].tobytes()


@pytest.mark.parametrize("kind", ["legendre", "monomial"])
def test_acceleration_gram_matches_quadrature(kind):
    n, T = 8, 1.3

    def trapz_gram(num):
        ts = np.linspace(0.0, T, num)
        _, _, Pdd = shepherd.basis_matrices(kind, n, ts, T)
        return np.trapezoid(Pdd[:, :, None] * Pdd[:, None, :], ts, axis=0)

    G = shepherd.acceleration_gram(kind, n, T)
    coarse, fine = trapz_gram(2001), trapz_gram(4001)
    G_quad = fine + (fine - coarse) / 3.0  # Richardson-extrapolated trapezoid
    assert np.max(np.abs(G - G_quad)) <= 1e-6 * max(1.0, np.max(np.abs(G)))


def test_straight_line_path_for_no_waypoints():
    sc = shepherd.generate_sheep_paths(seed=5, m=2, L=0, noise_std=0.0, n=8, n_sheep=8,
                                       noise_cells=100)
    ts = np.linspace(0.0, sc.T, 50)
    Y = shepherd.sheep_positions(sc, ts)
    for i in range(sc.m):
        assert np.max(np.abs(Y[:, i, 0] - ts / sc.T)) <= 1e-8
        assert np.max(np.abs(Y[:, i, 1] - ts / sc.T)) <= 1e-8


def test_waypoint_and_endpoint_residuals(benchmark_scenario):
    sc = benchmark_scenario
    con_times = np.concatenate([[0.0], (np.arange(1, sc.L + 1) * sc.T) / (sc.L + 1), [sc.T]])
    P, _, _ = shepherd.basis_matrices(sc.basis, sc.n_sheep, con_times, sc.T)
    for i in range(sc.m):
        targets = np.vstack([[0.0, 0.0], sc.waypoints + sc.offsets[i], [1.0, 1.0]])
        recon = np.stack([P @ sc.sheep_coeffs[i, 0], P @ sc.sheep_coeffs[i, 1]], axis=1)
        resid = np.abs(recon - targets)
        assert resid[0].max() <= 1e-8 and resid[-1].max() <= 1e-8
        assert resid.max() <= 1e-6


def test_first_sheep_has_zero_offsets(benchmark_scenario):
    assert np.all(benchmark_scenario.offsets[0] == 0.0)


def test_qp_objective_matches_acceleration_quadrature(benchmark_scenario):
    sc = benchmark_scenario
    G = shepherd.acceleration_gram(sc.basis, sc.n_sheep, sc.T)

    def quad_accel(coef, num):
        ts = np.linspace(0.0, sc.T, num)
        _, _, Pdd = shepherd.basis_matrices(sc.basis, sc.n_sheep, ts, sc.T)
        return float(np.trapezoid((Pdd @ coef) ** 2, ts))

    for i in range(2):
        for c in range(2):
            coef = sc.sheep_coeffs[i, c]
            exact = float(coef @ G @ coef)
            fine, coarse = quad_accel(coef, 20001), quad_accel(coef, 10001)
            quad = fine + (fine - coarse) / 3.0
            assert abs(exact - quad) <= 1e-6 * max(1.0, abs(exact))


def test_sheep_position_deterministic(benchmark_scenario):
    a = shepherd.sheep_positions(benchmark_scenario, [0.437])[0, 2]
    b = shepherd.sheep_positions(benchmark_scenario, [0.437])[0, 2]
    assert np.array_equal(a, b)


def test_noise_variance_matches_sigma(benchmark_scenario):
    noise = benchmark_scenario.noise
    assert noise.size == 10_000
    assert abs(noise.var() - benchmark_scenario.noise_std**2) <= 0.1 * benchmark_scenario.noise_std**2


def test_noise_sample_and_hold(benchmark_scenario):
    sc = benchmark_scenario
    smooth = shepherd.ShepherdScenario(
        **{**{f: getattr(sc, f) for f in sc.__dataclass_fields__}, "noise_std": 0.0})
    cell_width = sc.T / sc.noise_cells
    for frac in (0.1, 0.9):
        t = (13 + frac) * cell_width
        noisy = shepherd.sheep_positions(sc, [t])[0, 0]
        poly = shepherd.sheep_positions(smooth, [t])[0, 0]
        assert np.allclose(noisy - poly, sc.noise[0, :, 13])


def test_min_acceleration_objective_zero_on_straight_line(small_scenario):
    env = shepherd.shepherd_env(small_scenario, "min_acceleration")
    n = small_scenario.n
    coeffs = np.zeros((2, n))
    # straight line through the basis: constant + linear term only
    if small_scenario.basis == "legendre":
        coeffs[:, 0] = 0.5
        coeffs[:, 1] = 0.5
    else:
        coeffs[:, 1] = 1.0 / small_scenario.T
    x = shepherd.encode_coeffs(coeffs)
    for t in (0.0, 0.37, small_scenario.T):
        f0 = env.eval_full(t, x)[0]
        assert f0 == pytest.approx(0.0, abs=1e-9)


def test_shepherd_env_subgradients_finite_diff(rng, small_scenario):
    for objective in ("none", "black_sheep", "min_acceleration"):
        env = shepherd.shepherd_env(small_scenario, objective)
        for _ in range(10):
            t = rng.uniform(0.0, small_scenario.T)
            x = rng.uniform(-1.0, 1.0, size=env.n)
            assert finite_diff_check(env, t, x, 1e-6) <= 1e-5


def test_constraints_convex_in_action(rng, small_scenario):
    env = shepherd.shepherd_env(small_scenario, "none")
    t = 0.29

    def fun(x):
        return env.eval_full(t, x)[2]

    assert midpoint_convex(fun, rng, env.n, samples=150)


def test_encoding_round_trip(rng):
    coeffs = rng.standard_normal((2, 7))
    x = shepherd.encode_coeffs(coeffs)
    assert x.shape == (14,)
    assert np.array_equal(decode_coeffs(x, 7), coeffs)
    with pytest.raises(ValueError):
        decode_coeffs(x, 5)


def test_scenario_ships_viability_certificate(benchmark_scenario):
    sc = benchmark_scenario
    assert sc.viability_residual <= 1e-6
    env = shepherd.shepherd_env(sc, "none", noise="mean")
    vals = env.batch_constraints(sc.offline_grid().nodes(), sc.xdagger)
    assert vals.max() == pytest.approx(sc.viability_residual, abs=1e-12)


def test_tight_herd_always_viable():
    # all sheep inside a ball of diameter well under 2r: certification must succeed
    sc = shepherd.generate_sheep_paths(seed=11, m=4, offset_box=0.01, noise_std=0.0,
                                       n=10, n_sheep=10, L=2, noise_cells=200)
    assert sc.viability_residual <= 1e-6
    ts = sc.offline_grid().nodes()
    Y = shepherd.sheep_positions(sc, ts)
    spread = np.max(np.linalg.norm(Y[:, :, None, :] - Y[:, None, :, :], axis=3))
    assert spread < 2 * sc.radii[0]


def lagrangian_terms(env, ts, xs, w, mu):
    """Per-node reference: f0 (K,), f (K, m) and the terms w_k g0_k + G_k mu_k
    (K, n), assembled from grid_evaluator evaluations at the rows of xs."""
    at = env.grid_evaluator(ts)
    evals = [at(k, xs[k]) for k in range(len(ts))]
    terms = np.array([w[k] * g0 + G @ mu[k] for k, (_, g0, _, G) in enumerate(evals)])
    return np.array([e[0] for e in evals]), np.array([e[2] for e in evals]), terms


def check_batch_and_scalar_eval_agree(rng, sc, objective, noise, ts=None):
    on_grid = ts is None
    ts = sc.offline_grid().nodes() if on_grid else np.asarray(ts, dtype=float)
    K = ts.shape[0]
    base = shepherd.shepherd_env(sc, objective, noise=noise)
    # 0.1 off the first sheep's path in both coordinates (the constant Legendre
    # coefficient), so the saturation floor binds at some nodes and not others.
    near = shepherd.encode_coeffs(sc.sheep_coeffs[0, :, :sc.n])
    near[[0, sc.n]] += 0.1
    for env, x in ((base, rng.uniform(-1.0, 1.0, size=base.n)),
                   (base.saturate(0.05), near + rng.uniform(-0.01, 0.01, size=base.n))):
        w = rng.uniform(0.0, 1.0, size=K)
        mu = rng.uniform(0.0, 2.0, size=(K, env.m))
        w[::7] = 0.0
        mu[::5] = 0.0
        xs = x + rng.uniform(-0.01, 0.01, size=(K, env.n))
        # One action for every node, then one action per node.
        for xb, total in ((x, lambda t: t.sum(axis=0)), (xs, lambda t: t)):
            f0, f, pull = env.batch_evaluate(ts, xb)
            grad = pull(w, mu)
            r_f0, r_f, terms = lagrangian_terms(env, ts, np.broadcast_to(xb, xs.shape), w, mu)
            assert f0.shape == (K,) and f.shape == (K, env.m) and grad.shape == xb.shape
            # The batch sums run in another order than the per-node dots, so
            # values agree to rounding, not bit for bit.
            np.testing.assert_allclose(f0, r_f0, rtol=1e-12, atol=1e-12 * np.abs(r_f0).max())
            np.testing.assert_allclose(f, r_f, rtol=1e-12, atol=1e-12 * np.abs(r_f).max())
            ref = total(terms)
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()
        if env is not base and on_grid:
            assert (f == -0.05).any() and (f > -0.05).any()


def test_batch_and_scalar_eval_agree(rng, small_scenario):
    # Also with a shepherd basis smaller than the sheep basis.
    for sc in (small_scenario, dataclasses.replace(small_scenario, n=6)):
        for objective in shepherd.OBJECTIVES:
            for noise in shepherd.NOISE_VARIANTS:
                check_batch_and_scalar_eval_agree(rng, sc, objective, noise)


@pytest.mark.parametrize("nodes", ["one", "unsorted", "repeated"])
def test_batch_and_scalar_eval_agree_off_the_offline_grid(rng, small_scenario, nodes):
    # The planar tables on node sets the offline grid never is: a single
    # node, nodes out of order and a node given twice.
    T = small_scenario.T
    ts = {"one": [0.37 * T],
          "unsorted": rng.permutation(np.concatenate([[0.0, T], rng.uniform(0.0, T, size=9)])),
          "repeated": np.array([0.2, 0.5, 0.5, 0.9, 0.2]) * T}[nodes]
    for sc in (small_scenario, dataclasses.replace(small_scenario, n=6)):
        for objective in shepherd.OBJECTIVES:
            for noise in shepherd.NOISE_VARIANTS:
                check_batch_and_scalar_eval_agree(rng, sc, objective, noise, ts)


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), objective=st.sampled_from(shepherd.OBJECTIVES),
       spread=st.floats(0.01, 1.0))
def test_grid_lagrangian_gradient_matches_finite_difference(small_scenario, seed, objective,
                                                            spread):
    # sum_k w_k f0 + mu_k . f is smooth in x for every objective away from zero
    # acceleration, which random points do not hit.
    sc = small_scenario
    rng = np.random.default_rng(seed)
    env = shepherd.shepherd_env(sc, objective, noise="mean")
    ts = np.sort(rng.uniform(0.0, sc.T, size=int(rng.integers(2, 60))))
    w = rng.uniform(0.0, 1.0, size=ts.shape[0])
    mu = rng.uniform(0.0, 1.0, size=(ts.shape[0], env.m))
    x = shepherd.encode_coeffs(sc.sheep_coeffs.mean(axis=0)) + spread * rng.standard_normal(env.n)

    def lagrangian(xv):
        f0, f, _ = env.batch_evaluate(ts, xv)
        return w @ f0 + np.sum(mu * f)

    grad = env.batch_evaluate(ts, x)[2](w, mu)
    h = 1e-6
    fd = np.array([(lagrangian(x + h * e) - lagrangian(x - h * e)) / (2.0 * h)
                   for e in np.eye(env.n)])
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_batch_tables_follow_the_node_set(small_scenario):
    # Node sets of one length and the same endpoints are different grids, and
    # a caller may refill its array in place between calls.
    sc = small_scenario
    env = shepherd.shepherd_env(sc)
    ts = np.array([0.0, 0.2, 1.0]) * sc.T
    w, mu = np.ones(3), np.ones((3, sc.m))
    for mid in (0.2, 0.7, 0.2):
        ts[1] = mid * sc.T
        fresh = shepherd.shepherd_env(sc)
        assert np.array_equal(env.batch_constraints(ts, sc.xdagger),
                              fresh.batch_constraints(ts, sc.xdagger))
        (f0, f, pull), (f0_fresh, f_fresh, pull_fresh) = (
            e.batch_evaluate(ts, sc.xdagger) for e in (env, fresh))
        for u, v in ((f0, f0_fresh), (f, f_fresh), (pull(w, mu), pull_fresh(w, mu))):
            assert np.array_equal(u, v)


@pytest.mark.parametrize("noise", shepherd.NOISE_VARIANTS)
def test_sheep_positions_are_the_evaluator_tables(rng, small_scenario, noise):
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, small_scenario.T, size=9)),
                         [small_scenario.T]])
    K = ts.shape[0]
    for sc in (small_scenario, dataclasses.replace(small_scenario, n=small_scenario.n - 5)):
        env = shepherd.shepherd_env(sc, noise=noise)
        Y = shepherd.sheep_positions(
            sc if noise == "frozen" else dataclasses.replace(sc, noise_std=0.0), ts)
        # At the zero action the subgradient of constraint i is 2 p (0 - y_i),
        # and p_0 = 1, so rows 0 and n of G hold -2 y_i exactly.
        at = env.grid_evaluator(ts)
        per_node = np.array([at(k, np.zeros(env.n))[3][[0, sc.n]].T for k in range(K)])
        assert np.array_equal(per_node / -2.0, Y)
        # The batch pair at one zero action per node with mu the indicator of
        # sheep i: row k of grad is 2 p_k (0 - y_ki).
        xs = np.zeros((K, env.n))
        for i in range(sc.m):
            mu = np.zeros((K, sc.m))
            mu[:, i] = 1.0
            _, f, pull = env.batch_evaluate(ts, xs)
            grad = pull(np.zeros(K), mu)
            assert np.array_equal(grad[:, [0, sc.n]] / -2.0, Y[:, i])
            assert np.array_equal(env.batch_constraints(ts, xs), f)


@pytest.mark.parametrize("objective", shepherd.OBJECTIVES)
@pytest.mark.parametrize("noise", shepherd.NOISE_VARIANTS)
def test_grid_evaluator_matches_eval_full(rng, small_scenario, objective, noise):
    sheep_basis_differs = dataclasses.replace(small_scenario, n=small_scenario.n - 5)
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, small_scenario.T, size=9)),
                         [small_scenario.T]])
    for sc in (small_scenario, sheep_basis_differs):
        env = shepherd.shepherd_env(sc, objective, noise=noise)
        # Near the first sheep's path, so the saturation floor binds.
        near = shepherd.encode_coeffs(sc.sheep_coeffs[0, :, :sc.n])
        for e in (env, env.saturate(0.05)):
            at = e.grid_evaluator(ts)
            # eval_full is the one-node table.
            for k, t in enumerate(ts):
                x = near + rng.uniform(-0.01, 0.01, size=e.n)
                for u, v in zip(at(k, x), e.eval_full(t, x)):
                    assert np.array_equal(u, v)


@pytest.mark.parametrize("objective", shepherd.OBJECTIVES)
def test_per_node_evaluator_is_its_separate_products_bit_for_bit(rng, small_scenario, objective):
    # The checked per-node outputs against each product formed alone from the
    # basis rows and the sheep positions: z and a as 1-D dot products,
    # f = |z - y|^2 - r^2, G = 2p (x) d, and g0 = p'' (x) a / |a| (the first
    # column of G for black sheep), whatever layout the evaluator keeps them in.
    sc, nb = small_scenario, small_scenario.n
    ts = np.sort(rng.uniform(0.0, sc.T, size=5))
    at = shepherd.shepherd_env(sc, objective).grid_evaluator(ts)
    P, _, Pdd = shepherd.basis_matrices(sc.basis, nb, ts, sc.T)
    Y = shepherd.sheep_positions(sc, ts)  # (K, m, 2)
    for k in range(ts.size):
        x = sc.xdagger + rng.uniform(-0.5, 0.5, size=2 * nb)
        f0, g0, f, G = at(k, x)
        coords = x.reshape(2, nb)
        z = np.array([c @ P[k] for c in coords])
        d = z[:, None] - Y[k].T
        assert np.array_equal(f, d[0] * d[0] + d[1] * d[1] - sc.radii**2)
        assert np.array_equal(G, ((2.0 * P[k])[None, :, None] * d[:, None, :]).reshape(2 * nb, -1))
        if objective == "min_acceleration":
            a = np.array([c @ Pdd[k] for c in coords])
            norm = np.hypot(a[0], a[1])
            assert f0 == norm and np.array_equal(g0, (Pdd[k][None] * (a / norm)[:, None]).ravel())
        elif objective == "black_sheep":
            assert f0 == f[0] + sc.radii[0]**2 and np.array_equal(g0, G[:, 0])
        else:
            assert f0 == 0.0 and not g0.any()


def test_mean_env_shifts_constraints(small_scenario):
    sc = small_scenario
    env_off = shepherd.shepherd_env(sc, "none", noise="off")
    env_mean = shepherd.shepherd_env(sc, "none", noise="mean")
    x = np.zeros(env_off.n)
    f_off = env_off.eval_full(0.3, x)[2]
    f_mean = env_mean.eval_full(0.3, x)[2]
    assert np.allclose(f_mean - f_off, 2.0 * sc.noise_std**2)


@pytest.mark.parametrize("waypoints", [2, 0])
def test_scenario_serialization_round_trip(tmp_path, small_scenario, waypoints):
    # L = 0 leaves waypoints (0, 2) and offsets (m, 0, 2): empty lists in the file.
    sc = small_scenario if waypoints else shepherd.generate_sheep_paths(
        seed=3, n=8, n_sheep=8, L=0, noise_cells=100)
    assert sc.L == waypoints
    path, again = tmp_path / "scenario.json", tmp_path / "again.json"
    shepherd.save_scenario(sc, path)
    clone = shepherd.load_scenario(path)
    assert_same_fields(sc, clone)
    shepherd.save_scenario(clone, again)
    assert again.read_bytes() == path.read_bytes()


def test_scenario_rejects_unknown_keys(tmp_path, small_scenario):
    path = tmp_path / "scenario.json"
    shepherd.save_scenario(small_scenario, path)
    data = json.loads(path.read_text())
    data["extra_field"] = 1
    with pytest.raises(ValueError):
        shepherd.scenario_from_dict(data)
    data.pop("extra_field")
    data["version"] = 99
    with pytest.raises(ValueError):
        shepherd.scenario_from_dict(data)


def test_generation_deterministic(small_scenario):
    again = shepherd.generate_sheep_paths(seed=3, n=12, n_sheep=12, L=2, noise_cells=400)
    assert np.array_equal(again.sheep_coeffs, small_scenario.sheep_coeffs)
    assert np.array_equal(again.noise, small_scenario.noise)
    assert np.array_equal(again.xdagger, small_scenario.xdagger)


def test_regenerate_changes_horizon(small_scenario):
    sc2 = shepherd.regenerate(small_scenario, T=2.0)
    assert sc2.T == 2.0
    assert sc2.seed == small_scenario.seed
    ts = np.linspace(0.0, 2.0, 9)
    Y = shepherd.sheep_positions(sc2, ts)
    assert Y.shape == (9, sc2.m, 2)


def test_generator_validations():
    with pytest.raises(ValueError):
        shepherd.generate_sheep_paths(seed=1, L=3, n_sheep=5)  # needs n_sheep > L + 2
    with pytest.raises(ValueError):
        shepherd.generate_sheep_paths(seed=1, basis="chebyshev")
    with pytest.raises(ValueError):
        shepherd.generate_sheep_paths(seed=1, radius=-0.1)


def test_monomial_warm_start_outside_the_box_fails_fast():
    # Monomial sheep paths at n = 8 have coefficients in the hundreds, far
    # outside the default box of +-5: every draw is rejected before the
    # viability search, which would otherwise run to its 200,000-step cap.
    start = time.perf_counter()
    with pytest.raises(shepherd.GeneratorError, match=r"largest coefficient.*--action-half"):
        shepherd.generate_sheep_paths(seed=4, n=8, n_sheep=8, basis="monomial", noise_cells=200)
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("kind, n, L",
                         [("legendre", 12, 2), ("legendre", 80, 5), ("monomial", 8, 3)])
def test_path_qp_columns_are_their_single_calls(rng, kind, n, L):
    # One factorization serves k right-hand sides: each column of the result
    # is bit for bit the call on that column alone, in a C-contiguous (k, n)
    # array, and all report the same condition number.  n = 80 takes the
    # blocked factorization.
    G = shepherd.acceleration_gram(kind, n, 1.0)
    rows, _, _ = shepherd.basis_matrices(kind, n, np.linspace(0.0, 1.0, L + 2), 1.0)
    b = rng.uniform(-1.0, 2.0, size=(L + 2, 7))
    coeffs, cond = shepherd._solve_path_qp(G, rows, b)
    assert coeffs.shape == (7, n) and coeffs.flags.c_contiguous
    for c in range(7):
        single, cond_c = shepherd._solve_path_qp(G, rows, b[:, c])
        assert single.shape == (n,) and np.array_equal(coeffs[c], single)
        assert cond_c == cond
    assert np.max(np.abs(rows @ coeffs.T - b)) < 1e-8


def test_path_qp_rank_deficient_rows_raise():
    # Two equal constraint rows (the same time twice) leave the KKT matrix singular.
    G = shepherd.acceleration_gram("legendre", 8, 1.0)
    rows, _, _ = shepherd.basis_matrices("legendre", 8, np.array([0.0, 0.5, 0.5, 1.0]), 1.0)
    b = np.array([0.0, 0.3, 0.3, 1.0])
    for rhs in (b, np.stack([b, b], axis=1)):
        with pytest.raises(shepherd.GeneratorError, match="singular path QP system"):
            shepherd._solve_path_qp(G, rows, rhs)
