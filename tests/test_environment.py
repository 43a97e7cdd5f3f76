import numpy as np
import pytest

from saddlesim import shepherd
from saddlesim.environment import EvaluatorError, pointwise

from helpers import (finite_diff_check, from_functions, midpoint_convex, norm_env, quadratic_env,
                     tracking_env)


def test_quadratic_env_at_center():
    env = quadratic_env(np.array([0.3, -0.7]))
    f0, _, f, _ = env.eval_full(0.0, np.array([0.3, -0.7]))
    assert f0 == pytest.approx(0.0)
    assert f.shape == (0,)


def test_zero_objective_env():
    env = from_functions(n=2, m=0)
    for t in (0.0, 0.5, 1.0):
        f0 = env.eval_full(t, np.array([1.0, 2.0]))[0]
        assert f0 == 0.0
    assert not env.has_objective


def test_shepherd_constraint_value_on_sheep(small_scenario):
    # action encoding the first sheep's own path, noise off: the first
    # constraint sits exactly at -r^2 for every t
    fields = {f: getattr(small_scenario, f) for f in small_scenario.__dataclass_fields__}
    sc = shepherd.ShepherdScenario(**{**fields, "noise_std": 0.0})
    env = shepherd.shepherd_env(sc, "none", noise="frozen")
    x = shepherd.encode_coeffs(sc.sheep_coeffs[0])
    for t in (0.0, 0.31, 0.77, sc.T):
        f = env.eval_full(t, x)[2]
        assert f[0] == pytest.approx(-sc.radii[0] ** 2, abs=1e-10)


def test_quadratic_gradient():
    c = np.array([1.0, -2.0])
    env = quadratic_env(c)
    x = np.array([0.5, 0.5])
    g0 = env.eval_full(0.0, x)[1]
    assert np.allclose(g0, 2.0 * (x - c))


def test_norm_gradient_chain_rule(rng):
    A = rng.standard_normal((3, 4))
    env = norm_env(A)
    x = rng.standard_normal(4)
    g0 = env.eval_full(0.0, x)[1]
    Ax = A @ x
    assert np.allclose(g0, A.T @ Ax / np.linalg.norm(Ax))
    # kink convention: zero vector at Ax = 0
    g0_zero = env.eval_full(0.0, np.zeros(4))[1]
    assert np.allclose(g0_zero, 0.0)


def test_subgradient_inequality_sweep(rng, small_scenario):
    env = shepherd.shepherd_env(small_scenario, "black_sheep")
    n = env.n
    for _ in range(1000):
        t = rng.uniform(0.0, small_scenario.T)
        x = rng.uniform(-1.0, 1.0, size=n)
        y = rng.uniform(-1.0, 1.0, size=n)
        f0x, g0, fx, G = env.eval_full(t, x)
        f0y, _, fy, _ = env.eval_full(t, y)
        assert f0y >= f0x + g0 @ (y - x) - 1e-9
        assert np.all(fy >= fx + G.T @ (y - x) - 1e-9)


def test_saturate_values():
    env = from_functions(
        n=1, m=2,
        f=lambda t, x: np.array([-5.0, 2.0]),
        G=lambda t, x: np.array([[1.0, 3.0]]),
    )
    sat = env.saturate(0.3)
    f = sat.eval_full(0.0, np.array([0.0]))[2]
    assert np.allclose(f, [-0.3, 2.0])
    G = sat.eval_full(0.0, np.array([0.0]))[3]
    # below the floor: zero column; above: original
    assert np.allclose(G[:, 0], 0.0)
    assert np.allclose(G[:, 1], 3.0)


def test_saturate_tie_keeps_active_subgradient():
    env = from_functions(
        n=1, m=1,
        f=lambda t, x: np.array([-0.3]),
        G=lambda t, x: np.array([[7.0]]),
    )
    G = env.saturate(0.3).eval_full(0.0, np.array([0.0]))[3]
    assert G[0, 0] == 7.0


def test_saturate_rejects_nonpositive_delta():
    env = from_functions(n=1, m=0)
    with pytest.raises(ValueError):
        env.saturate(0.0)


def test_saturate_rejects_an_int_beyond_the_floats():
    # float() of it raised OverflowError.
    env = from_functions(n=1, m=0)
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        env.saturate(10 ** 400)


def test_saturated_constraints_floor_and_convexity(rng, small_scenario):
    delta = 0.1
    env = shepherd.shepherd_env(small_scenario, "none").saturate(delta)
    t = 0.4

    def fun(x):
        return env.eval_full(t, x)[2]

    assert midpoint_convex(fun, rng, env.n, samples=200)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=env.n)
        f = env.eval_full(rng.uniform(0, small_scenario.T), x)[2]
        assert np.all(f >= -delta)


def test_finite_diff_quadratic():
    env = quadratic_env(np.array([0.2, -0.4, 1.0]))
    assert finite_diff_check(env, 0.0, np.array([1.0, 2.0, -1.0]), 1e-6) <= 1e-5


def test_finite_diff_shepherd(rng, small_scenario):
    env = shepherd.shepherd_env(small_scenario, "black_sheep")
    for _ in range(20):
        t = rng.uniform(0.0, small_scenario.T)
        x = rng.uniform(-1.0, 1.0, size=env.n)
        assert finite_diff_check(env, t, x, 1e-6) <= 1e-5


def test_finite_diff_affine_exact():
    a = np.array([1.5, -2.0])
    env = from_functions(n=2, m=0, f0=lambda t, x: float(a @ x) + 3.0, g0=lambda t, x: a)
    assert finite_diff_check(env, 0.0, np.array([0.3, 0.4]), 1e-3) <= 1e-10


def test_evaluation_deterministic(small_scenario):
    env = shepherd.shepherd_env(small_scenario, "black_sheep")
    x = np.linspace(-0.5, 0.5, env.n)
    a = env.eval_full(0.371, x)
    b = env.eval_full(0.371, x)
    assert a[0] == b[0]
    for u, v in zip(a[1:], b[1:]):
        assert np.array_equal(u, v)


def test_nonfinite_output_raises():
    env = from_functions(n=1, m=0, f0=lambda t, x: float("nan"), g0=lambda t, x: np.zeros(1))
    with pytest.raises(EvaluatorError):
        env.eval_full(0.0, np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("output,m", [("g0", 0), ("g0", 2), ("f", 2), ("G", 2)])
def test_nonfinite_output_raises_per_output(output, m, bad):
    # f and G are empty when m == 0, so only g0 can carry a bad value there.
    n = 3

    def evaluate(t, x):
        outs = {"g0": np.ones(n), "f": -np.ones(m), "G": np.ones((n, m))}
        outs[output].flat[-1] = bad
        return 1.0, outs["g0"], outs["f"], outs["G"]

    env = pointwise(n, m, evaluate)
    with pytest.raises(EvaluatorError):
        env.eval_full(0.0, np.zeros(n))


def test_grid_evaluator_guards():
    def evaluate(t, x):
        return (float("nan") if t == 0.25 else 0.0), np.zeros(2), np.zeros(0), np.zeros((2, 0))

    env = pointwise(2, 0, evaluate)
    at = env.grid_evaluator(np.array([0.0, 0.25]))
    assert at(0, np.zeros(2))[0] == 0.0
    with pytest.raises(EvaluatorError, match=r"at t=0\.25,"):
        at(1, np.zeros(2))
    with pytest.raises(EvaluatorError, match=r"at t=0\.25,"):
        env.saturate(0.1).grid_evaluator(np.array([0.0, 0.25]))(1, np.zeros(2))
    with pytest.raises(ValueError) as from_grid:
        at(0, np.zeros(3))
    with pytest.raises(ValueError) as from_eval_full:
        env.eval_full(0.0, np.zeros(3))
    assert str(from_grid.value) == str(from_eval_full.value)


def test_rows_evaluator_matches_each_row_and_names_the_failing_row(small_scenario):
    # Two scenarios as the rows of one environment, each at its own nodes:
    # every output row is the row's own one-row evaluation, bit for bit, and
    # a non-finite row is reported with its own node time and action.
    scs = [small_scenario, shepherd.regenerate(small_scenario, T=0.5)]
    ts = np.array([[0.1, 0.3], [0.05, 0.45]])
    X = np.stack([scs[0].xdagger, scs[1].xdagger])
    for objective in shepherd.OBJECTIVES:
        env = shepherd.shepherd_env(scs, objective).saturate(0.05)
        out = env.grid_evaluator(ts)(1, X)
        for r, sc in enumerate(scs):
            alone = shepherd.shepherd_env(sc, objective).saturate(0.05).grid_evaluator(ts[r])(1, X[r])
            for u, v in zip(out, alone):
                assert np.array_equal(u[r], v)
    X[1, 3] = np.nan
    with pytest.raises(EvaluatorError, match=r"at t=0\.45, x=array\(\[.*nan"):
        shepherd.shepherd_env(scs).grid_evaluator(ts)(1, X)


def test_pointwise_batch_evaluators_raise_at_the_node():
    # The batch evaluators of a pointwise environment carry the per-node guard.
    def evaluate(t, x):
        f0 = float("nan") if t == 0.5 else float(x @ x)
        return f0, 2.0 * x, np.array([x[0] - 1.0]), np.array([[1.0], [0.0]])

    env = pointwise(2, 1, evaluate)
    ts, x = np.array([0.0, 0.25, 0.5, 1.0]), np.zeros(2)
    message = f"non-finite evaluator output at t={0.5!r}, x={x!r}"
    for e in (env, env.saturate(0.1)):
        for call in (e.batch_evaluate, e.batch_constraints):
            with pytest.raises(EvaluatorError) as err:
                call(ts, x)
            assert str(err.value) == message
    assert np.array_equal(env.batch_constraints(ts[:2], x), [[-1.0], [-1.0]])


def test_pointwise_pull_is_each_nodes_sum_bit_for_bit(rng):
    # One matmul over the stack of nodes gives each node's 1-D G @ mu bits,
    # and a single action sums the node terms.
    Gs = rng.standard_normal((33, 12, 5))
    ts = np.linspace(0.0, 1.0, 33)

    def evaluate(t, x):
        k = int(round(32 * t))
        return float(x @ x), x * (1.0 + t), Gs[k].T @ x, Gs[k]

    env = pointwise(12, 5, evaluate)
    w, mu = rng.uniform(0.0, 1.0, size=33), rng.uniform(0.0, 2.0, size=(33, 5))
    for x in (rng.standard_normal(12), rng.standard_normal((33, 12))):
        xs = np.broadcast_to(x, (33, 12))
        terms = np.array([w[k] * (xs[k] * (1.0 + ts[k])) + Gs[k] @ mu[k] for k in range(33)])
        grad = env.batch_evaluate(ts, x)[2](w, mu)
        assert np.array_equal(grad, terms if x.ndim == 2 else terms.sum(axis=0))


def test_saturated_pointwise_batch_is_the_clipped_contraction(rng):
    # Saturation masks mu in the batch Lagrangian and zeroes columns of G per
    # node; the two agree bit for bit on a pointwise environment.
    A = rng.standard_normal((3, 4))
    b = rng.uniform(-1.0, 1.0, size=3)

    def evaluate(t, x):
        r = A @ x - b * (1.0 + t)
        return float(x @ x) + t, 2.0 * x + t, r, A.T.copy()

    sat = pointwise(4, 3, evaluate).saturate(0.3)
    ts = np.linspace(0.0, 1.0, 9)
    w, mu = rng.uniform(0.0, 1.0, size=9), rng.uniform(0.0, 2.0, size=(9, 3))
    xs = rng.uniform(-0.5, 0.5, size=(9, 4))
    at = sat.grid_evaluator(ts)
    nodes = [at(k, xs[k]) for k in range(9)]
    terms = np.array([w[k] * g0 + G @ mu[k] for k, (_, g0, _, G) in enumerate(nodes)])
    f0, f, pull = sat.batch_evaluate(ts, xs)
    grad = pull(w, mu)
    assert np.array_equal(f0, [e[0] for e in nodes])
    assert np.array_equal(f, [e[2] for e in nodes])
    assert np.array_equal(grad, terms)
    assert (f == -0.3).any() and (f > -0.3).any()


def test_large_finite_output_passes_guard():
    # Every entry is finite, though their sum overflows to inf: the guard
    # tests the entries, not a sum of them.
    big = np.full(2, 1e308)
    env = pointwise(2, 2, lambda t, x: (1e308, big, big.copy(), np.full((2, 2), 1e308)))
    f0, g0, f, G = env.eval_full(0.0, np.zeros(2))
    assert f0 == 1e308 and np.all(G == 1e308)


def test_tracking_env_piecewise(rng):
    vals = rng.uniform(-1.0, 1.0, size=(8, 2))
    env = tracking_env(vals, 2.0)
    f0 = env.eval_full(0.0, vals[0])[0]
    assert f0 == pytest.approx(0.0)
    f0 = env.eval_full(1.99, vals[-1])[0]
    assert f0 == pytest.approx(0.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def buffer_cases(scenario):
    """(label, environment, its unsaturated environment, nodes (R, K),
    actions A and B (R, n)) for the per-node contract: the shepherd with each
    objective, one and two rows, plain and saturated at 0.05, and a pointwise
    environment.  A's first row is the origin, where the acceleration is 0,
    and B is random."""
    rng = np.random.default_rng(7)
    ts = np.array([[0.1, 0.2, 0.3], [0.15, 0.25, 0.35]])
    for objective in shepherd.OBJECTIVES:
        for R in (1, 2):
            env = shepherd.shepherd_env([scenario] * R, objective)
            A = np.stack([np.zeros(env.n), scenario.xdagger])[:R]
            B = rng.uniform(-1.0, 1.0, (R, env.n))
            for delta in (None, 0.05):
                label = f"{objective}.R{R}.{'plain' if delta is None else 'sat'}"
                yield label, env if delta is None else env.saturate(delta), env, ts[:R], A, B

    G = rng.standard_normal((3, 4, 3))

    def evaluate(t, x):
        k = int(round(10 * t)) - 1
        return float(x @ x), 2.0 * x + t, G[k].T @ x - 0.5, G[k] * x[:, None]

    env = pointwise(4, 3, evaluate)
    for delta in (None, 0.05):
        yield (f"pointwise.{delta}", env if delta is None else env.saturate(delta), env, ts[:1],
               np.zeros((1, 4)), rng.uniform(-1.0, 1.0, (1, 4)))


def test_grid_evaluator_results_outlive_later_calls(small_scenario):
    # at() returns arrays of its own: a later call at another action, which
    # overwrites the evaluator's node buffers, leaves them as they were.
    for label, env, _, ts, A, B in buffer_cases(small_scenario):
        at = env.grid_evaluator(ts)
        for first, later in ((A, B), (B, A)):
            result = at(1, first)
            kept = [np.copy(a) for a in result]
            at(1, later)
            at(2, later)
            assert all(same_bits(a, b) for a, b in zip(result, kept)), label


def test_raw_fills_out_and_returns_views_of_its_node_buffer(small_scenario):
    # raw(k, X, out) writes f and then f0 into out and returns g0 and G as
    # disjoint views of one node buffer J, in the environment's layout: the
    # bits of the checked evaluator's, and g0 the unsaturated one's
    # (saturation leaves the objective as it is).
    for label, env, plain, ts, A, B in buffer_cases(small_scenario):
        raw, at = env.on_grid(ts, np.arange(ts.shape[0])), env.grid_evaluator(ts)
        R, n, m = ts.shape[0], env.n, env.m
        for X in (A, B):
            out = np.full((R, m + 1), np.nan)
            g0, G = raw(1, X, out)
            f0, g0_at, f, G_at = at(1, X)
            assert same_bits(out[:, m], f0) and same_bits(out[:, :m], f), label
            assert same_bits(g0, g0_at) and same_bits(G, G_at), label
            assert same_bits(g0, plain.grid_evaluator(ts)(1, X)[1]), label
            J = g0.base
            assert J.shape == (R, n + n * m) and G.base is J, label
            assert g0.size + G.size == J.size and not np.shares_memory(g0, G), label


def test_saturation_in_place_is_the_floor_and_the_masked_columns():
    # The saturated evaluator floors f in out and zeroes G's inactive columns
    # in its node buffer: bit for bit np.maximum(f, -delta) and
    # np.where(f >= -delta, G, 0.0), with f exactly at -delta kept active and
    # a NaN constraint masked.
    delta = 0.1
    fs = np.array([[-0.1, -0.2, 0.3], [-0.0, -0.1000000001, -0.0999999999],
                   [np.nan, np.nan, np.nan], [np.nan, -0.5, 1.0]])
    Gs = np.random.default_rng(3).standard_normal((4, 2, 3))
    Gs[0, 1, 0] = -0.0

    def evaluate(t, x):
        k = int(round(10 * t))
        return 1.0, x.copy(), fs[k].copy(), Gs[k].copy()

    env = pointwise(2, 3, evaluate)
    ts = np.arange(4)[None] / 10.0
    raw, sat = env.on_grid(ts, np.arange(1)), env.saturate(delta).on_grid(ts, np.arange(1))
    x = np.array([[0.5, -0.25]])
    for k in range(4):
        base_out, out = np.empty((1, 4)), np.empty((1, 4))
        g0, G = (np.copy(a) for a in raw(k, x, base_out))
        f = base_out[:, :3]
        g0_sat, G_sat = sat(k, x, out)
        assert same_bits(out[:, 3], base_out[:, 3]) and same_bits(g0_sat, g0)
        assert same_bits(out[:, :3], np.maximum(f, -delta))
        assert same_bits(G_sat, np.where((f >= -delta)[..., None, :], G, 0.0))
