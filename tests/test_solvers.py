"""Inner solvers and the linear solver against independent oracles:
hand-iterated recursions, exhaustive path enumeration, closed-form couplings,
scipy's assignment and LP solvers, and dense linear algebra."""

import heapq
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment, linprog

from delayopt import solvers
from delayopt.core import ContractError, OutcomeRecord
from delayopt.environments import make_environment
from delayopt.environments.lqr import LQRConfig, LQRProblem
from delayopt.solvers import (
    SolverError,
    assignment_min_cost,
    conjugate_gradient,
    dijkstra_grid,
    grid_shortest_paths,
    inner_gd,
    lapack_solve,
    shortest_path_tree,
    sinkhorn_log,
    tree_path,
)
from delayopt.transport import TransportBuffer, transport_step


# -- warm-started gradient descent -------------------------------------------


def quad_env(a=1.0, b=2.0, mu_w=1.0):
    return make_environment("hard_quadratic", seed=0, a=a, b=b, mu_w=mu_w)


def quad_gd(env, theta, w_init, steps, step_size):
    """``inner_gd`` on the scalar quadratic's model objective at ``theta``:
    its gradient ``mu_w (w - b theta)`` is ``2 (M w - C)`` with
    ``M = mu_w / 2`` and ``C = mu_w b theta / 2``."""
    M = np.array([[env.cfg.mu_w / 2]])
    C = np.array([[env.cfg.mu_w * env.cfg.b * theta[0] / 2]])
    return inner_gd(M, C, np.reshape(w_init, (1, 1)), steps, step_size)


def test_inner_gd_single_step_hand_iterated():
    # gradient is mu_w * (w - b theta); from 0 with eta 0.5 one step lands at 1.0
    env = quad_env()
    w = quad_gd(env, np.array([1.0]), np.array([0.0]), 1, 0.5)
    assert w[0] == pytest.approx(1.0, abs=1e-15)


def test_inner_gd_fixed_point():
    env = quad_env()
    theta = np.array([0.7])
    w_star = env.exact_inner(theta)
    w = quad_gd(env, theta, w_star, 7, 0.4)
    assert abs(w[0] - w_star[0]) <= 1e-12


def test_inner_gd_geometric_limit():
    env = quad_env()
    w = quad_gd(env, np.array([1.0]), np.array([0.0]), 60, 0.5)
    assert abs(w[0] - 2.0) <= 1e-12


def test_inner_gd_contraction_exact():
    # error shrinks by exactly (1 - eta * mu_w) per step on the quadratic
    env = quad_env(mu_w=1.0)
    theta = np.array([0.3])
    w0 = np.array([5.0])
    w_star = env.exact_inner(theta)[0]
    for K in (1, 3, 10):
        w = quad_gd(env, theta, w0, K, 0.25)
        expected = (1 - 0.25) ** K * abs(w0[0] - w_star)
        assert abs(abs(w[0] - w_star) - expected) <= 1e-10
        # LQR's 1 x 1 model with B = 0 has gradient 2 r W: the same
        # contraction towards the exact gain 0, with curvature 2 r equal to
        # the strong-convexity hint, so epsilon_estimate is the distance
        lqr = make_environment("lqr", seed=0, n_x=1, n_u=1, r_weight=0.5, inner_steps=K, inner_step_size=0.25)
        theta_lqr = np.array([0.3, 0.0])
        gain = lqr.solve_inner(theta_lqr, w0)
        assert abs(abs(gain[0]) - 0.75**K * w0[0]) <= 1e-10
        assert lqr.inner_diagnostics(theta_lqr, gain)[1] == pytest.approx(abs(gain[0]), abs=1e-12)


def reference_lqr_inner_gd(theta, w0, r_weight, n_x, n_u, steps, step_size):
    """Per-step gradient descent on the LQR model objective with explicit
    ``Q = I`` and ``R = r_weight I`` products, checking every gradient and
    the final iterate (a finite step can still overflow it); None if either
    is not finite. Returns the iterate, the exit residual and the residual
    over the strong-convexity hint ``2 r_weight``."""
    A = theta[: n_x * n_x].reshape(n_x, n_x)
    B = theta[n_x * n_x:].reshape(n_x, n_u)
    Q, R = np.eye(n_x), r_weight * np.eye(n_u)

    def grad(w):
        return (2.0 * ((R + B.T @ Q @ B) @ w.reshape(n_u, n_x) - B.T @ Q @ A)).ravel()

    w = w0.copy()
    for _ in range(steps):
        g = grad(w)
        if not np.isfinite(g).all():
            return None
        w -= step_size * g
    if not np.isfinite(w).all():
        return None
    residual = float(np.linalg.norm(grad(w)))
    return w, residual, residual / (2.0 * r_weight)


# parameter and decision scales: zero, which gives signed zeros; ordinary ones;
# 1e154, whose squares lie just below the largest float; and scales that
# overflow the model terms, the exit residual or the iterate within a few steps
INNER_SCALES = (0.0, 1e-3, 1.0, 30.0, 1e80, 1e154, 1e155, 1e300)


@settings(max_examples=150, deadline=None)
@given(n_x=st.integers(1, 12), n_u=st.integers(1, 5), r_weight=st.sampled_from([0.01, 0.1, 1.0, 3.7]),
       b_scale=st.sampled_from([0.1, 0.5, 2.0]), theta_scale=st.sampled_from(INNER_SCALES),
       w_scale=st.sampled_from(INNER_SCALES), steps=st.integers(1, 15),
       step_size=st.sampled_from([1e-3, 0.01, 0.05, 10.0]), seed=st.integers(0, 2**16))
def test_lqr_inner_gd_equals_per_step_reference_bitwise(n_x, n_u, r_weight, b_scale, theta_scale, w_scale,
                                                         steps, step_size, seed):
    # the environment's own inner solve: inner_gd on its theta-only terms,
    # with the same iterate, residual and epsilon bits, or the same divergence
    # error
    env = LQRProblem(LQRConfig(n_x=n_x, n_u=n_u, r_weight=r_weight, b_scale=b_scale, task_seed=seed,
                               inner_steps=steps, inner_step_size=step_size), seed=seed)
    rng = np.random.default_rng(seed)
    theta = env.theta_init() + theta_scale * rng.standard_normal(env.p)
    w0 = w_scale * rng.standard_normal(env.q)
    # the model terms and the exit residual may overflow and warn
    with np.errstate(all="ignore"):
        reference = reference_lqr_inner_gd(theta, w0, r_weight, n_x, n_u, steps, step_size)
        if reference is None:
            with pytest.raises(SolverError, match=f"inner divergence within {steps} steps"):
                env.solve_inner(theta, w0)
            return
        w = env.solve_inner(theta, w0)
        residual, epsilon = env.inner_diagnostics(theta, w)
    assert w.tobytes() == reference[0].tobytes()
    assert np.float64(residual).tobytes() == np.float64(reference[1]).tobytes()
    assert np.float64(epsilon).tobytes() == np.float64(reference[2]).tobytes()


def test_inner_gd_reaches_an_overflowing_residual_and_divergence():
    # both ends of the property above: a finite iterate whose exit gradient
    # overflows, and a diverging solve
    env = LQRProblem(LQRConfig(n_x=2, n_u=1, task_seed=0, inner_steps=1, inner_step_size=1e-3), seed=0)
    theta = env.theta_init()
    theta[env.cfg.n_x * env.cfg.n_x:] = 1e150  # B'B = 2e300, finite
    # one step from 0 lands near 1e147, where M w overflows
    with np.errstate(all="ignore"):
        w, residual, _ = reference_lqr_inner_gd(theta, np.zeros(env.q), env.cfg.r_weight, 2, 1, 1, 1e-3)
        gain = env.solve_inner(theta, np.zeros(env.q))
        gain_residual, _ = env.inner_diagnostics(theta, gain)  # the exit gradient overflows
    assert np.isfinite(w).all() and residual == np.inf
    assert gain_residual == np.inf and gain.tobytes() == w.tobytes()
    with pytest.raises(SolverError, match="inner divergence within 1 steps"):
        env.solve_inner(theta, np.full(env.q, 1e300))


def test_diverging_inner_solve_raises_without_a_warning():
    env = make_environment("lqr", seed=0, inner_steps=200, inner_step_size=1e6)
    theta, w0 = env.theta_init(), env.initial_decision()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError, match="inner divergence within 200 steps"):
            env.solve_inner(theta, w0)
    assert caught == []


# -- log-domain sinkhorn ------------------------------------------------------


def marginal_residual(P, mu, nu):
    return max(np.max(np.abs(P.sum(axis=1) - mu)), np.max(np.abs(P.sum(axis=0) - nu)))


def test_sinkhorn_constant_cost_uniform():
    mu = nu = np.array([0.5, 0.5])
    for K in (1, 5, 50):
        P = sinkhorn_log(np.full((2, 2), 3.7), mu, nu, regularization=0.5, iterations=K)
        assert np.allclose(P, 0.25, atol=1e-12)


def test_sinkhorn_small_regularization_diagonal():
    mu = nu = np.array([0.5, 0.5])
    C = np.array([[0.0, 10.0], [10.0, 0.0]])
    P = sinkhorn_log(C, mu, nu, regularization=0.05, iterations=200)
    assert P[0, 0] == pytest.approx(0.5, abs=1e-8)
    assert P[0, 1] <= 1e-8 and P[1, 0] <= 1e-8


def test_sinkhorn_2x2_closed_form():
    # symmetric 2x2 instance solved by hand: diagonal mass 0.5*sigmoid(c/eps)
    c, eps = 0.3, 0.25
    mu = nu = np.array([0.5, 0.5])
    P = sinkhorn_log(np.array([[0.0, c], [c, 0.0]]), mu, nu, eps, iterations=500)
    expected = 0.5 / (1.0 + np.exp(-c / eps))
    assert P[0, 0] == pytest.approx(expected, abs=1e-10)
    assert P[1, 1] == pytest.approx(expected, abs=1e-10)


def test_sinkhorn_marginal_residual_monotone():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        C = rng.uniform(0, 3, size=(n, n))
        mu = rng.uniform(0.2, 1, n); mu /= mu.sum()
        nu = rng.uniform(0.2, 1, n); nu /= nu.sum()
        prev = np.inf
        for K in (1, 2, 4, 8, 16):
            P = sinkhorn_log(C, mu, nu, 0.3, K)
            res = marginal_residual(P, mu, nu)
            assert res <= prev * (1 + 1e-9)
            prev = res


def sinkhorn_log_reference(C, mu, nu, eps, iterations):
    """The log-domain loop as first written: a fresh log-sum-exp per half-sweep."""

    def logsumexp(a, axis):
        m = np.max(a, axis=axis, keepdims=True)
        out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
        return np.squeeze(out, axis=axis)

    log_mu, log_nu = np.log(mu), np.log(nu)
    f, g = np.zeros(C.shape[0]), np.zeros(C.shape[1])
    M = -C / eps
    for _ in range(iterations):
        f = eps * (log_mu - logsumexp(M + g[None, :] / eps, axis=1))
        g = eps * (log_nu - logsumexp(M + f[:, None] / eps, axis=0))
    return np.exp(M + f[:, None] / eps + g[None, :] / eps)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(1, 30), eps=st.sampled_from([0.01, 0.05, 0.3, 1.0]),
       cost_scale=st.sampled_from([0.1, 1.0, 30.0]), iterations=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_sinkhorn_equals_reference_loop_bitwise(n, m, eps, cost_scale, iterations, seed):
    # rows of more than 8 entries take numpy's pairwise summation, so sizes
    # up to 30 check that the row sums still reduce along the same axis
    rng = np.random.default_rng(seed)
    C = cost_scale * rng.uniform(0.0, 1.0, size=(n, m))
    mu = rng.uniform(0.2, 1.0, n)
    nu = rng.uniform(0.2, 1.0, m)
    mu, nu = mu / mu.sum(), nu / nu.sum()
    plan = sinkhorn_log(C, mu, nu, eps, iterations)
    assert plan.tobytes() == sinkhorn_log_reference(C, mu, nu, eps, iterations).tobytes()


def test_sinkhorn_rejects_bad_inputs():
    mu = nu = np.array([0.5, 0.5])
    C = np.zeros((2, 2))
    with pytest.raises(ContractError):
        sinkhorn_log(C, mu, nu, 0.1, 0)  # K >= 1 is part of the contract
    with pytest.raises(SolverError, match="degenerate marginal"):
        sinkhorn_log(C, np.array([1.0, 0.0]), nu, 0.1, 5)
    with pytest.raises(ContractError):
        sinkhorn_log(C, np.array([0.6, 0.6]), nu, 0.1, 5)


@pytest.mark.parametrize("target, index, value, message", [
    ("mu", 1, np.nan, "degenerate marginal"),
    ("nu", 2, np.nan, "degenerate marginal"),
    ("C", (1, 2), np.nan, "not finite"),
    ("C", 1, np.inf, "not finite"),
    ("C", (slice(None), 0), np.inf, "not finite"),
], ids=["nan-mu", "nan-nu", "nan-cost", "inf-row", "inf-column"])
def test_sinkhorn_raises_instead_of_returning_a_nonfinite_plan(target, index, value, message):
    # each used to return an all-NaN plan; the infinite row also warned
    inputs = {"C": np.arange(9.0).reshape(3, 3), "mu": np.full(3, 1 / 3), "nu": np.full(3, 1 / 3)}
    inputs[target][index] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=message):
            sinkhorn_log(inputs["C"], inputs["mu"], inputs["nu"], 0.1, 5)


def test_sinkhorn_infinite_cost_entries_get_no_mass():
    # single infinite costs are forbidden cells, not a failure
    C = np.arange(9.0).reshape(3, 3)
    C[0, 0] = C[2, 1] = np.inf
    mu = nu = np.full(3, 1 / 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = sinkhorn_log(C, mu, nu, 0.5, 20)
    assert plan[0, 0] == 0.0 and plan[2, 1] == 0.0
    assert np.isfinite(plan).all()


def test_sinkhorn_environment_solve_fails_on_a_nan_parameter():
    # a NaN cost prediction fails the inner solve, which the runner turns
    # into a failed round that ends the run
    env = make_environment("sinkhorn", seed=0)
    env.begin_round(1)
    theta = env.theta_init()
    theta[3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="not finite"):
            env.solve_inner(theta, env.initial_decision())


# -- exact assignment ------------------------------------------------------------


@st.composite
def square_costs(draw):
    n = draw(st.integers(1, 12))
    # small integer costs force ties between optimal matchings
    elements = draw(st.sampled_from([
        st.integers(0, 3).map(float),
        st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    ]))
    return draw(arrays(np.float64, (n, n), elements=elements))


@settings(max_examples=300, deadline=None)
@given(square_costs())
def test_assignment_matches_scipy(C):
    cols, total = assignment_min_cost(C)
    n = C.shape[0]
    assert sorted(cols) == list(range(n))
    assert total == pytest.approx(float(C[np.arange(n), cols].sum()), abs=1e-12)
    r, c = linear_sum_assignment(C)
    assert total == pytest.approx(float(C[r, c].sum()), rel=1e-12, abs=1e-12)


def test_assignment_equals_uniform_transport_lp():
    # Birkhoff-von Neumann: with uniform marginals the transport LP optimum is
    # a permutation scaled by 1/n
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        for _ in range(5):
            C = rng.uniform(0.0, 3.0, size=(n, n))
            rows = np.kron(np.eye(n), np.ones(n))  # row sums of the flattened plan
            cols = np.kron(np.ones(n), np.eye(n))  # column sums
            lp = linprog(C.ravel(), A_eq=np.vstack([rows, cols]), b_eq=np.full(2 * n, 1.0 / n),
                         bounds=(0, None), method="highs")
            assert lp.status == 0
            _, total = assignment_min_cost(C)
            assert total / n == pytest.approx(lp.fun, rel=1e-9, abs=1e-12)


def test_assignment_rejects_bad_inputs():
    with pytest.raises(ContractError):
        assignment_min_cost(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        assignment_min_cost(np.zeros(4))
    with pytest.raises(ContractError):
        assignment_min_cost(np.zeros((0, 0)))
    with pytest.raises(ContractError):
        assignment_min_cost(np.array([[0.0, np.nan], [1.0, 2.0]]))
    with pytest.raises(ContractError):
        assignment_min_cost(np.array([[0.0, np.inf], [1.0, 2.0]]))


# -- grid shortest path -------------------------------------------------------


def brute_force_paths(costs, start, goal):
    """All simple 4-connected paths; returns the minimal entered-cell cost."""
    H, W = costs.shape
    best = [np.inf]

    def walk(cell, seen, acc):
        if acc >= best[0]:
            return
        if cell == goal:
            best[0] = acc
            return
        r, c = cell
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < H and 0 <= nc < W and (nr, nc) not in seen:
                walk((nr, nc), seen | {(nr, nc)}, acc + costs[nr, nc])

    walk(start, {start}, 0.0)
    return best[0]


def test_dijkstra_2x2_unit():
    _, cost = dijkstra_grid(np.ones((2, 2)), (0, 0), (1, 1))
    assert cost == pytest.approx(2.0)


def test_dijkstra_corridor_forced():
    path, cost = dijkstra_grid(np.array([[1.0, 5.0, 1.0]]), (0, 0), (0, 2))
    assert cost == pytest.approx(6.0)
    assert path == [(0, 0), (0, 1), (0, 2)]


def test_dijkstra_avoids_expensive_center():
    costs = np.ones((3, 3))
    costs[1, 1] = 100.0
    path, cost = dijkstra_grid(costs, (0, 0), (2, 2))
    assert cost == pytest.approx(4.0)
    assert (1, 1) not in path
    assert cost == pytest.approx(brute_force_paths(costs, (0, 0), (2, 2)))


def test_dijkstra_matches_brute_force_on_small_grids():
    rng = np.random.default_rng(11)
    shapes = [(2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (2, 6), (1, 8)]
    for trial in range(100):
        H, W = shapes[trial % len(shapes)]
        costs = rng.uniform(0.1, 5.0, size=(H, W))
        cells = [(r, c) for r in range(H) for c in range(W)]
        start, goal = cells[int(rng.integers(len(cells)))], cells[int(rng.integers(len(cells)))]
        if start == goal:
            goal = cells[(cells.index(start) + 1) % len(cells)]
        _, cost = dijkstra_grid(costs, start, goal)
        assert cost == pytest.approx(brute_force_paths(costs, start, goal), abs=1e-9)


def test_dijkstra_deterministic_ties():
    costs = np.ones((4, 4))
    p1, c1 = dijkstra_grid(costs, (0, 0), (3, 3))
    p2, c2 = dijkstra_grid(costs, (0, 0), (3, 3))
    assert p1 == p2 and c1 == c2


def test_dijkstra_rejects_nonpositive_costs_and_equal_endpoints():
    with pytest.raises(SolverError):
        dijkstra_grid(np.array([[1.0, 0.0]]), (0, 0), (0, 1))
    with pytest.raises(ContractError):
        dijkstra_grid(np.ones((2, 2)), (0, 0), (0, 0))


@pytest.mark.parametrize("cell", [(1, 1), (2, 2)], ids=["centre", "goal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_both_grid_solvers_reject_nonfinite_or_nonpositive_cost(cell, bad):
    # a NaN centre used to be routed around like a wall, and a NaN goal used
    # to surface as "no path"; both now name the bad cost
    costs = np.ones((3, 3))
    costs[cell] = bad
    with pytest.raises(SolverError, match="finite, strictly positive"):
        dijkstra_grid(costs, (0, 0), (2, 2))
    with pytest.raises(SolverError, match="finite, strictly positive"):
        grid_shortest_paths(costs[None], [(0, 0)], [(2, 2)], np.arange(1))


@pytest.mark.parametrize("costs, starts, goals, sources, message", [
    (np.ones((2, 0, 3)), [(0, 0), (0, 1)], [(0, 1)], [0], "start/goal outside the grid"),
    (np.ones(0), [(0, 0)], [(0, 1)], [0], "needs a \\(k, H, W\\) cost array"),
    (np.ones((0, 3, 3)), np.zeros((0, 2), int), [(1, 1)], [0], "source index outside the fields"),
], ids=["no-rows", "flat", "no-fields"])
def test_empty_cost_arrays_end_in_a_contract_error(costs, starts, goals, sources, message):
    # an empty array has no minimum, so the cost check leaves it to the shape
    # and index checks
    with pytest.raises(ContractError, match=message):
        grid_shortest_paths(costs, starts, goals, sources)
    with pytest.raises(ContractError, match="start/goal outside the grid"):
        dijkstra_grid(np.ones((0, 3)), (0, 0), (0, 1))


@pytest.mark.parametrize("k", [0, 2])
def test_no_queries_give_empty_results(k):
    # zero fields used to end in numpy's bare ValueError from an empty maximum
    paths, totals = grid_shortest_paths(np.ones((k, 3, 4)), np.zeros((k, 2), np.int64),
                                        np.zeros((0, 2), np.int64), np.zeros(0, np.int64))
    assert paths.shape == (0, 12) and paths.dtype == np.float64
    assert totals.shape == (0,) and totals.dtype == np.float64


# -- batched grid shortest paths ------------------------------------------------


def grid_cells(H, W):
    return st.tuples(st.integers(0, H - 1), st.integers(0, W - 1))


def cost_elements(draw):
    # small integer costs force many equal-cost paths, so ties are exercised
    return st.integers(1, 3).map(float) if draw(st.booleans()) else st.floats(0.01, 100.0)


@st.composite
def path_batches(draw):
    H = draw(st.integers(1, 8))
    W = draw(st.integers(2 if H == 1 else 1, 8))
    m = draw(st.integers(1, 20))
    costs = draw(arrays(float, (m, H, W), elements=cost_elements(draw)))
    cell = grid_cells(H, W)
    ends = draw(st.lists(st.tuples(cell, cell).filter(lambda e: e[0] != e[1]), min_size=m, max_size=m))
    return costs, [s for s, _ in ends], [g for _, g in ends]


@settings(max_examples=300, deadline=None)
@given(path_batches())
def test_batched_paths_identical_to_dijkstra(batch):
    costs, starts, goals = batch
    m, H, W = costs.shape
    indicators, totals = grid_shortest_paths(costs, starts, goals, np.arange(m))
    assert indicators.shape == (m, H * W) and totals.shape == (m,)
    for i in range(m):
        path, total = dijkstra_grid(costs[i], starts[i], goals[i])
        expected = np.zeros(H * W)
        for r, c in path[1:]:
            expected[r * W + c] = 1.0
        assert np.array_equal(indicators[i], expected)
        assert totals[i] == total


@pytest.mark.parametrize("start, goal", [
    ((1, 1), (1, 1)),
    ((-1, 0), (1, 2)),
    ((0, 0), (2, 0)),
    ((0, 3), (1, 1)),
])
def test_batched_paths_raise_the_same_contract_error(start, goal):
    costs = np.ones((2, 3))
    with pytest.raises(ContractError) as heap:
        dijkstra_grid(costs, start, goal)
    with pytest.raises(ContractError) as batched:
        grid_shortest_paths(np.stack([costs, costs]), [(0, 0), start], [(1, 2), goal], np.arange(2))
    assert str(batched.value) == str(heap.value)


@st.composite
def shared_field_batches(draw):
    """k fields, m queries drawn over them, plus one last field no query uses."""
    H = draw(st.integers(1, 7))
    W = draw(st.integers(2 if H == 1 else 1, 9))
    k = draw(st.integers(1, 5))
    costs = draw(arrays(float, (k + 1, H, W), elements=cost_elements(draw)))
    starts = draw(st.lists(grid_cells(H, W), min_size=k + 1, max_size=k + 1))
    sources = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=16))
    goals = [draw(grid_cells(H, W).filter(lambda g, s=starts[j]: g != s)) for j in sources]
    return costs, starts, goals, sources


@settings(max_examples=200, deadline=None)
@given(shared_field_batches())
def test_shared_fields_identical_to_per_query_dijkstra(batch):
    costs, starts, goals, sources = batch
    _, H, W = costs.shape
    indicators, totals = grid_shortest_paths(costs, starts, goals, sources)
    assert indicators.shape == (len(goals), H * W) and totals.shape == (len(goals),)
    for j, f in enumerate(sources):
        path, total = dijkstra_grid(costs[f], starts[f], goals[j])
        expected = np.zeros(H * W)
        for r, c in path[1:]:
            expected[r * W + c] = 1.0
        assert np.array_equal(indicators[j], expected)
        assert totals[j] == total


@pytest.mark.parametrize("sources, message", [
    ([0, 2], "source index outside the fields"),
    ([0, -1], "source index outside the fields"),
    ([1, 1], "start and goal must differ"),  # field 1 starts at query 0's goal
])
def test_shared_fields_reject_bad_sources(sources, message):
    costs = np.ones((2, 2, 3))
    with pytest.raises(ContractError, match=message):
        grid_shortest_paths(costs, [(0, 0), (1, 2)], [(1, 2), (1, 0)], sources)


@pytest.mark.parametrize("starts, goals, sources", [
    ([(0, 0)], [(1, 2), (1, 0)], [0, 1]),  # one start for two fields
    ([(0, 0), (1, 2)], [(1, 2), (1, 0)], [0]),  # one source for two goals
    ([(0, 0), (1, 2)], [1, 2], [0, 1]),  # goals without columns
])
def test_batched_paths_reject_mismatched_shapes(starts, goals, sources):
    with pytest.raises(ContractError, match="needs \\(k, 2\\) starts"):
        grid_shortest_paths(np.ones((2, 2, 3)), starts, goals, sources)


def assert_rows_are_heap_paths(costs, starts, goals, sources):
    """Run the batched solve and compare every row with its own heap solve."""
    _, H, W = costs.shape
    indicators, totals = grid_shortest_paths(costs, starts, goals, sources)
    for j, f in enumerate(sources):
        path, total = dijkstra_grid(costs[f], tuple(starts[f]), tuple(goals[j]))
        expected = np.zeros(H * W)
        for r, c in path[1:]:
            expected[r * W + c] = 1.0
        assert np.array_equal(indicators[j], expected), j
        assert totals[j] == total, j
    return indicators, totals


def serpentine(H, W, wall):
    """Open rows joined by one gap at alternating ends, walls of cost ``wall``
    between them: the only cheap path from (0, 0) to the far corner snakes
    through every open row."""
    costs = np.ones((H, W))
    for i, r in enumerate(range(1, H, 2)):
        costs[r] = wall
        costs[r, W - 1 if i % 2 == 0 else 0] = 1.0
    return costs


def test_batched_paths_follow_a_serpentine_far_past_the_manhattan_bound():
    # sweeps must go on past the Manhattan bound until the buffers agree, and
    # the walkers need far more hops than that bound
    maze = serpentine(9, 11, 1e3)
    costs = np.stack([maze, maze[::-1], serpentine(9, 11, 50.0), np.ones((9, 11))])
    starts = [(0, 0), (8, 0), (0, 0), (0, 0)]
    goals = [(8, 10), (0, 10), (8, 10), (8, 10), (4, 5)]
    sources = [0, 1, 2, 3, 0]
    indicators, _ = assert_rows_are_heap_paths(costs, starts, goals, sources)
    far = 8 + 10
    assert indicators[0].sum() > 2.5 * far  # 5 open rows of 11 and 4 gaps: 58 hops
    assert indicators[0].sum() >= costs[0].size / 2
    assert indicators[3].sum() == far


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 2), (2, 1), (1, 13)],
                         ids=["1x7", "7x1", "1x2", "2x1", "1x13"])
def test_batched_paths_on_strips_use_every_allowed_hop(shape):
    # end to end a strip path of n cells takes n - 1 hops, the last one the
    # backtracking allows
    n = shape[0] * shape[1]
    rng = np.random.default_rng(n)
    costs = rng.uniform(0.5, 2.0, size=(3, *shape))
    last = (shape[0] - 1, shape[1] - 1)
    starts = [(0, 0), last, (0, 0)]
    goals = [last, (0, 0), last, (shape[0] // 2, shape[1] // 2)]
    sources = [0, 1, 2, 2]
    indicators, _ = assert_rows_are_heap_paths(costs, starts, goals, sources)
    assert indicators[:3].sum(axis=1).tolist() == [n - 1] * 3


def test_batched_fields_stay_isolated_at_the_workload_shape():
    # 12 x 12 and about 80 fields with border starts, as one re-evaluation of
    # the grid_path buffer; neighbouring fields differ in scale by up to 1e6,
    # so a shift that leaked across fields or border cells would show
    rng = np.random.default_rng(2024)
    H = W = 12
    k = 80
    border = [(r, c) for r in range(H) for c in range(W) if r in (0, H - 1) or c in (0, W - 1)]
    scale = 10.0 ** (3 * (np.arange(k) % 3))
    costs = rng.uniform(1.0, 10.0, size=(k, H, W)) * scale[:, None, None]
    starts = [border[i] for i in rng.integers(len(border), size=k)]
    sources = np.concatenate([np.arange(k), rng.integers(k, size=20)])
    goals = []
    for f in sources:
        goal = starts[f]
        while goal == starts[f]:
            goal = border[rng.integers(len(border))]
        goals.append(goal)
    indicators, totals = assert_rows_are_heap_paths(costs, starts, goals, sources)

    fields = rng.permutation(k)
    position = np.argsort(fields)  # where each old field sits after the shuffle
    queries = rng.permutation(len(goals))
    moved, moved_totals = grid_shortest_paths(costs[fields], [starts[f] for f in fields],
                                              [goals[j] for j in queries], position[sources[queries]])
    assert np.array_equal(moved, indicators[queries])
    assert np.array_equal(moved_totals, totals[queries])


def random_batch(rng, k, H, W, m):
    """k random fields on an H x W grid and m queries over them."""
    cells = [(r, c) for r in range(H) for c in range(W)]
    costs = rng.uniform(0.5, 5.0, size=(k, H, W))
    starts = [cells[i] for i in rng.integers(len(cells), size=k)]
    sources = rng.integers(k, size=m)
    goals = []
    for f in sources:
        goal = starts[f]
        while goal == starts[f]:
            goal = cells[rng.integers(len(cells))]
        goals.append(goal)
    return costs, starts, goals, sources


# (k, H, W, m): the workspace grows, shrinks in every dimension, then grows
# again past its largest size so far
WORKSPACE_SHAPES = [(3, 4, 5, 4), (80, 12, 12, 90), (2, 2, 3, 3), (10, 7, 9, 12), (1, 1, 6, 2),
                    (40, 12, 12, 50), (5, 9, 2, 6), (95, 12, 13, 100), (4, 12, 12, 4), (6, 3, 1, 5)]


def test_workspace_calls_of_every_size_equal_fresh_heap_solves():
    rng = np.random.default_rng(7)
    for shape in WORKSPACE_SHAPES * 2:
        assert_rows_are_heap_paths(*random_batch(rng, *shape))


def test_writing_into_returned_arrays_leaves_later_calls_alone():
    rng = np.random.default_rng(8)
    batch = random_batch(rng, 30, 12, 12, 35)
    indicators, totals = grid_shortest_paths(*batch)
    expected = indicators.copy(), totals.copy()
    indicators[:] = 7.0
    totals[:] = -1.0
    grid_shortest_paths(*random_batch(rng, 20, 6, 8, 20))  # reuses the workspace in between
    again = grid_shortest_paths(*batch)
    assert np.array_equal(again[0], expected[0]) and np.array_equal(again[1], expected[1])
    assert not np.shares_memory(again[0], indicators) and not np.shares_memory(again[1], totals)


@pytest.mark.parametrize("break_call", ["source", "start_is_goal", "nan_cost"])
def test_a_call_that_raises_leaves_the_next_call_correct(break_call):
    rng = np.random.default_rng(9)
    costs, starts, goals, sources = random_batch(rng, 50, 12, 12, 60)
    sources = sources.copy()
    if break_call == "source":
        sources[-1] = len(starts)
    elif break_call == "start_is_goal":
        goals[-1] = starts[sources[-1]]
    else:
        costs = costs.copy()
        costs[-1, 5, 5] = np.nan
    with pytest.raises((ContractError, SolverError)):
        grid_shortest_paths(costs, starts, goals, sources)
    assert_rows_are_heap_paths(*random_batch(rng, 50, 12, 12, 60))
    assert_rows_are_heap_paths(*random_batch(rng, 3, 5, 5, 4))


@st.composite
def single_grids(draw):
    H = draw(st.integers(1, 6))
    W = draw(st.integers(2 if H == 1 else 1, 7))
    return draw(arrays(float, (H, W), elements=cost_elements(draw)))


@settings(max_examples=80, deadline=None)
@given(single_grids())
def test_full_tree_backtracks_to_every_dijkstra_path(costs):
    H, W = costs.shape
    cells = [(r, c) for r in range(H) for c in range(W)]
    for start in cells:
        dist, parent = shortest_path_tree(costs, start)
        for goal in cells:
            if goal != start:
                path, total = dijkstra_grid(costs, start, goal)
                assert tree_path(parent, start, goal, W) == path
                assert dist[goal[0] * W + goal[1]] == total


def reference_shortest_path_tree(costs, start, goal=None):
    """Textbook heap search with a settled set, which skips stale heap
    entries and stops when the goal is popped."""
    H, W = costs.shape
    flat = costs.ravel().tolist()
    s_idx = start[0] * W + start[1]
    g_idx = -1 if goal is None else goal[0] * W + goal[1]
    dist, parent, done = [np.inf] * (H * W), [-1] * (H * W), [False] * (H * W)
    dist[s_idx] = 0.0
    heap = [(0.0, s_idx)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == g_idx:
            break
        r, c = divmod(u, W)
        for inside, v in ((r > 0, u - W), (r + 1 < H, u + W), (c > 0, u - 1), (c + 1 < W, u + 1)):
            if inside and d + flat[v] < dist[v]:
                dist[v] = d + flat[v]
                parent[v] = u
                heapq.heappush(heap, (dist[v], v))
    return dist, parent


@st.composite
def tree_grids(draw):
    """Grids of every shape down to 1 x 2 and 2 x 1, strips included."""
    H, W = draw(st.one_of(st.tuples(st.just(1), st.integers(2, 9)),
                          st.tuples(st.integers(2, 9), st.just(1)),
                          st.tuples(st.integers(2, 6), st.integers(2, 6))))
    return draw(arrays(float, (H, W), elements=cost_elements(draw)))


@settings(max_examples=120, deadline=None)
@given(tree_grids())
def test_heap_search_equals_the_settled_set_reference_and_pushes_each_cell_once(costs):
    H, W = costs.shape
    cells = [(r, c) for r in range(H) for c in range(W)]
    pairs = [(start, goal) for start in cells for goal in [None, *cells] if goal != start]
    references = [reference_shortest_path_tree(costs, start, goal) for start, goal in pairs]
    pushed = []
    heappush = heapq.heappush  # the solver reads the module attribute patched below

    def counting_push(heap, item):
        pushed.append(item[1])
        heappush(heap, item)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers.heapq, "heappush", counting_push)
        for (start, goal), (dist, parent) in zip(pairs, references):
            pushed.clear()
            if goal is None:
                assert shortest_path_tree(costs, start) == (dist, parent)
                assert sorted(pushed) == [i for i in range(H * W) if i != start[0] * W + start[1]]
            else:
                path, total = dijkstra_grid(costs, start, goal)
                assert len(set(pushed)) == len(pushed)
                assert path == tree_path(parent, start, goal, W)
                assert total == dist[goal[0] * W + goal[1]]


# -- conjugate gradient --------------------------------------------------------


def test_cg_identity_single_iteration():
    b = np.array([3.0, -1.0, 2.0])
    x, res, iters = conjugate_gradient(lambda v: v, b)
    assert np.allclose(x, b, atol=1e-12)
    assert iters == 1


def test_cg_two_eigenvalues_two_iterations():
    A = np.diag([1.0, 4.0])
    b = np.array([1.0, 4.0])
    x, res, iters = conjugate_gradient(lambda v: A @ v, b)
    assert np.allclose(x, [1.0, 1.0], atol=1e-8)
    assert iters <= 2
    assert res <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_cg_random_spd_meets_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        M = rng.standard_normal((n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x, res, iters = conjugate_gradient(lambda v: A @ v, b, tolerance=1e-10)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(b))
        assert np.allclose(A @ x, b, atol=1e-7)


def test_cg_error_monotone_in_A_norm():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    A = M @ M.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    x_star = np.linalg.solve(A, b)

    def a_norm_err(k):
        x, _, _ = conjugate_gradient(lambda v: A @ v, b, tolerance=1e-16, max_iterations=k)
        e = x - x_star
        return float(e @ (A @ e))

    errs = [a_norm_err(k) for k in range(1, 7)]
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev * (1 + 1e-9)


def test_cg_detects_indefinite_operator():
    A = np.diag([1.0, -1.0])
    with pytest.raises(SolverError, match="not SPD"):
        conjugate_gradient(lambda v: A @ v, np.array([0.0, 1.0]))


# -- the LAPACK solve behind closed-form adjoints --------------------------------


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 20), k=st.one_of(st.none(), st.integers(1, 12)), seed=st.integers(0, 2**32 - 1))
def test_lapack_solve_equals_np_linalg_solve_bitwise(n, k, seed):
    # well conditioned: a random matrix shifted by n along the diagonal;
    # k None gives a vector right-hand side, else an (n, k) matrix
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n if k is None else (n, k))
    x = lapack_solve(a, b)
    assert x.shape == b.shape and x.dtype == np.float64
    assert x.tobytes() == np.linalg.solve(a, b).tobytes()


@pytest.mark.parametrize("b", [np.ones(3), np.ones((3, 2))])
def test_lapack_solve_raises_linalgerror_on_a_singular_system(b):
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        lapack_solve(a, b)


def test_a_singular_lqr_adjoint_system_skips_the_arrival(caplog):
    # with n_u > n_x, B'B is singular; R = 1e-300 I vanishes next to it, so
    # M = R + B'B is exactly singular in floating point and the adjoint
    # solve raises inside lapack_solve, not in a stand-in
    env = make_environment("lqr", seed=0, n_x=1, n_u=2, r_weight=1e-300)
    theta, w, x, xi = np.array([0.5, 1.0, 1.0]), np.array([0.3, -0.2]), np.array([1.0]), np.zeros(1)
    u, x_next = env._step(env._gain(w), x, xi)
    rec = OutcomeRecord(round=3, payload={"x": x, "xi": xi, "u": u, "x_next": x_next},
                        dispatch_params=theta, dispatch_decision=w)
    with pytest.raises(np.linalg.LinAlgError):
        env.exact_adjoint(w, theta, rec.payload)
    buf = TransportBuffer(capacity=2)
    g, skipped = transport_step(buf, [rec], env, theta)
    assert skipped == 1 and len(buf) == 0 and not g.any()
    assert "round 3 arrival skipped: adjoint solve failed: Singular matrix" in caplog.text


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="the private gufuncs are verified on numpy 2.4.6 only")
def test_lapack_solve_calls_the_gufuncs_not_the_wrapper(monkeypatch):
    from numpy.linalg import _umath_linalg

    assert solvers._lapack_solve is _umath_linalg.solve
    assert solvers._lapack_solve1 is _umath_linalg.solve1

    def wrapper(a, b):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", wrapper)
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert lapack_solve(a, np.array([3.0, 4.0])).tolist() == [1.0, 1.0]
    assert lapack_solve(a, np.array([[3.0], [4.0]])).tolist() == [[1.0], [1.0]]
