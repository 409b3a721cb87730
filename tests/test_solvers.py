"""Inner solvers and the linear solver against independent oracles:
hand-iterated recursions, exhaustive path enumeration, closed-form couplings,
scipy's assignment and LP solvers, and dense linear algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment, linprog

from delayopt.core import ContractError
from delayopt.environments import make_environment
from delayopt.solvers import (
    CGConfig,
    InnerSolverConfig,
    SolverError,
    assignment_min_cost,
    conjugate_gradient,
    dijkstra_grid,
    inner_gd,
    sinkhorn_log,
)


# -- warm-started gradient descent -------------------------------------------


def quad_env(a=1.0, b=2.0, mu_w=1.0):
    return make_environment("hard_quadratic", seed=0, a=a, b=b, mu_w=mu_w)


def test_inner_gd_single_step_hand_iterated():
    # gradient is mu_w * (w - b theta); from 0 with eta 0.5 one step lands at 1.0
    env = quad_env()
    rep = inner_gd(env, np.array([1.0]), np.array([0.0]), InnerSolverConfig(steps=1, step_size=0.5))
    assert rep.solution[0] == pytest.approx(1.0, abs=1e-15)


def test_inner_gd_fixed_point():
    env = quad_env()
    theta = np.array([0.7])
    w_star = env.exact_inner(theta)
    rep = inner_gd(env, theta, w_star, InnerSolverConfig(steps=7, step_size=0.4))
    assert abs(rep.solution[0] - w_star[0]) <= 1e-12


def test_inner_gd_geometric_limit():
    env = quad_env()
    rep = inner_gd(env, np.array([1.0]), np.array([0.0]), InnerSolverConfig(steps=60, step_size=0.5))
    assert abs(rep.solution[0] - 2.0) <= 1e-12


def test_inner_gd_contraction_exact():
    # error shrinks by exactly (1 - eta * mu_w) per step on the quadratic
    env = quad_env(mu_w=1.0)
    theta = np.array([0.3])
    w0 = np.array([5.0])
    w_star = env.exact_inner(theta)[0]
    for K in (1, 3, 10):
        rep = inner_gd(env, theta, w0, InnerSolverConfig(steps=K, step_size=0.25))
        expected = (1 - 0.25) ** K * abs(w0[0] - w_star)
        assert abs(abs(rep.solution[0] - w_star) - expected) <= 1e-10
        assert rep.epsilon_estimate == pytest.approx(expected, abs=1e-10)


def test_inner_gd_rejects_bad_config():
    with pytest.raises(ContractError):
        InnerSolverConfig(steps=0, step_size=0.1)
    with pytest.raises(ContractError):
        InnerSolverConfig(steps=1, step_size=0.0)


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


def test_sinkhorn_rejects_bad_inputs():
    mu = nu = np.array([0.5, 0.5])
    C = np.zeros((2, 2))
    with pytest.raises(ContractError):
        sinkhorn_log(C, mu, nu, 0.1, 0)  # K >= 1 is part of the contract
    with pytest.raises(SolverError, match="degenerate marginal"):
        sinkhorn_log(C, np.array([1.0, 0.0]), nu, 0.1, 5)
    with pytest.raises(ContractError):
        sinkhorn_log(C, np.array([0.6, 0.6]), nu, 0.1, 5)


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


def test_cg_warm_start_exact_solution():
    A = np.diag([2.0, 5.0, 9.0])
    b = np.array([2.0, 10.0, 18.0])
    x_star = np.array([1.0, 2.0, 2.0])
    x, res, iters = conjugate_gradient(lambda v: A @ v, b, x0=x_star)
    assert iters == 0
    assert res <= CGConfig().tolerance * max(1.0, np.linalg.norm(b))


def test_cg_random_spd_meets_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        M = rng.standard_normal((n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x, res, iters = conjugate_gradient(lambda v: A @ v, b, cfg=CGConfig(tolerance=1e-10))
        assert res <= 1e-10 * max(1.0, np.linalg.norm(b))
        assert np.allclose(A @ x, b, atol=1e-7)


def test_cg_error_monotone_in_A_norm():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    A = M @ M.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    x_star = np.linalg.solve(A, b)

    def a_norm_err(k):
        x, _, _ = conjugate_gradient(lambda v: A @ v, b, cfg=CGConfig(tolerance=1e-16, max_iterations=k))
        e = x - x_star
        return float(e @ (A @ e))

    errs = [a_norm_err(k) for k in range(1, 7)]
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev * (1 + 1e-9)


def test_cg_detects_indefinite_operator():
    A = np.diag([1.0, -1.0])
    with pytest.raises(SolverError, match="not SPD"):
        conjugate_gradient(lambda v: A @ v, np.array([0.0, 1.0]))
