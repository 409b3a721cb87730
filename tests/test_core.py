"""Decision-regret bookkeeping and the grid oracle behind the per-round optimality gap."""

import numpy as np
import pytest

from delayopt.core import decision_regret
from delayopt.environments import make_environment
from delayopt.solvers import dijkstra_grid


def quad_env(**kw):
    return make_environment("hard_quadratic", seed=0, **kw)


def traj(env, theta_vals):
    out = []
    for tv in theta_vals:
        theta = np.array([tv])
        out.append((theta, env.exact_inner(theta), None))
    return out


def test_regret_zero_at_optimum():
    env = quad_env()
    rep = decision_regret(traj(env, [0.0] * 10), env, np.array([0.0]))
    assert rep.value == pytest.approx(0.0, abs=1e-15)


def test_regret_constant_offset_closed_form():
    # loss at exact inner is coupling^2 theta^2 / 2 = 0.005 per round at -0.1
    env = quad_env()
    rep = decision_regret(traj(env, [-0.1] * 100), env, np.array([0.0]))
    assert rep.value == pytest.approx(0.5, abs=1e-12)
    assert rep.comparator_available


def test_regret_single_round_matches_loss_difference():
    env = quad_env()
    theta = np.array([1.0])
    w = env.exact_inner(theta)
    loss = env.true_loss(w, theta, None)
    rep = decision_regret([(theta, w, None)], env, theta)
    assert rep.value == pytest.approx(0.0, abs=1e-15)
    assert rep.cumulative_loss == pytest.approx(loss)


def test_regret_additive_over_concatenation():
    env = quad_env()
    t1, t2 = traj(env, [0.2, -0.4, 0.9]), traj(env, [1.0, -1.0])
    cmp_ = np.array([0.3])
    whole = decision_regret(t1 + t2, env, cmp_)
    parts = decision_regret(t1, env, cmp_).value + decision_regret(t2, env, cmp_).value
    assert whole.value == pytest.approx(parts, abs=1e-12)


def test_regret_flags_missing_comparator():
    env = make_environment("sinkhorn", seed=0)  # no closed-form inner solution
    env.begin_round(1)
    theta = env.theta_init()
    w = env.solve_inner(theta, env.initial_decision()).solution
    z, loss, _ = env.realize_outcome(1, theta, w)
    rep = decision_regret([(theta, w, z)], env, theta)
    assert not rep.comparator_available
    assert rep.value == pytest.approx(loss)


def test_optimality_gap_grid_oracle_agrees_with_enumeration():
    # unit 3x3 grid: any monotone corner-to-corner path costs 4
    costs = np.ones((3, 3))
    _, dj = dijkstra_grid(costs, (0, 0), (2, 2))
    greedy_cost = costs[0, 1] + costs[0, 2] + costs[1, 2] + costs[2, 2]
    assert dj == pytest.approx(float(greedy_cost))
