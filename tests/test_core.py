"""Regret against the exact comparator and the grid oracle behind the per-round optimality gap."""

import numpy as np
import pytest

from delayopt.delays import DelaySchedule
from delayopt.environments import make_environment
from delayopt.optimizers import make_algorithm
from delayopt.runner import run_online
from delayopt.solvers import dijkstra_grid


def test_regret_zero_at_optimum():
    # started at the comparator theta = 0 with an unbiased solver, every round
    # plays the comparator's decision and the runner logs zero regret
    env = make_environment("hard_quadratic", seed=0, theta_bound=0.0)
    res = run_online(env, make_algorithm("transport_omd", eta0=0.1),
                     DelaySchedule(kind="constant", d=3, seed=0), rounds=10)
    assert np.all(res.columns["regret_inc"] == 0.0)
    assert res.cumulative_regret == 0.0


def test_optimality_gap_grid_oracle_agrees_with_enumeration():
    # unit 3x3 grid: any monotone corner-to-corner path costs 4
    costs = np.ones((3, 3))
    _, dj = dijkstra_grid(costs, (0, 0), (2, 2))
    greedy_cost = costs[0, 1] + costs[0, 2] + costs[1, 2] + costs[2, 2]
    assert dj == pytest.approx(float(greedy_cost))
