"""Regret against the exact comparator, the grid oracle behind the
per-round optimality gap, and the frozen parameter snapshots a run hands
around."""

import numpy as np
import pytest

from delayopt.core import OutcomeRecord
from delayopt.delays import DelaySchedule
from delayopt.environments import ENVIRONMENTS, make_environment
from delayopt.harness import run_regret
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
    assert run_regret(res.columns) == 0.0


def test_optimality_gap_grid_oracle_agrees_with_enumeration():
    # unit 3x3 grid: any monotone corner-to-corner path costs 4
    costs = np.ones((3, 3))
    _, dj = dijkstra_grid(costs, (0, 0), (2, 2))
    greedy_cost = costs[0, 1] + costs[0, 2] + costs[1, 2] + costs[2, 2]
    assert dj == pytest.approx(float(greedy_cost))


# -- frozen parameters --------------------------------------------------------


def frozen(values, dtype=float):
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def test_outcome_record_shares_a_frozen_float64_array_that_owns_its_data():
    theta, w = frozen([1.0, 2.0]), frozen([3.0])
    rec = OutcomeRecord(round=1, payload=None, dispatch_params=theta, dispatch_decision=w)
    assert rec.dispatch_params is theta and rec.dispatch_decision is w


@pytest.mark.parametrize("make", [
    lambda: np.array([1.0, 2.0]),  # writeable
    lambda: [1.0, 2.0],  # not an array
    lambda: frozen([1.0, 2.0], np.float32),  # another dtype
    lambda: frozen([1.0, 2.0, 3.0])[:2],  # a view, which owns no data
])
def test_outcome_record_copies_anything_else_into_a_frozen_float64_array(make):
    theta, w = make(), make()
    rec = OutcomeRecord(round=1, payload=None, dispatch_params=theta, dispatch_decision=w)
    for given, kept in ((theta, rec.dispatch_params), (w, rec.dispatch_decision)):
        assert kept is not given
        assert kept.dtype == np.float64 and not kept.flags.writeable and kept.flags.owndata
        assert kept.tolist() == [1.0, 2.0]
    if isinstance(theta, np.ndarray) and theta.flags.writeable:
        theta[0] = w[0] = 99.0  # the record keeps the values it was given
        assert rec.dispatch_params[0] == rec.dispatch_decision[0] == 1.0


# every method of the contract that takes the parameters, with the position
# of the parameter argument
THETA_ARGS = {"solve_inner": 0, "realize_outcome": 1, "exact_adjoint": 1,
              "hypergradients_at_many": 0, "two_stage_gradient": 0}


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
@pytest.mark.parametrize("algorithm", ["transport_omd", "stale_omd", "two_stage"])
def test_every_theta_a_run_hands_the_environment_is_read_only(name, algorithm):
    env = make_environment(name, seed=0)
    if algorithm == "two_stage" and not env.has_prediction_target:
        pytest.skip(f"{name} has no prediction target")
    seen: dict[str, list] = {method: [] for method in THETA_ARGS}

    def recording(method, position):
        call = getattr(env, method)

        def wrapper(*args):
            seen[method].append(args[position])
            return call(*args)
        return wrapper

    for method, position in THETA_ARGS.items():
        setattr(env, method, recording(method, position))
    res = run_online(env, make_algorithm(algorithm, eta0=1e-3), DelaySchedule(kind="constant", d=3, seed=0),
                     rounds=12)
    assert res.rounds_logged == 12 and not res.final_theta.flags.writeable
    for method, thetas in seen.items():
        assert all(not theta.flags.writeable for theta in thetas), method
    # an arrival is evaluated at parameters the run made, not at a copy
    played = seen["realize_outcome"]
    for method in ("exact_adjoint", "hypergradients_at_many", "two_stage_gradient"):
        assert all(any(theta is p for p in played) for theta in seen[method]), method
    assert seen["solve_inner"] and (algorithm == "two_stage" or seen["hypergradients_at_many"])
