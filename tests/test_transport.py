"""Adjoint solves, hypergradient re-evaluation, the transport buffer, and the
error surrogates, against closed forms and the exact telescoping identity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayopt import runner
from delayopt.core import ContractError, InvariantError, OutcomeRecord
from delayopt.delays import DelaySchedule
from delayopt.environments import make_environment
from delayopt.environments.base import Environment
from delayopt.environments.grid_path import GridPathConfig, GridPathProblem
from delayopt.optimizers import StaleArrivalEngine, TransportEngine, make_algorithm
from delayopt.runner import run_online
from delayopt.solvers import SolverError
from delayopt.transport import (
    TransportBuffer,
    hypergradient_at,
    solve_adjoint,
    transport_error_surrogates,
    transport_step,
)


def quad_env(a=1.0, b=2.0, mu_w=1.0, bias=0.0):
    return make_environment("hard_quadratic", seed=0, a=a, b=b, mu_w=mu_w, bias=bias)


def record(env, t, theta_val, w_val=None):
    theta = np.array([theta_val])
    w = env.exact_inner(theta) if w_val is None else np.array([w_val])
    return OutcomeRecord(round=t, payload=None, dispatch_params=theta, dispatch_decision=w)


# -- adjoint solves ------------------------------------------------------------


def test_adjoint_scalar_closed_form():
    env = quad_env()
    w, theta = np.array([1.7]), np.array([0.4])
    adj = solve_adjoint(env, w, theta, None)
    assert adj[0] == pytest.approx(w[0] - theta[0], abs=1e-10)


def test_adjoint_zero_rhs():
    env = quad_env()
    theta = np.array([0.9])
    w = np.array([env.cfg.a * theta[0]])  # rhs = w - a*theta = 0
    adj = solve_adjoint(env, w, theta, None)
    assert adj[0] == 0.0


def test_adjoint_diagonal_oracle():
    # a diagonal Hessian's closed form, passed through unchanged
    class DiagProblem:
        p = q = 4
        def exact_adjoint(self, w, theta, z):
            return z / np.array([2.0, 4.0, 8.0, 0.5])
    rhs = np.array([1.0, 2.0, -4.0, 1.0])
    adj = solve_adjoint(DiagProblem(), np.zeros(4), np.zeros(1), rhs)
    assert np.array_equal(adj, [0.5, 0.5, -0.5, 2.0])


# -- two-term re-evaluation ------------------------------------------------------


def test_hypergradient_exact_inner_closed_form():
    env = quad_env()
    theta = np.array([0.5])
    w = env.exact_inner(theta)
    v = np.array([(env.cfg.b - env.cfg.a) * theta[0] / env.cfg.mu_w])
    g = hypergradient_at(env, w, v, theta, None)
    assert g[0] == pytest.approx((env.cfg.a - env.cfg.b)**2 * theta[0], abs=1e-12)


def test_hypergradient_matches_finite_difference_of_reduced_objective():
    env = quad_env()
    for theta_val in (-1.2, 0.3, 0.9):
        theta = np.array([theta_val])
        w = env.exact_inner(theta)
        adj = solve_adjoint(env, w, theta, None)
        g = hypergradient_at(env, w, adj, theta, None)
        h = 1e-6
        fd = (env.reduced_objective(theta_val + h) - env.reduced_objective(theta_val - h)) / (2 * h)
        assert g[0] == pytest.approx(fd, rel=1e-6)


def test_hypergradient_biased_solver_formula():
    # with solution b*theta + eps, the gradient picks up a constant bias
    env = quad_env()
    coupling = abs(env.cfg.a - env.cfg.b)
    eps = 0.1
    theta = np.array([0.0])
    w = np.array([env.cfg.b * theta[0] + eps])
    adj = solve_adjoint(env, w, theta, None)
    g = hypergradient_at(env, w, adj, theta, None)
    assert g[0] == pytest.approx(coupling * eps, abs=1e-10)
    theta = np.array([0.7])
    w = np.array([env.cfg.b * theta[0] + eps])
    adj = solve_adjoint(env, w, theta, None)
    g = hypergradient_at(env, w, adj, theta, None)
    assert g[0] == pytest.approx(coupling**2 * theta[0] + coupling * eps, abs=1e-10)


def test_hypergradient_zero_terms():
    env = quad_env()
    theta = np.array([0.0])
    w = np.array([0.0])
    v = np.zeros(1)
    assert hypergradient_at(env, w, v, theta, None)[0] == 0.0


# -- transport buffer and step ---------------------------------------------------


def test_buffer_capacity_and_fifo_order():
    env = quad_env()
    buf = TransportBuffer(capacity=3)
    transport_step(buf, [record(env, t, 0.1 * t) for t in (4, 7, 9, 12)], env, np.array([0.5]))
    rows = buf.gradients
    assert buf.evict_to_capacity() == 1
    assert buf.rounds == [7, 9, 12] and len(buf) == 3
    assert [w[0] for w in buf.factors[0]] == [env.exact_inner(np.array([0.1 * t]))[0] for t in (7, 9, 12)]
    # the kept rows are the batch's own trailing rows, not a copy
    assert buf.gradients.shape == (3, 1) and np.shares_memory(buf.gradients, rows)
    assert buf.evict_to_capacity() == 0
    with pytest.raises(ContractError, match="round 9 already buffered"):
        transport_step(buf, [record(env, 9, 0.0)], env, np.array([0.5]))


def test_negative_capacity_is_rejected():
    with pytest.raises(ContractError, match="capacity"):
        TransportBuffer(capacity=-1)


def test_buffer_is_provisioned_for_the_rounds_a_run_plays():
    # a run holds no more outstanding rounds than it plays, so a delay bound
    # far past the round count changes no output and allocates no more rows
    runs = [run_online(make_environment("sinkhorn", seed=0), make_algorithm("transport_adam"),
                       DelaySchedule(kind="bursty", d_high=d_high, block_len=10), rounds=30)
            for d_high in (10**6, 10**15)]
    assert runs[1].columns.keys() == runs[0].columns.keys()
    for name, column in runs[0].columns.items():
        assert runs[1].columns[name].tobytes() == column.tobytes(), name
    assert runs[1].final_theta.tobytes() == runs[0].final_theta.tobytes()


def test_transport_step_empty_is_zero():
    env = quad_env()
    buf = TransportBuffer(capacity=5)
    g, skipped = transport_step(buf, [], env, np.array([1.0]))
    assert g[0] == 0.0 and len(buf) == 0 and skipped == 0


def test_transport_step_single_arrival_equals_arrival_gradient():
    env = quad_env()
    buf = TransportBuffer(capacity=5)
    theta = np.array([0.6])
    rec = record(env, 1, 0.6)
    g, _ = transport_step(buf, [rec], env, theta)
    adj = solve_adjoint(env, rec.dispatch_decision, theta, None)
    expected = hypergradient_at(env, rec.dispatch_decision, adj, theta, None)
    assert g[0] == pytest.approx(expected[0], abs=1e-12)
    assert len(buf) == 1


def test_new_arrival_contributes_zero_increment_on_its_round():
    env = quad_env()
    buf = TransportBuffer(capacity=5)
    theta = np.array([0.4])
    transport_step(buf, [record(env, 1, 0.4)], env, theta)
    g_direct = hypergradient_at(env, buf.factors[0][0], buf.factors[1][0], theta, None)
    assert buf.gradients[0, 0] == pytest.approx(g_direct[0], abs=1e-15)


def test_telescope_exactness_over_path():
    # accumulated transport increments reconstruct the frozen gradient exactly
    env = quad_env(a=0.7, b=2.3, mu_w=1.4)
    buf = TransportBuffer(capacity=5)
    rng = np.random.default_rng(2)
    theta0 = np.array([1.1])
    rec = record(env, 1, theta0[0], w_val=2.0)
    total, _ = transport_step(buf, [rec], env, theta0)
    theta = theta0
    for _ in range(5):
        theta = theta + rng.normal(scale=0.8, size=1)
        g, _ = transport_step(buf, [], env, theta)
        total = total + g
    direct = hypergradient_at(env, buf.factors[0][0], buf.factors[1][0], theta, None)
    assert abs(total[0] - direct[0]) <= 1e-12


def test_transport_step_skips_failed_adjoint(caplog, monkeypatch):
    env = quad_env()

    def fail(w, theta, z):
        raise SolverError("singular adjoint system")

    monkeypatch.setattr(env, "exact_adjoint", fail)
    buf = TransportBuffer(capacity=2)
    rec = record(env, 3, 0.0, w_val=1.0)
    g, skipped = transport_step(buf, [rec], env, np.zeros(1))
    assert skipped == 1
    assert g[0] == 0.0 and len(buf) == 0
    assert "round 3 arrival skipped: singular adjoint system" in caplog.text


@pytest.mark.parametrize("algorithm", ["transport_omd", "stale_omd"])
def test_singular_closed_form_adjoint_skips_the_arrival(caplog, monkeypatch, algorithm):
    # np.linalg.solve signals a singular system with LinAlgError; both engines
    # skip such an arrival with a warning instead of ending the run
    env = make_environment("lqr", seed=0)

    def singular(w, theta, z):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(env, "exact_adjoint", singular)
    res = run_online(env, make_algorithm(algorithm), DelaySchedule(kind="constant", d=0, seed=0), rounds=4)
    assert res.rounds_logged == 4 and not res.diverged
    assert res.skipped_arrivals == 4
    assert np.array_equal(res.final_theta, env.theta_init())
    for t in range(1, 5):
        assert f"round {t} arrival skipped: adjoint solve failed: Singular matrix" in caplog.text


class AdjointRecorder(Environment):
    """A bare ``Environment`` with an adjoint and no derivative products: each
    re-evaluation row is the adjoint it is handed, and every call's adjoints
    are kept."""

    p = q = 2

    def __init__(self):
        self.calls = []

    def theta_init(self):
        return np.zeros(2)

    def initial_decision(self):
        return np.zeros(2)

    def solve_inner(self, theta, w_prev):
        raise NotImplementedError

    def inner_diagnostics(self, theta, w):
        raise NotImplementedError

    def realize_outcome(self, t, theta, w):
        raise NotImplementedError

    def comparator_round_loss(self, z):
        return 0.0

    def exact_adjoint(self, w, theta, z):
        return w + z * theta

    def stored_factors(self, w, v, z):
        return (v,)

    def hypergradients_at_many(self, theta, adjoints):
        self.calls.append([a.copy() for a in adjoints])
        return adjoints.copy()


def recorder_arrival(t, theta):
    return OutcomeRecord(round=t, payload=float(t), dispatch_params=np.array(theta),
                         dispatch_decision=np.array([t, -t], dtype=float))


def test_transport_step_hands_every_arrival_its_exact_adjoint():
    env = AdjointRecorder()
    buf = TransportBuffer(capacity=4)
    first, second = recorder_arrival(1, [9.0, 9.0]), recorder_arrival(2, [8.0, 8.0])
    theta1, theta2 = np.array([0.5, -1.0]), np.array([2.0, 3.0])
    transport_step(buf, [first, second], env, theta1)
    third = recorder_arrival(3, [7.0, 7.0])
    transport_step(buf, [third], env, theta2)
    # arrivals are solved at the current point; buffered rounds keep their
    # adjoints and come first, oldest first
    expected = [
        [adjoint_of(env, first, theta1), adjoint_of(env, second, theta1)],
        [adjoint_of(env, first, theta1), adjoint_of(env, second, theta1), adjoint_of(env, third, theta2)],
    ]
    assert len(env.calls) == 2
    for handed, want in zip(env.calls, expected):
        assert len(handed) == len(want)
        for got, ref in zip(handed, want):
            assert isinstance(got, np.ndarray) and np.array_equal(got, ref)


def test_stale_engine_hands_each_arrival_its_dispatch_adjoint():
    env = AdjointRecorder()
    arrivals = [recorder_arrival(1, [9.0, 9.0]), recorder_arrival(2, [8.0, 8.0])]
    g, skipped = StaleArrivalEngine(env).round_gradient(np.array([0.5, -1.0]), arrivals)
    want = [adjoint_of(env, rec, rec.dispatch_params) for rec in arrivals]
    assert [len(handed) for handed in env.calls] == [1, 1]
    for (got,), ref in zip(env.calls, want):
        assert isinstance(got, np.ndarray) and np.array_equal(got, ref)
    assert np.array_equal(g, want[0] + want[1]) and skipped == 0


class ThetaScaled(AdjointRecorder):
    """Each re-evaluation row is the stored adjoint's leading entries times
    theta, as wide as theta, so a row of +0.0 turns into -0.0 when theta
    does."""

    def hypergradients_at_many(self, theta, adjoints):
        return adjoints[:, :theta.size] * theta


@pytest.mark.parametrize("buffered", [1, 3])
@pytest.mark.parametrize("width", [1, 2])
def test_fold_of_lone_negative_zero_increments_is_positive_zero(width, buffered):
    # the sum starts from +0.0, as a one-vector-at-a-time fold from np.zeros
    # does, so a round with no arrivals and increments of -0.0 returns +0.0;
    # one row takes the single add, more rows the reduction, or at width 1
    # the sequential fold
    env = ThetaScaled()
    buf = TransportBuffer(capacity=4)
    arrivals = [recorder_arrival(t, [0.0, 0.0]) for t in range(1, buffered + 1)]
    transport_step(buf, arrivals, env, np.array([0.0, -0.0][:width]))
    assert buf.gradients.tobytes() == np.zeros((buffered, width)).tobytes()
    g, _ = transport_step(buf, [], env, np.array([-0.0, 0.0][:width]))
    # every row went from +0.0 to -0.0, so every increment is -0.0
    assert buf.gradients.tobytes() == np.full((buffered, width), -0.0).tobytes()
    assert g.tobytes() == np.zeros(width).tobytes()


# -- batched re-evaluation and telescoping ------------------------------------------


ENV_SPREADS = {"hard_quadratic": 0.05, "lqr": 0.05, "sinkhorn": 0.01, "grid_path": 0.05}


def adjoint_of(env, rec, theta):
    """The adjoint values ``transport_step`` solves for an arrival at ``theta``;
    None off the adjoint route."""
    return env.exact_adjoint(rec.dispatch_decision, theta, rec.payload)


def played_entries(env, rng, count, spread):
    """(record, adjoint) of ``count`` rounds, each dispatched at its own parameters."""
    w_prev = env.initial_decision()
    entries = []
    for t in range(1, count + 1):
        env.begin_round(t)
        theta = env.theta_init() + spread * rng.standard_normal(env.p)
        w_prev = env.solve_inner(theta, w_prev)
        z, _, _ = env.realize_outcome(t, theta, w_prev)
        rec = OutcomeRecord(round=t, payload=z, dispatch_params=theta, dispatch_decision=w_prev)
        entries.append((rec, adjoint_of(env, rec, theta)))
    return entries


def stacked(env, decisions, adjoints, payloads):
    """The rounds' ``stored_factors``, stacked along a leading row axis."""
    per_round = [env.stored_factors(w, v, z) for w, v, z in zip(decisions, adjoints, payloads)]
    return tuple(np.stack(column) for column in zip(*per_round))


def reevaluate(env, entries, theta):
    """One batched re-evaluation of ``entries`` at ``theta``."""
    return env.hypergradients_at_many(theta, *stacked(env, [rec.dispatch_decision for rec, _ in entries],
                                                      [adjoint for _, adjoint in entries],
                                                      [rec.payload for rec, _ in entries]))


def single_gradient(env, rec, adjoint, theta):
    """The per-round reference: the two-term formula on the adjoint route,
    two heap solves on the grid."""
    if adjoint is not None:
        return hypergradient_at(env, rec.dispatch_decision, adjoint, theta, rec.payload)
    return env.surrogate_gradient(theta, rec)


@pytest.mark.parametrize("name", sorted(ENV_SPREADS))
@settings(max_examples=12, deadline=None)
@given(m=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_every_batched_row_equals_its_single_evaluation_bitwise(name, m, seed):
    # m = 1 takes grid_path's heap branch, larger m its batched solve
    env = make_environment(name, seed=seed)
    rng = np.random.default_rng(seed)
    spread = ENV_SPREADS[name]
    entries = played_entries(env, rng, m, spread)
    theta = env.theta_init() + spread * rng.standard_normal(env.p)
    rows = reevaluate(env, entries, theta)
    assert rows.shape == (m, env.p)
    for (rec, adjoint), row in zip(entries, rows):
        assert np.array_equal(row, single_gradient(env, rec, adjoint, theta))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("name", sorted(ENV_SPREADS))
def test_batched_rows_are_a_fresh_array_the_caller_owns(name, m):
    # the transport buffer overwrites a batch's rows in place a round later
    env = make_environment(name, seed=1)
    rng = np.random.default_rng(1)
    entries = played_entries(env, rng, m, ENV_SPREADS[name])
    theta = env.theta_init() + ENV_SPREADS[name] * rng.standard_normal(env.p)
    rows = reevaluate(env, entries, theta)
    kept = rows.copy()
    inputs = [theta] + [a for rec, adjoint in entries for a in (rec.dispatch_decision, adjoint)
                        if a is not None]
    assert rows.flags.writeable and not any(np.shares_memory(rows, a) for a in inputs)
    rows[...] = np.nan
    assert reevaluate(env, entries, theta).tobytes() == kept.tobytes()


def test_batched_reevaluation_equals_per_entry_on_grid_exactly():
    env = make_environment("grid_path", seed=3)
    rng = np.random.default_rng(3)
    entries = played_entries(env, rng, 12, spread=0.05)
    theta = env.theta_init() + 0.05 * rng.standard_normal(env.p)
    rows = reevaluate(env, entries, theta)
    assert any(np.any(row != 0) for row in rows)  # some bumped paths differ
    for (rec, _), row in zip(entries, rows):
        assert np.array_equal(row, env.surrogate_gradient(theta, rec))


@pytest.mark.parametrize("pattern", [[(0, 3)], [(0, 3), (11, 5)]], ids=["one-start", "two-starts"])
def test_grid_rows_equal_single_evaluations_when_starts_repeat(pattern):
    # every payload's start cycles through ``pattern``, so base paths share
    # distance fields; goals and realized costs differ per round
    env = make_environment("grid_path", seed=4)
    rng = np.random.default_rng(4)
    theta = env.theta_init() + 0.05 * rng.standard_normal(env.p)
    records = []
    for t in range(1, 15):
        env.begin_round(t)
        start = pattern[t % len(pattern)]
        goal = env.goal if env.goal != start else env.start
        z = {"costs_true": env.current_true_costs(), "start": start, "goal": goal}
        records.append(OutcomeRecord(round=t, payload=z, dispatch_params=theta,
                                     dispatch_decision=env.initial_decision()))
    rows = env.hypergradients_at_many(theta, *stacked(env, [r.dispatch_decision for r in records],
                                                      [None] * len(records), [r.payload for r in records]))
    assert any(np.any(row != 0) for row in rows)
    for rec, row in zip(records, rows):
        assert np.array_equal(row, env.surrogate_gradient(theta, rec))


def test_grid_unmoved_rows_are_positive_zero_and_every_row_is_the_heap_row_bytewise():
    # realized costs equal to the predicted ones only double the grid, which
    # keeps every path, ties included, so those rows move nowhere; the others
    # carry the round's realized costs and mostly do move
    env = make_environment("grid_path", seed=5)
    rng = np.random.default_rng(5)
    theta = env.theta_init() + 0.05 * rng.standard_normal(env.p)
    predicted, _ = env.predicted_costs(theta)
    records = []
    for t in range(1, 25):
        env.begin_round(t)
        costs_true = predicted if t % 3 else env.current_true_costs()
        z = {"costs_true": costs_true, "start": env.start, "goal": env.goal}
        records.append(OutcomeRecord(round=t, payload=z, dispatch_params=theta,
                                     dispatch_decision=env.initial_decision()))
    rows = env.hypergradients_at_many(theta, *stacked(env, [r.dispatch_decision for r in records],
                                                      [None] * len(records), [r.payload for r in records]))
    moved = [i for i, row in enumerate(rows) if np.any(row != 0)]
    assert 0 < len(moved) <= 8
    for i, (rec, row) in enumerate(zip(records, rows)):
        assert row.tobytes() == env.surrogate_gradient(theta, rec).tobytes(), i
        if rec.round % 3:
            assert i not in moved
            assert row.tobytes() == np.zeros(env.p).tobytes()  # +0.0, not -0.0


def test_batched_reevaluation_equals_per_entry_on_sinkhorn():
    env = make_environment("sinkhorn", seed=3)
    rng = np.random.default_rng(3)
    entries = played_entries(env, rng, 6, spread=0.01)
    theta = env.theta_init() + 0.01 * rng.standard_normal(env.p)
    rows = reevaluate(env, entries, theta)
    for (rec, adjoint), row in zip(entries, rows):
        assert np.array_equal(row, hypergradient_at(env, rec.dispatch_decision, adjoint, theta, rec.payload))


@pytest.mark.parametrize("name", ["hard_quadratic", "lqr"])
def test_batched_reevaluation_equals_per_entry_on_adjoint_envs_exactly(name):
    # hard_quadratic and lqr each take their own stacked products; both must
    # match the arrival path bit for bit
    env = make_environment(name, seed=3)
    rng = np.random.default_rng(3)
    entries = played_entries(env, rng, 9, spread=0.05)
    theta = env.theta_init() + 0.05 * rng.standard_normal(env.p)
    rows = reevaluate(env, entries, theta)
    assert any(np.any(row != 0) for row in rows)
    for (rec, adjoint), row in zip(entries, rows):
        assert np.array_equal(row, hypergradient_at(env, rec.dispatch_decision, adjoint, theta, rec.payload))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 25), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 30.0]))
def test_lqr_stacked_hypergradients_equal_per_entry_bitwise(m, seed, scale):
    env = make_environment("lqr", seed=0)
    rng = np.random.default_rng(seed)
    theta = env.theta_init() + scale * rng.standard_normal(env.p)
    decisions = [scale * rng.standard_normal(env.q) for _ in range(m)]
    adjoints = [scale * rng.standard_normal(env.q) for _ in range(m)]
    batch = env.hypergradients_at_many(theta, *stacked(env, decisions, adjoints, [None] * m))
    assert batch.shape == (m, env.p)
    for i in range(m):
        assert np.array_equal(batch[i], hypergradient_at(env, decisions[i], adjoints[i], theta, None))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 25), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 30.0]),
       a=st.floats(-3.0, 3.0), gap=st.floats(0.1, 3.0), mu_w=st.floats(0.05, 20.0))
def test_hard_quadratic_stacked_hypergradients_equal_per_entry_bitwise(m, seed, scale, a, gap, mu_w):
    env = quad_env(a=a, b=a + gap, mu_w=mu_w)
    rng = np.random.default_rng(seed)
    theta = scale * rng.standard_normal(1)
    decisions = [scale * rng.standard_normal(1) for _ in range(m)]
    adjoints = [scale * rng.standard_normal(1) for _ in range(m)]
    batch = env.hypergradients_at_many(theta, *stacked(env, decisions, adjoints, [None] * m))
    assert batch.shape == (m, 1)
    for i in range(m):
        assert np.array_equal(batch[i], hypergradient_at(env, decisions[i], adjoints[i], theta, None))


def test_hypergradient_at_rejects_mismatched_terms():
    env = quad_env()
    env.grad_theta_true_fixed_w = lambda w, th, z=None: np.zeros(2)
    with pytest.raises(ContractError, match="dimension mismatch"):
        hypergradient_at(env, np.array([0.5]), np.array([1.0]), np.array([0.3]), None)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), delays=st.lists(st.integers(0, 4), min_size=2, max_size=10))
def test_transport_gradients_telescope_on_grid(seed, delays):
    # with no evictions, the gradients applied so far sum to every buffered
    # round's surrogate gradient at the latest parameters
    env = GridPathProblem(GridPathConfig(height=6, width=7, feature_dim=12), seed=seed)
    rng = np.random.default_rng(seed)
    rounds = len(delays)
    engine = TransportEngine(env, capacity=rounds)
    theta = env.theta_init()
    w = env.initial_decision()
    pending: dict[int, list[OutcomeRecord]] = {}
    played: dict[int, OutcomeRecord] = {}
    applied = np.zeros(env.p)
    scale = 1.0
    for t, delay in enumerate(delays, start=1):
        env.begin_round(t)
        w = env.solve_inner(theta, w)
        z, _, _ = env.realize_outcome(t, theta, w)
        rec = played[t] = OutcomeRecord(round=t, payload=z, dispatch_params=theta, dispatch_decision=w)
        pending.setdefault(t + delay, []).append(rec)
        g, _ = engine.round_gradient(theta, pending.pop(t, []))
        assert engine.end_round() == 0
        applied += g
        scale = max(scale, float(np.abs(g).max()))
        theta_last = theta
        theta = theta + 0.5 * rng.standard_normal(env.p)
    expected = np.zeros(env.p)
    for t in engine.buffer.rounds:
        expected += env.surrogate_gradient(theta_last, played[t])
    assert len(engine.buffer) == sum(1 for t, d in enumerate(delays, start=1) if t + d <= rounds)
    np.testing.assert_allclose(applied, expected, rtol=0, atol=1e-12 * rounds * scale)


def check_folded_arrivals(env, spread, seed, delays, capacity):
    """Every round, ``transport_step``'s gradient equals, byte for byte,
    single evaluations of the arrivals plus per-entry re-evaluation of the
    buffer, summed one vector at a time in the same order (arrivals first,
    then increments, oldest first), and the buffer holds the same rounds.
    Bytes, not ``==``: a fold that turned a +0.0 into -0.0 would pass
    ``np.array_equal``."""
    rng = np.random.default_rng(seed)
    buf = TransportBuffer(capacity)
    ref: list[list] = []  # [record, adjoint, cached gradient], oldest first
    theta = env.theta_init()
    w = env.initial_decision()
    pending: dict[int, list[OutcomeRecord]] = {}
    for t, delay in enumerate(delays, start=1):
        env.begin_round(t)
        w = env.solve_inner(theta, w)
        z, _, _ = env.realize_outcome(t, theta, w)
        rec = OutcomeRecord(round=t, payload=z, dispatch_params=theta, dispatch_decision=w)
        pending.setdefault(t + delay, []).append(rec)
        arrivals = pending.pop(t, [])

        g, _ = transport_step(buf, arrivals, env, theta)
        buf.evict_to_capacity()

        expected = np.zeros(env.p)
        fresh = []
        for a in arrivals:
            adjoint = adjoint_of(env, a, theta)
            g_s = single_gradient(env, a, adjoint, theta)
            expected += g_s
            fresh.append([a, adjoint, g_s])
        for entry in ref:
            g_new = single_gradient(env, entry[0], entry[1], theta)
            expected += g_new - entry[2]
            entry[2] = g_new
        ref = (ref + fresh)[max(0, len(ref) + len(fresh) - capacity):]

        assert g.tobytes() == expected.tobytes(), t
        assert buf.rounds == [e[0].round for e in ref]
        theta = theta + spread * rng.standard_normal(env.p)


FOLD_CASES = dict(seed=st.integers(0, 2**16), delays=st.lists(st.integers(0, 4), min_size=2, max_size=24),
                  capacity=st.integers(0, 16))
# numpy sums a column of 8 or more one-element rows pairwise. FULL_BUFFER
# folds 8 to 12 increments a round from round 9 on; MIXED_FULL_BUFFER folds
# 8 to 10 from round 10 on, with rounds of 0 to 2 arrivals and evictions of
# up to 2; EVICT_EVERY_ROUND evicts a round on every round after the first.
FULL_BUFFER = dict(seed=2, delays=[0] * 20, capacity=12)
MIXED_FULL_BUFFER = dict(seed=1, delays=[0, 3, 1, 0, 2, 0, 4, 1, 0, 0, 3, 2, 0, 1, 0, 0, 2, 0], capacity=10)
EVICT_EVERY_ROUND = dict(seed=0, delays=[0] * 12, capacity=1)


@settings(max_examples=25, deadline=None)
@given(**FOLD_CASES)
@example(**FULL_BUFFER)
@example(**EVICT_EVERY_ROUND)
def test_folded_arrivals_equal_single_evaluations_on_grid(seed, delays, capacity):
    env = GridPathProblem(GridPathConfig(height=6, width=7, feature_dim=12), seed=seed)
    check_folded_arrivals(env, 0.5, seed, delays, capacity)


@pytest.mark.parametrize("name", ["hard_quadratic", "lqr", "sinkhorn"])
@settings(max_examples=10, deadline=None)
@given(**FOLD_CASES)
@example(**FULL_BUFFER)
@example(**MIXED_FULL_BUFFER)
@example(**EVICT_EVERY_ROUND)
def test_folded_arrivals_equal_single_evaluations_on_adjoint_envs(name, seed, delays, capacity):
    check_folded_arrivals(make_environment(name, seed=seed), ENV_SPREADS[name], seed, delays, capacity)


def check_window(env, buf, live, theta):
    """The buffer holds ``live``'s rounds, its factor window is their
    ``stored_factors`` stacked in order, byte for byte, and the batch on that
    window gives each round's single evaluation at ``theta``, byte for byte."""
    assert buf.rounds == [rec.round for rec, _ in live]
    window = buf.factors
    assert all(len(factor) == len(live) for factor in window)
    if not live:
        return
    want = stacked(env, [rec.dispatch_decision for rec, _ in live], [adjoint for _, adjoint in live],
                   [rec.payload for rec, _ in live])
    assert len(window) == len(want)
    for got, ref in zip(window, want):
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    rows = env.hypergradients_at_many(theta, *window)
    assert rows.shape == (len(live), env.p)
    for (rec, adjoint), row in zip(live, rows):
        assert row.tobytes() == single_gradient(env, rec, adjoint, theta).tobytes()


@pytest.mark.parametrize("name", sorted(ENV_SPREADS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), arrivals=st.lists(st.integers(0, 4), min_size=1, max_size=14),
       capacity=st.integers(0, 5))
# four arrivals outgrow the first storage of two rows, and the next two
# rounds' windows each move back to the front of the four
@example(seed=0, arrivals=[4, 4, 4], capacity=0)
def test_buffer_window_is_the_live_rounds_stored_factors(name, seed, arrivals, capacity):
    # random appends and evictions, 0 to 4 arrivals a round: after each
    # step and after each eviction the window is the live rounds' factors,
    # through every move to the front and every growth of its storage
    env = make_environment(name, seed=seed)
    rng = np.random.default_rng(seed)
    spread = ENV_SPREADS[name]
    played = iter(rec for rec, _ in played_entries(env, rng, sum(arrivals), spread))
    buf = TransportBuffer(capacity)
    live: list = []  # (record, adjoint solved on arrival), oldest first
    for count in arrivals:
        theta = env.theta_init() + spread * rng.standard_normal(env.p)
        batch = [next(played) for _ in range(count)]
        transport_step(buf, batch, env, theta)
        live += [(rec, adjoint_of(env, rec, theta)) for rec in batch]
        check_window(env, buf, live, theta)
        buf.evict_to_capacity()
        live = live[max(0, len(live) - capacity):]
        check_window(env, buf, live, theta)


# -- error surrogates --------------------------------------------------------------


def path_history(steps):
    """history[t] = theta_t for t = 1..len(steps)+1, starting at 0."""
    hist = [None, np.zeros(1)]
    for s in steps:
        hist.append(hist[-1] + np.array([s]))
    return hist


def step_norms(hist):
    """steps[s] = ||theta_{s+1} - theta_s||^2 for every step in ``hist``."""
    steps = [0.0]
    for s in range(1, len(hist) - 1):
        d = hist[s + 1] - hist[s]
        steps.append(float(d @ d))
    return steps


def test_surrogates_constant_step_ratio_is_window_length():
    d = 10
    delta = 0.25
    hist = path_history([delta] * 40)
    t = 30
    outstanding = set(range(t - d + 1, t + 1))
    drift_sq, step_sq = transport_error_surrogates(hist, step_norms(hist), outstanding, t)
    assert drift_sq == pytest.approx((d * delta) ** 2, rel=1e-12)
    assert step_sq == pytest.approx(d * delta**2, rel=1e-12)
    assert drift_sq / step_sq == pytest.approx(d, rel=1e-12)


def test_surrogates_unit_window_always_equal():
    rng = np.random.default_rng(4)
    hist = path_history(list(rng.normal(size=20)))
    steps = step_norms(hist)
    for t in range(1, 19):
        drift_sq, step_sq = transport_error_surrogates(hist, steps, {t}, t)
        assert drift_sq == pytest.approx(step_sq, rel=1e-12)


def test_surrogates_zero_motion_and_empty_window():
    hist = path_history([0.0] * 10)
    assert transport_error_surrogates(hist, step_norms(hist), {3, 4, 5}, 5) == (0.0, 0.0)
    assert transport_error_surrogates(hist, step_norms(hist), set(), 5) == (0.0, 0.0)


def test_cauchy_schwarz_window_inequality_random_paths():
    rng = np.random.default_rng(8)
    for _ in range(200):
        steps = rng.normal(size=(15, 3))
        hist = [None, np.zeros(3)]
        for s in steps:
            hist.append(hist[-1] + s)
        t = 12
        d = int(rng.integers(1, 10))
        outstanding = set(range(t - d + 1, t + 1))
        drift_sq, step_sq = transport_error_surrogates(hist, step_norms(hist), outstanding, t)
        assert drift_sq <= d * step_sq * (1 + 1e-9) + 1e-15


def test_window_inequality_violation_raises_invariant_error(monkeypatch):
    # the runner checks drift_sq <= d * step_sq_sum every round of a constant
    # delay; surrogates that break it must stop the run with the named error
    real = runner.transport_error_surrogates

    def inflated(*args):
        _, step_sq_sum = real(*args)
        return 2.0 * step_sq_sum + 1.0, step_sq_sum

    monkeypatch.setattr(runner, "transport_error_surrogates", inflated)
    with pytest.raises(InvariantError, match="window inequality violated at round 1") as err:
        run_online(quad_env(), make_algorithm("stale_omd", eta0=0.1),
                   DelaySchedule(kind="constant", d=2, seed=0), rounds=5)
    assert isinstance(err.value, AssertionError)


@pytest.mark.parametrize("delay", [DelaySchedule(kind="constant", d=6, seed=0),
                                   DelaySchedule(kind="uniform", d_max=5, seed=3)], ids=["constant", "uniform"])
def test_runner_keeps_parameters_only_from_the_oldest_outstanding_round(monkeypatch, delay):
    real = runner.transport_error_surrogates
    seen = []

    def recording(param_history, step_sqs, outstanding, t):
        oldest = min(outstanding, default=t + 1)
        seen.append((t, sorted(param_history), sorted(step_sqs), oldest))
        return real(param_history, step_sqs, outstanding, t)

    monkeypatch.setattr(runner, "transport_error_surrogates", recording)
    run_online(quad_env(), make_algorithm("transport_omd", eta0=0.1), delay, rounds=40)
    assert len(seen) == 40
    for t, rounds_kept, steps_kept, oldest in seen:
        # the previous round's window, plus this round's new entries
        assert rounds_kept[-1] == t + 1 and steps_kept[-1] == t
        assert rounds_kept[0] <= oldest and len(rounds_kept) <= delay.sigma_bound + 2
        assert steps_kept == rounds_kept[:-1]
