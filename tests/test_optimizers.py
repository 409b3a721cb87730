"""Update rules, gradient engines, schedules, and the online loop invariants."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayopt.core import ContractError, OutcomeRecord
from delayopt.delays import DelaySchedule
from delayopt.environments import ENVIRONMENTS, environment_names, make_environment
from delayopt.harness import run_regret
from delayopt.optimizers import (
    Adam,
    AlgorithmConfig,
    StaleArrivalEngine,
    adaptive_step,
    algorithm_names,
    make_algorithm,
    make_engine,
)
from delayopt.runner import DIVERGENCE_NORM, run_online
from delayopt.transport import hypergradient_at, solve_adjoint


def quad(seed=0, **kw):
    return make_environment("hard_quadratic", seed=seed, **kw)


def const_delay(d, seed=0):
    return DelaySchedule(kind="constant", d=d, seed=seed)


# -- step schedule ---------------------------------------------------------------


def step_config(eta0, beta=1.0, mode="queue_adaptive", clip_norm=None):
    return AlgorithmConfig(name="a", gradient="transport", base="plain_gd", eta0=eta0,
                           beta_damping=beta, schedule_mode=mode, clip_norm=clip_norm)


def test_adaptive_step_values():
    algo = step_config(eta0=0.2, beta=1.0)
    assert adaptive_step(algo, 0) == pytest.approx(0.2)
    assert adaptive_step(algo, 3) == pytest.approx(0.1)
    assert adaptive_step(step_config(eta0=0.5, beta=2.0, mode="constant"), 99) == 0.5


def test_adaptive_step_monotone_in_envelope():
    algo = step_config(eta0=1.0, beta=1.0)
    vals = [adaptive_step(algo, s) for s in range(0, 50)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_schedule_validation():
    # each range test rejects NaN as well as values out of range
    for kwargs, message in [
        (dict(eta0=0.0), "eta0 must be positive"),
        (dict(eta0=np.nan), "eta0 must be positive"),
        (dict(eta0=np.inf), "eta0 must be positive and finite"),
        (dict(eta0=0.1, beta=-1.0), "beta_damping must be finite and >= 0"),
        (dict(eta0=0.1, beta=np.nan), "beta_damping must be finite"),
        (dict(eta0=0.1, mode="bogus"), "unknown schedule mode 'bogus'"),
        (dict(eta0=0.1, clip_norm=0.0), "clip_norm must be positive"),
        (dict(eta0=0.1, clip_norm=-1.0), "clip_norm must be positive"),
        (dict(eta0=0.1, clip_norm=np.nan), "clip_norm must be positive"),
    ]:
        with pytest.raises(ContractError, match=message):
            step_config(**kwargs)


# -- base rules --------------------------------------------------------------------


class AdamReference:
    """Adam as first written: fresh moment arrays from whole expressions."""

    def __init__(self):
        self.m = self.v = None
        self.t = 0

    def update(self, theta, g, eta):
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = Adam.beta1 * self.m + (1 - Adam.beta1) * g
        self.v = Adam.beta2 * self.v + (1 - Adam.beta2) * g * g
        m_hat = self.m / (1 - Adam.beta1 ** self.t)
        v_hat = self.v / (1 - Adam.beta2 ** self.t)
        return theta - eta * m_hat / (np.sqrt(v_hat) + Adam.floor)


gradient_entries = st.sampled_from([0.0, -0.0, 1e150, -1e150, 1e-300]) | st.floats(-1e6, 1e6)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 8), updates=st.integers(1, 60), eta=st.sampled_from([1e-3, 0.1, 7.0]), data=st.data())
def test_adam_equals_reference_bitwise_and_keeps_returned_thetas(p, updates, eta, data):
    # zeros and -0.0 keep a moment at zero; 1e150 squared is near the top of
    # the float range
    adam, reference = Adam(), AdamReference()
    theta = ref_theta = np.linspace(-1.0, 1.0, p)
    returned = []
    for _ in range(updates):
        g = np.array(data.draw(st.lists(gradient_entries, min_size=p, max_size=p)))
        theta = adam.update(theta, g, eta)
        ref_theta = reference.update(ref_theta, g, eta)
        assert theta.tobytes() == ref_theta.tobytes()
        returned.append((theta, theta.copy()))
    assert adam.m.tobytes() == reference.m.tobytes() and adam.v.tobytes() == reference.v.tobytes()
    # each returned theta is its own array, untouched by later updates
    assert all(kept.tobytes() == copy.tobytes() for kept, copy in returned)
    assert len({id(kept) for kept, _ in returned}) == updates


# -- named algorithms --------------------------------------------------------------


def test_unknown_algorithm_rejected():
    with pytest.raises(ContractError, match="unknown algorithm"):
        make_algorithm("nope", eta0=0.1)


def test_two_stage_requires_prediction_target():
    env = quad()
    cfg = make_algorithm("two_stage", eta0=0.1)
    with pytest.raises(ContractError, match="prediction target"):
        make_engine(cfg, env, buffer_capacity=0)


# -- stale arrivals --------------------------------------------------------------------


def played_records(env, rng, count, spread):
    """Outcome records of ``count`` rounds, each dispatched at its own parameters."""
    w_prev = env.initial_decision()
    records = []
    for t in range(1, count + 1):
        env.begin_round(t)
        theta = env.theta_init() + spread * rng.standard_normal(env.p)
        w_prev = env.solve_inner(theta, w_prev)
        z, _, _ = env.realize_outcome(t, theta, w_prev)
        records.append(OutcomeRecord(round=t, payload=z, dispatch_params=theta, dispatch_decision=w_prev))
    return records


@pytest.mark.parametrize("name,route,spread", [
    ("lqr", "adjoint", 0.01), ("sinkhorn", "adjoint", 0.01), ("grid_path", "surrogate", 0.05),
])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 5), split=st.integers(0, 5))
def test_stale_engine_sums_arrival_gradients_at_dispatch(name, route, spread, seed, count, split):
    env = make_environment(name, seed=seed)
    rng = np.random.default_rng(seed)
    records = played_records(env, rng, count, spread)
    engine = StaleArrivalEngine(env)
    theta_now = env.theta_init() + spread * rng.standard_normal(env.p)
    for batch in (records[:split], records[split:]):
        expected = np.zeros(env.p)
        for rec in batch:
            theta_s, w_s, z_s = rec.dispatch_params, rec.dispatch_decision, rec.payload
            if route == "adjoint":
                v_s = solve_adjoint(env, w_s, theta_s, z_s)
                expected += hypergradient_at(env, w_s, v_s, theta_s, z_s)
            else:
                expected += env.surrogate_gradient(theta_s, rec)
        g, skipped = engine.round_gradient(theta_now, batch)
        np.testing.assert_allclose(g, expected, rtol=1e-12, atol=1e-15)
        assert skipped == 0
        assert engine.end_round() == 0


# -- trajectory identities -----------------------------------------------------------


def test_d0_trajectories_identical_across_hypergradient_family():
    algos = [make_algorithm(name, eta0=0.1, clip_norm=None) for name in ("transport_omd", "stale_omd")]
    algos.append(make_algorithm("stale_omd", base="dftrl", eta0=0.1, clip_norm=None))
    base = None
    for algo in algos:
        env = quad(seed=1)
        res = run_online(env, algo, const_delay(0, seed=1), rounds=60)
        losses = res.columns["true_loss"]
        if base is None:
            base = losses
        else:
            assert np.max(np.abs(losses - base)) <= 1e-12, (algo.name, algo.base)


def test_d0_transport_equals_base_adam():
    env = quad(seed=2)
    r1 = run_online(env, make_algorithm("transport_adam", eta0=0.05), const_delay(0), rounds=50)
    env = quad(seed=2)
    r2 = run_online(env, make_algorithm("stale_adam", eta0=0.05), const_delay(0), rounds=50)
    assert np.max(np.abs(r1.columns["true_loss"] - r2.columns["true_loss"])) <= 1e-12


# transport/stale pair per base rule; each pair differs only in gradient source
ZERO_STALENESS_PAIRS = {
    "plain_gd": (make_algorithm("transport_omd"), make_algorithm("stale_omd")),
    "adam": (make_algorithm("transport_adam"), make_algorithm("stale_adam")),
    "dftrl": (make_algorithm("transport_omd", base="dftrl"), make_algorithm("stale_omd", base="dftrl")),
}
# schedules whose every draw is 0: feedback lands in the round that made it
ZERO_DELAYS = (
    dict(kind="constant", d=0),
    dict(kind="uniform", d_max=0),
    dict(kind="bursty", d_high=0, block_len=3),
)


@settings(max_examples=30, deadline=None)
@given(
    env_name=st.sampled_from(["hard_quadratic", "lqr", "sinkhorn", "grid_path"]),
    base=st.sampled_from(sorted(ZERO_STALENESS_PAIRS)),
    delay=st.sampled_from(ZERO_DELAYS),
    seed=st.integers(0, 2**16),
    rounds=st.integers(1, 40),
)
def test_zero_staleness_transport_and_stale_runs_bit_identical(env_name, base, delay, seed, rounds):
    # at zero staleness the transport buffer never holds a round past its
    # arrival, so transport and stale gradients coincide and every logged
    # column must agree bit for bit
    runs = []
    for algo in ZERO_STALENESS_PAIRS[base]:
        env = make_environment(env_name, seed=seed)
        runs.append(run_online(env, algo, DelaySchedule(seed=seed, **delay), rounds))
    transport, stale = runs
    assert transport.delay_hash == stale.delay_hash
    assert transport.columns.keys() == stale.columns.keys()
    for column, values in transport.columns.items():
        assert values.tobytes() == stale.columns[column].tobytes(), column
    assert transport.final_theta.tobytes() == stale.final_theta.tobytes()


def test_geometric_convergence_synchronous():
    # theta' = (1 - eta * coupling^2) theta when feedback is immediate
    env = quad(seed=0)
    res = run_online(env, make_algorithm("stale_omd", eta0=0.3, schedule_mode="constant"),
                     const_delay(0), rounds=40)
    theta_like = np.sqrt(2.0 * res.columns["true_loss"])  # |coupling * theta|
    ratios = theta_like[1:] / theta_like[:-1]
    assert np.allclose(ratios, 0.7, atol=1e-8)


def test_steady_state_displacement_under_bias_and_delay():
    env = quad(bias=0.1)
    res = run_online(env, make_algorithm("stale_omd", eta0=0.04, schedule_mode="constant"),
                     const_delay(10), rounds=5000)
    assert abs(res.final_theta[0] + 0.1) <= 1e-5
    assert np.mean(res.columns["true_loss"][-500:]) == pytest.approx(0.005, rel=0.01)


def test_step_norm_identity_plain_gd():
    env = quad(seed=3)
    algo = make_algorithm("stale_omd", eta0=0.07, schedule_mode="constant", clip_norm=None)
    # instrument: run and reconstruct ||step|| = eta * ||g|| from logged columns
    res = run_online(env, algo, const_delay(0), rounds=30)
    # reconstruct gradient norms from consecutive losses: theta_{t+1} = (1 - eta) theta_t ... use step_sq directly
    theta = env.theta_init()[0]
    for t in range(30):
        g = (env.cfg.a - env.cfg.b)**2 * theta
        expected_step = 0.07 * abs(g)
        assert np.sqrt(res.columns["step_sq"][t]) == pytest.approx(expected_step, abs=1e-12)
        theta -= 0.07 * g


def test_dftrl_two_identical_arrivals_linearity():
    # two arrivals of the same gradient move theta by 2 * eta * g from theta_1
    from delayopt.optimizers import LazyFTRL
    rule = LazyFTRL()
    theta1 = np.array([1.0])
    g = np.array([0.4])
    th2 = rule.update(theta1, g, 0.1)
    th3 = rule.update(th2, g, 0.1)
    assert th3[0] == pytest.approx(1.0 - 0.1 * 2 * 0.4, abs=1e-15)


def test_no_two_registry_names_give_the_same_run():
    # one constant-delay grid_path cell; every pair of names sharing a
    # gradient source must differ well past rounding
    regret = {}
    for name in algorithm_names():
        env = make_environment("grid_path", seed=0)
        # summed over the rounds played: plain two_stage diverges on round 29
        res = run_online(env, make_algorithm(name), const_delay(5), rounds=30)
        regret[name] = float(np.sum(res.columns["regret_inc"]))
    for a, b in itertools.combinations(algorithm_names(), 2):
        if make_algorithm(a).gradient == make_algorithm(b).gradient:
            assert abs(regret[a] - regret[b]) > 1e-3 * abs(regret[b]), (a, b)


@pytest.mark.parametrize("env_name, shift", [("hard_quadratic", 2.8e-3), ("sinkhorn", 1.2e-2)])
def test_dftrl_base_differs_from_gradient_descent_once_the_step_changes(env_name, shift):
    # lazy FTRL is gradient descent while the step is constant (constant
    # delay); uniform delays move the queue-adaptive step and set them apart
    def regret(base, delay):
        env = make_environment(env_name, seed=0)
        return run_regret(run_online(env, make_algorithm("stale_omd", base=base), delay, rounds=60).columns)

    uniform = dict(kind="uniform", d_max=10, seed=0)
    lazy, gd = regret("dftrl", DelaySchedule(**uniform)), regret("plain_gd", DelaySchedule(**uniform))
    assert (lazy - gd) / gd == pytest.approx(shift, rel=0.05)
    assert regret("dftrl", const_delay(5)) == pytest.approx(regret("plain_gd", const_delay(5)), rel=1e-12)


def test_divergence_guard_halts_run():
    env = quad(seed=0)
    algo = make_algorithm("stale_omd", eta0=5.0, schedule_mode="constant")
    res = run_online(env, algo, const_delay(0), rounds=500)
    assert res.diverged
    assert res.diverged_round is not None
    assert res.rounds_logged == res.diverged_round
    assert res.columns["diverged"][-1] == 1.0
    assert np.all(res.columns["diverged"][:-1] == 0.0)


def test_failed_inner_solve_ends_the_run_as_diverged():
    # step 100 makes every LQR inner solve overflow, so round 1 plays the
    # initial decision, is logged, and ends the run
    kw = dict(seed=0, inner_step_size=100.0, inner_steps=200)
    res = run_online(make_environment("lqr", **kw), make_algorithm("transport_omd"), const_delay(1), rounds=20)
    assert res.diverged and res.diverged_round == 1 and res.rounds_logged == 1
    assert res.columns["diverged"].tolist() == [1.0]
    env = make_environment("lqr", **kw)
    env.begin_round(1)
    _, loss, _ = env.realize_outcome(1, env.theta_init(), env.initial_decision())
    assert res.columns["true_loss"][0] == loss


# every registry algorithm on every environment that can run it
RUNNABLE = [(env_name, name) for env_name in environment_names() for name in algorithm_names()
            if make_algorithm(name).gradient != "two_stage" or ENVIRONMENTS[env_name].problem.has_prediction_target]


@settings(max_examples=40, deadline=None)
@example(cell=("lqr", "two_stage_adam"), eta0=1e4, d=0, seed=0, rounds=60)  # overflow in the clip norm
@example(cell=("lqr", "two_stage"), eta0=10.0, d=0, seed=0, rounds=60)  # overflow in step @ step
@given(
    cell=st.sampled_from(RUNNABLE),
    eta0=st.floats(1e-3, 1e4),
    d=st.integers(0, 10),
    seed=st.integers(0, 2**16),
    rounds=st.integers(1, 60),
)
def test_runs_return_without_warnings_at_any_step_size(cell, eta0, d, seed, rounds):
    # tier-1 turns warnings into errors, so an overflow in the runner's own
    # arithmetic on a blowing-up run fails here
    env_name, name = cell
    res = run_online(make_environment(env_name, seed=seed), make_algorithm(name, eta0=eta0),
                     const_delay(d, seed=seed), rounds)
    assert res.rounds_logged == (res.diverged_round if res.diverged else rounds)


def test_eta_column_nonincreasing_queue_adaptive():
    env = quad(seed=0)
    algo = make_algorithm("stale_omd", eta0=0.1, schedule_mode="queue_adaptive")
    res = run_online(env, algo, DelaySchedule(kind="uniform", d_max=8, seed=2), rounds=100)
    eta = res.columns["eta"]
    assert np.all(eta[:-1] >= eta[1:] - 1e-15)


def test_zero_gradient_rounds_keep_theta_constant():
    env = quad(seed=0)
    res = run_online(env, make_algorithm("stale_omd", eta0=0.1), const_delay(7), rounds=7)
    assert np.all(res.columns["step_sq"] == 0.0)


def delayed_gd(eta, d, rounds):
    """theta_{t+1} = theta_t - eta * theta_{t-d} from theta_1 = 1, with a zero
    gradient while t <= d, stopped where the runner stops a diverging run.
    Returns the last theta and every round's squared step."""
    thetas = [None, 1.0]  # thetas[t] is theta_t
    step_sqs = []
    for t in range(1, rounds + 1):
        theta_next = thetas[t] - eta * (thetas[t - d] if t > d else 0.0)
        thetas.append(theta_next)
        step = theta_next - thetas[t]
        step_sqs.append(step * step)
        if not math.sqrt(theta_next * theta_next) <= DIVERGENCE_NORM:
            break
    return thetas[-1], step_sqs


@pytest.mark.parametrize("factor", [0.9, 1.1])
@pytest.mark.parametrize("d", [0, 1, 10, 40])
def test_stale_arm_on_the_closed_form_instance_is_delayed_gradient_descent(d, factor):
    # a = 1, b = 2: a stale row at its dispatch snapshot is (b - a)^2 theta_s =
    # theta_s exactly, so under plain GD and a constant step the run is the
    # delayed recurrence, stable iff eta < 2 sin(pi / (2 (2d + 1)))
    eta = factor * 2 * math.sin(math.pi / (2 * (2 * d + 1)))
    rounds = 3000
    algo = make_algorithm("stale_omd", eta0=eta, schedule_mode="constant")
    res = run_online(quad(a=1.0, b=2.0), algo, const_delay(d), rounds)
    theta_last, step_sqs = delayed_gd(eta, d, rounds)
    assert res.final_theta.tolist() == [theta_last]
    assert res.columns["step_sq"].tolist() == step_sqs
    if factor < 1:
        assert not res.diverged and abs(theta_last) < 1.0
    else:
        assert res.diverged or abs(theta_last) > 1.0


def transport_eta_star(d, a=1.0, b=2.0):
    """The largest stable constant step of the transport arm with a full
    buffer of d rounds, theta_{t+1} = theta_t - eta [(b - a)(b theta_{t-d} -
    a theta_t) + d a^2 (theta_t - theta_{t-1})]: bisection on the spectral
    radius of its companion matrix."""
    def radius(eta):
        companion = np.eye(d + 1, k=-1)
        companion[0, 0] = 1 + eta * (b - a) * a - eta * d * a * a
        companion[0, 1] += eta * d * a * a
        companion[0, d] -= eta * (b - a) * b
        return max(abs(np.linalg.eigvals(companion)))

    stable, unstable = 0.0, 2.0
    for _ in range(60):
        mid = (stable + unstable) / 2
        stable, unstable = (mid, unstable) if radius(mid) < 1 else (stable, mid)
    return stable


@pytest.mark.parametrize("factor", [0.9, 1.1])
@pytest.mark.parametrize("d", [1, 10, 40])
def test_transport_arm_on_the_closed_form_instance_follows_its_recurrence(d, factor):
    # a = 1, b = 2: the gradient is 0 while t <= d, and afterwards the
    # arrival's row (b - a)(b theta_{t-d} - a theta_t) plus one increment
    # a^2 (theta_t - theta_{t-1}) per buffered round, k_t = min(t - d - 1, d)
    # of them. At d = 1 that is the stale recurrence; at even d the full-buffer
    # characteristic polynomial has the root -1 at eta = 2 / (2d + 1).
    eta_star = transport_eta_star(d)
    assert eta_star == pytest.approx({1: 1.0, 10: 2 / 21, 40: 2 / 81}[d], rel=1e-12)
    eta = factor * eta_star
    env = quad(a=1.0, b=2.0)
    thetas = [None]  # thetas[t] is theta_t, as round t's inner solve receives it
    solve = env.solve_inner

    def recording_solve(theta, w_prev):
        thetas.append(theta[0])
        return solve(theta, w_prev)

    env.solve_inner = recording_solve
    res = run_online(env, make_algorithm("transport_omd", eta0=eta, schedule_mode="constant"),
                     const_delay(d), 3000)
    thetas.append(res.final_theta[0])
    rounds = res.rounds_logged
    steps = [thetas[t + 1] - thetas[t] for t in range(1, rounds + 1)]
    assert [step * step for step in steps] == res.columns["step_sq"].tolist()

    # Round t's float steps against the exact recurrence on the run's own
    # thetas. Products by a, b and mu_w = 1 are exact, so only additions and
    # subtractions round, each by at most u times its result. With Theta the
    # largest |theta| the round reads (thetas t - 2d to t + 1), the stored
    # w_s = 2 theta_s and v_s are at most 2 Theta and 3 Theta, |w_s - theta|
    # at most 3 Theta and a row at most 9 Theta. So the arrival's row errs by
    # 3u Theta; each buffered round's two rows by 12u Theta each and their
    # increment, at most 2 Theta, by 2u Theta more; the left-to-right sum of
    # k + 1 terms by k u (3 + 2k) Theta; eta * g by u eta (3 + 2k) Theta; and
    # the update by u Theta. Twice that first-order bound covers the terms in u^2.
    u = 2.0 ** -53
    exact = [None] + [Fraction(float(x)) for x in thetas[1:]]
    for t in range(1, rounds + 1):
        if t <= d:
            assert thetas[t + 1] == thetas[t]
            continue
        k = min(t - d - 1, d)
        g = (2 * exact[t - d] - exact[t]) + k * (exact[t] - exact[t - 1])
        err = abs(exact[t + 1] - (exact[t] - Fraction(eta) * g))
        big = max(abs(x) for x in thetas[max(1, t - 2 * d):t + 2])
        assert err <= 2 * u * big * (1 + eta * (6 + 31 * k + 2 * k * k)), t

    if factor < 1:
        assert not res.diverged and abs(thetas[-1]) < 1.0
    else:
        assert res.diverged


def test_clip_norm_bounds_every_step():
    env = quad(seed=0, theta_bound=100.0)  # large initial point, large gradients
    algo = make_algorithm("stale_omd", eta0=0.01, clip_norm=0.5)
    res = run_online(env, algo, const_delay(0), rounds=5)
    steps = np.sqrt(res.columns["step_sq"])
    eta = res.columns["eta"]
    assert np.all(steps <= eta * 0.5 + 1e-12)


def test_determinism_identical_runs():
    def one():
        env = make_environment("sinkhorn", seed=4)
        return run_online(env, make_algorithm("transport_adam", eta0=1e-3),
                          DelaySchedule(kind="poisson", lam=3.0, seed=4), rounds=60)
    a, b = one(), one()
    for col in a.columns:
        assert np.array_equal(a.columns[col], b.columns[col], equal_nan=True), col
    assert a.delay_hash == b.delay_hash
