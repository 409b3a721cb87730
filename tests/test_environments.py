"""Environment contracts: analytic derivatives vs central finite differences,
closed-form adjoints vs conjugate gradient, and structural behaviors."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from delayopt.core import ContractError, OutcomeRecord
from delayopt.delays import DelaySchedule
from delayopt.environments import make_environment
from delayopt.environments.grid_path import GridPathConfig, GridPathProblem
from delayopt.environments.hard_quadratic import HardQuadraticConfig
from delayopt.environments import lqr as lqr_module
from delayopt.environments import sinkhorn_flow
from delayopt.environments.lqr import LQRConfig, LQRProblem
from delayopt.environments.sinkhorn_flow import SinkhornConfig, SinkhornProblem
from delayopt.optimizers import make_algorithm
from delayopt.runner import run_online
from delayopt.solvers import conjugate_gradient, dijkstra_grid, inner_gd, sinkhorn_log
from delayopt.transport import hypergradient_at

FD_STEP = 1e-5
FD_REL = 1e-4


def central_diff(f, x, i, h=FD_STEP):
    e = np.zeros_like(x)
    e[i] = h
    return (f(x + e) - f(x - e)) / (2 * h)


def check_gradient(f, grad, x, rng, n_coords=8, rel=FD_REL, abs_floor=1e-7):
    g = grad(x)
    coords = rng.choice(x.size, size=min(n_coords, x.size), replace=False)
    for i in coords:
        fd = central_diff(f, x, int(i))
        assert g[i] == pytest.approx(fd, rel=rel, abs=abs_floor), f"coordinate {i}"


def stacked(env, decisions, adjoints, payloads):
    """The rounds' ``stored_factors``, stacked along a leading row axis."""
    per_round = [env.stored_factors(w, v, z) for w, v, z in zip(decisions, adjoints, payloads)]
    return tuple(np.stack(column) for column in zip(*per_round))


def fresh(name, **kw):
    env = make_environment(name, seed=0, **kw)
    env.begin_round(1)
    return env


def sample_outcome(env, theta=None, w=None):
    theta = env.theta_init() if theta is None else theta
    w = env.solve_inner(theta, env.initial_decision()) if w is None else w
    z, loss, gap = env.realize_outcome(1, theta, w)
    return theta, w, z


# -- generic contract checks across smooth environments -------------------------


SMOOTH_ENVS = ("hard_quadratic", "lqr", "sinkhorn")


@pytest.mark.parametrize("name", SMOOTH_ENVS)
def test_grad_w_model_matches_fd(name):
    env = fresh(name)
    rng = np.random.default_rng(1)
    for trial in range(20):
        theta = env.theta_init() + 0.1 * rng.standard_normal(env.p)
        w = np.abs(rng.standard_normal(env.q)) * 0.05 + 0.01
        check_gradient(lambda x: env.model_loss(x, theta), lambda x: env.grad_w_model(x, theta),
                       w, rng, n_coords=4, rel=1e-5 if name == "hard_quadratic" else FD_REL)


@pytest.mark.parametrize("name", SMOOTH_ENVS)
def test_grad_w_true_matches_fd(name):
    env = fresh(name)
    rng = np.random.default_rng(2)
    theta, w0, z = sample_outcome(env)
    for _ in range(5):
        w = w0 + 0.05 * rng.standard_normal(env.q)
        check_gradient(lambda x: env.true_loss(x, theta, z), lambda x: env.grad_w_true(x, theta, z),
                       w, rng, n_coords=4)


@pytest.mark.parametrize("name", SMOOTH_ENVS)
def test_grad_theta_true_fixed_w_matches_fd(name):
    env = fresh(name)
    rng = np.random.default_rng(3)
    theta, w, z = sample_outcome(env)
    check_gradient(lambda x: env.true_loss(w, x, z), lambda x: env.grad_theta_true_fixed_w(w, x, z),
                   theta, rng, n_coords=6)


@st.composite
def adjoint_points(draw, name):
    """An environment with a point ``(theta, w)`` and an outcome ``z``; an
    LQR outcome is the environment's own step from a drawn state and noise
    under the gain ``w``, as ``realize_outcome`` stores it."""
    def vec(n, bound):
        return draw(arrays(float, n, elements=st.floats(-bound, bound)))

    if name == "hard_quadratic":
        a = draw(st.floats(-3.0, 3.0))
        env = make_environment(name, seed=0, a=a, b=a + draw(st.floats(0.1, 3.0)),
                               mu_w=draw(st.floats(0.05, 20.0)))
        return env, vec(1, 5.0), vec(1, 5.0), None
    env = make_environment(name, seed=0, n_x=draw(st.integers(1, 6)), n_u=draw(st.integers(1, 3)),
                           r_weight=draw(st.floats(0.01, 2.0)), task_seed=draw(st.integers(0, 2**16)))
    w, x, xi = vec(env.q, 2.0), vec(env.cfg.n_x, 2.0), vec(env.cfg.n_x, 0.5)
    u, x_next = env._step(env._gain(w), x, xi)
    return env, env.theta_init() + vec(env.p, 1.0), w, {"x": x, "xi": xi, "u": u, "x_next": x_next}


def fd_hessian_action(env, w, theta):
    """Central difference of ``grad_w_model`` along ``v``. Both model
    objectives are quadratic in ``w``, so the difference is exact up to
    rounding at any step; a unit-norm step keeps that rounding lowest."""
    def apply(v):
        t = 1.0 / np.linalg.norm(v)
        return (env.grad_w_model(w + t * v, theta) - env.grad_w_model(w - t * v, theta)) / (2 * t)
    return apply


@pytest.mark.parametrize("name", ("hard_quadratic", "lqr"))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_adjoint_equals_cg_on_fd_hessian_action(name, data):
    env, theta, w, z = data.draw(adjoint_points(name))
    v = env.exact_adjoint(w, theta, z)
    v_cg, _, _ = conjugate_gradient(fd_hessian_action(env, w, theta), env.grad_w_true(w, theta, z),
                                    tolerance=1e-12)
    assert v.shape == (env.q,)
    assert np.allclose(v, v_cg, rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("name", SMOOTH_ENVS)
def test_cross_partial_linearity_and_fd(name):
    env = fresh(name)
    rng = np.random.default_rng(6)
    theta = env.theta_init()
    w = np.abs(rng.standard_normal(env.q)) * 0.05 + 0.02
    u, v = rng.standard_normal(env.q), rng.standard_normal(env.q)
    lhs = env.cross_partial_transpose_vp(w, theta, 0.4 * u - 2.0 * v)
    rhs = 0.4 * env.cross_partial_transpose_vp(w, theta, u) - 2.0 * env.cross_partial_transpose_vp(w, theta, v)
    assert np.allclose(lhs, rhs, atol=1e-10)
    # fd check: d/dtheta <grad_w_model(w, theta), v>
    def f(x):
        return float(env.grad_w_model(w, x) @ v)
    g = env.cross_partial_transpose_vp(w, theta, v)
    for i in rng.choice(env.p, size=min(6, env.p), replace=False):
        fd = central_diff(f, theta, int(i))
        assert g[i] == pytest.approx(fd, rel=FD_REL, abs=1e-7)


@pytest.mark.parametrize("name", ("hard_quadratic", "lqr"))
def test_exact_inner_is_stationary(name):
    env = fresh(name)
    rng = np.random.default_rng(7)
    for _ in range(5):
        theta = env.theta_init() + 0.05 * rng.standard_normal(env.p)
        w_star = env.exact_inner(theta)
        assert w_star is not None
        assert np.linalg.norm(env.grad_w_model(w_star, theta)) <= 1e-8


# -- scalar quadratic specifics ---------------------------------------------------


def test_hard_quadratic_reduced_objective_value():
    env = fresh("hard_quadratic", a=1.0, b=2.0)
    assert env.reduced_objective(3.0) == pytest.approx(4.5)


def test_hard_quadratic_adjoint_closed_form():
    env = fresh("hard_quadratic", a=1.0, b=2.0, mu_w=2.0)
    theta = np.array([2.0])
    w = env.exact_inner(theta)  # 4; realized-loss gradient w - a * theta = 2
    assert env.exact_adjoint(w, theta, None)[0] == 1.0


def test_hard_quadratic_rejects_equal_coefficients():
    with pytest.raises(ContractError, match="coupling"):
        HardQuadraticConfig(a=1.5, b=1.5)


def test_hard_quadratic_delayed_recurrence_invariant():
    # theta' = theta - eta (coupling^2 theta_{t-d} + coupling bias) settles at
    # -bias/coupling for step sizes within the sufficient stability range
    d, eta, bias = 5, 1.0 / (2 * 5) * 0.9, 0.07
    env = make_environment("hard_quadratic", seed=0, bias=bias)
    res = run_online(env, make_algorithm("stale_omd", eta0=eta, schedule_mode="constant"),
                     DelaySchedule(kind="constant", d=d, seed=0), rounds=200 * d)
    assert abs(res.final_theta[0] + bias) <= 1e-6


def test_hard_quadratic_settles_exactly_on_the_bias_floor():
    # the exact adjoint keeps the biased gradient exact down to the fixed point
    # theta = -bias/coupling, where steps vanish and the loss is bias^2 / 2; an
    # adjoint solved to an absolute tolerance reads zero near that point and
    # stalls just short of it
    bias = 0.1
    env = make_environment("hard_quadratic", seed=0, bias=bias)
    res = run_online(env, make_algorithm("stale_omd", eta0=0.04, schedule_mode="constant"),
                     DelaySchedule(kind="constant", d=10, seed=0), rounds=1000)
    assert np.all(res.columns["step_sq"][600:] == 0.0)
    assert res.columns["true_loss"][600:] == pytest.approx(np.full(400, bias**2 / 2), rel=1e-14)


# -- control environment -----------------------------------------------------------


def test_lqr_truth_parameters_near_stationary_noise_free():
    env = make_environment("lqr", seed=0, noise_std=0.0, init_spread=0.0)
    env.x = np.zeros(env.cfg.n_x)  # evaluate at the deterministic fixed point
    theta = env._pack(env.A_true, env.B_true)
    w = env.exact_inner(theta)
    # gradient of the model proxy vanishes at the exact gain; the realized
    # hypergradient at truth with zero noise vanishes with the state
    assert np.linalg.norm(env.grad_w_model(w, theta)) <= 1e-8


@pytest.mark.parametrize("r_weight", [0.0, -0.1])
def test_lqr_rejects_nonpositive_control_cost(r_weight):
    # R = 0 leaves the model Hessian 2 (R + B'QB) singular whenever n_u > n_x
    with pytest.raises(ContractError, match="r_weight"):
        make_environment("lqr", seed=0, r_weight=r_weight)


def test_lqr_gain_shrinks_with_control_penalty():
    # closed-form scalar check embedded in a 2-dim instance: doubling the
    # control penalty shrinks the optimal gain magnitudes
    cfg1 = LQRConfig(n_x=2, n_u=1, r_weight=0.1)
    cfg2 = LQRConfig(n_x=2, n_u=1, r_weight=0.2)
    e1, e2 = LQRProblem(cfg1, seed=3), LQRProblem(cfg2, seed=3)
    theta = e1._pack(e1.A_true, e1.B_true)
    W1 = e1._exact_gain(theta)
    W2 = e2._exact_gain(theta)
    assert np.all(np.abs(W2) <= np.abs(W1) + 1e-12)
    # scalar closed form: w* = b q a / (r + q b^2) for 1-dim state
    cfg = LQRConfig(n_x=1, n_u=1, r_weight=0.3)
    e = LQRProblem(cfg, seed=5)
    a, b = e.A_true[0, 0], e.B_true[0, 0]
    expected = b * a / (0.3 + b * b)
    assert e._exact_gain(e._pack(e.A_true, e.B_true))[0, 0] == pytest.approx(expected, rel=1e-10)


def test_lqr_two_stage_gradient_matches_fd():
    env = fresh("lqr")
    theta, w, z = sample_outcome(env)
    from delayopt.core import OutcomeRecord
    rec = OutcomeRecord(round=1, payload=z, dispatch_params=theta, dispatch_decision=w)
    rng = np.random.default_rng(8)

    def mse(x):
        A, B = env._unpack(x)
        r = A @ z["x"] + B @ z["u"] - z["x_next"]
        return 0.5 * float(r @ r)

    g = env.two_stage_gradient(theta, rec)
    for i in rng.choice(env.p, size=8, replace=False):
        assert g[i] == pytest.approx(central_diff(mse, theta, int(i)), rel=FD_REL, abs=1e-8)


def test_lqr_unstable_gain_flags_run():
    env = make_environment("lqr", seed=0)
    theta = env.theta_init()
    # a wildly destabilizing gain blows up the state within a few rounds
    w = 1e3 * np.ones(env.q)
    for t in range(1, 60):
        env.begin_round(t)
        env.realize_outcome(t, theta, w)
        if env.unstable:
            break
    assert env.unstable


# -- coupling environment -------------------------------------------------------------


def test_lqr_model_gradient_equals_inline_formula():
    # grad_w_model and the exact gain reproduce the per-call formulas bit
    # for bit
    env = fresh("lqr")
    n_u, n_x = env.cfg.n_u, env.cfg.n_x
    rng = np.random.default_rng(12)
    for scale in (1e-3, 1.0, 30.0):
        theta = env.theta_init() + scale * rng.standard_normal(env.p)
        A, B = env._unpack(theta)
        for _ in range(3):
            w = scale * rng.standard_normal(env.q)
            inline = (2.0 * ((env.R + B.T @ B) @ w.reshape(n_u, n_x) - B.T @ A)).ravel()
            assert np.array_equal(env.grad_w_model(w, theta), inline)
        gain = np.linalg.solve(env.R + B.T @ B, B.T @ A)
        assert np.array_equal(env.exact_inner(theta), gain.ravel())


@settings(max_examples=60, deadline=None)
@given(n_x=st.integers(1, 10), n_u=st.integers(1, 4), r_weight=st.sampled_from([0.01, 0.1, 1.0, 3.7]),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**16))
def test_lqr_round_formulas_equal_explicit_cost_products_bitwise(n_x, n_u, r_weight, scale, seed):
    # every per-round formula reproduces its form with explicit Q = I and
    # R = r_weight I products bit for bit
    env = make_environment("lqr", seed=seed, n_x=n_x, n_u=n_u, r_weight=r_weight, task_seed=seed)
    Q, R = np.eye(n_x), r_weight * np.eye(n_u)
    rng = np.random.default_rng(seed)
    theta = env.theta_init() + scale * rng.standard_normal(env.p)
    A, B = env._unpack(theta)
    QB = Q @ B
    for t in range(1, 6):
        w, v = scale * rng.standard_normal(env.q), scale * rng.standard_normal(env.q)
        z, loss, _ = env.realize_outcome(t, theta, w)
        x, xi, u, x_next = z["x"], z["xi"], z["u"], z["x_next"]
        expected = float(u @ (R @ u) + x_next @ (Q @ x_next))
        assert loss == min(expected, lqr_module.LOSS_CAP)
        assert env.true_loss(w, theta, z) == expected
        u_cmp = -env.W_cmp @ x
        x_cmp = env.A_true @ x + env.B_true @ u_cmp + xi
        assert env.comparator_round_loss(z) == float(u_cmp @ (R @ u_cmp) + x_cmp @ (Q @ x_cmp))
        dLdu = 2.0 * (R @ u) + 2.0 * (env.B_true.T @ (Q @ x_next))
        assert np.array_equal(env.grad_w_true(w, theta, z), (-np.outer(dLdu, x)).ravel())
        W, V = w.reshape(n_u, n_x), v.reshape(n_u, n_x)
        dA = -2.0 * QB @ V
        dB = 2.0 * (QB @ (W @ V.T) + QB @ (V @ W.T) - Q @ A @ V.T)
        cross = np.concatenate([dA.ravel(), dB.ravel()])
        assert np.array_equal(env.cross_partial_transpose_vp(w, theta, v), cross)
        assert np.array_equal(env.hypergradients_at_many(theta, *stacked(env, [w], [v], [z]))[0],
                              np.zeros(env.p) - cross)


# The LQR round path in its readable forms: ``@`` products, ``np.outer``, one
# expression per quantity. The environment computes each with cheaper numpy
# entry points (``ndarray.dot``, ``np.multiply.outer``, in-place operators)
# and must reproduce these bits, NaN and infinity included.


def lqr_model_terms_reference(env, theta):
    A, B = env._unpack(theta)
    Bt = B.T
    return env.R + Bt @ B, Bt @ A


def lqr_step_reference(env, W, x, xi):
    u = -W @ x
    return u, env.A_true @ x + env.B_true @ u + xi


def lqr_realized_loss_reference(env, W, z):
    u, x_next = lqr_step_reference(env, W, z["x"], z["xi"])
    return float(u @ (env.r * u) + x_next @ x_next)


def lqr_grad_w_true_reference(env, w, z):
    x = z["x"]
    u, x_next = lqr_step_reference(env, env._gain(w), x, z["xi"])
    dLdu = 2.0 * (env.r * u) + 2.0 * (env.B_true.T @ x_next)
    return (-np.outer(dLdu, x)).ravel()


def lqr_exact_adjoint_reference(env, w, theta, z):
    M, _ = lqr_model_terms_reference(env, theta)
    return np.linalg.solve(2.0 * M, env._gain(lqr_grad_w_true_reference(env, w, z))).ravel()


def lqr_realize_outcome_reference(env, theta, w):
    cfg = env.cfg
    xi = cfg.noise_std * env._noise_rng.standard_normal(cfg.n_x)
    x = env.x.copy()
    u, x_next = lqr_step_reference(env, env._gain(w), x, xi)
    z = {"x": x, "xi": xi, "u": u, "x_next": x_next}
    xx = x_next @ x_next
    loss = float(u @ (env.r * u) + xx)
    if not (loss <= lqr_module.LOSS_CAP):
        loss = lqr_module.LOSS_CAP
        env.unstable = True
    if not (np.linalg.norm(x_next) <= lqr_module.STATE_CAP):
        env.unstable = True
        x_next = np.clip(np.nan_to_num(x_next), -lqr_module.STATE_CAP, lqr_module.STATE_CAP)
    env.x = x_next
    return z, loss, None


def lqr_two_stage_reference(env, theta, z):
    A, B = env._unpack(theta)
    r = A @ z["x"] + B @ z["u"] - z["x_next"]
    return np.concatenate([np.outer(r, z["x"]).ravel(), np.outer(r, z["u"]).ravel()])


def bits(f, *args, signed_zeros=True):
    """The bytes of ``f(*args)`` (an array, a float or a tuple of them), or the
    type of the exception it raised; with ``signed_zeros=False``, after
    mapping -0.0 to +0.0."""
    try:
        out = f(*args)
    except np.linalg.LinAlgError as exc:
        return type(exc)
    parts = [np.asarray(part, dtype=float) for part in (out if isinstance(out, tuple) else (out,))]
    return tuple((part if signed_zeros else part + 0.0).tobytes() for part in parts)


# parameter and gain scales: zero, which gives signed zeros; ordinary ones;
# 1e154, whose squares lie just below the largest float, so a doubled one may
# overflow where a doubled difference does not; and ones whose products
# overflow to infinity and whose differences give NaN
LQR_SCALES = (0.0, 1e-3, 1.0, 30.0, 1e80, 1e154, 1e160, 1e300)


@settings(max_examples=80, deadline=None)
@given(n_x=st.integers(1, 10), n_u=st.integers(1, 4), r_weight=st.sampled_from([0.01, 0.1, 3.7]),
       theta_scale=st.sampled_from(LQR_SCALES), w_scale=st.sampled_from(LQR_SCALES),
       m=st.integers(1, 25), seed=st.integers(0, 2**16))
# the shipped shape, with model terms just below overflow
@example(n_x=10, n_u=3, r_weight=0.1, theta_scale=1e154, w_scale=1.0, m=20, seed=0)
def test_lqr_round_path_equals_readable_forms_bitwise(n_x, n_u, r_weight, theta_scale, w_scale, m, seed):
    # With n_x = 1, a 1 x 1 matrix times a 1-vector is a single product:
    # ndarray.dot returns it as is, while @ adds it to +0.0. So a product that
    # is exactly -0.0 comes back as -0.0 from one and +0.0 from the other.
    # Only the sign of such a zero differs, so at n_x = 1 zeros compare
    # unsigned; no logged value can see that sign.
    kw = dict(seed=seed, n_x=n_x, n_u=n_u, r_weight=r_weight, task_seed=seed)
    env, twin = make_environment("lqr", **kw), make_environment("lqr", **kw)
    rng = np.random.default_rng(seed)
    theta = env.theta_init() + theta_scale * rng.standard_normal(env.p)
    as_bits = functools.partial(bits, signed_zeros=n_x > 1)
    with np.errstate(all="ignore"):
        assert as_bits(lambda: env._theta_terms(theta)[2:]) == as_bits(lqr_model_terms_reference, env, theta)
        for t in range(1, 4):
            w, v = w_scale * rng.standard_normal(env.q), w_scale * rng.standard_normal(env.q)
            z, loss, _ = env.realize_outcome(t, theta, w)
            z_ref, loss_ref, _ = lqr_realize_outcome_reference(twin, theta, w)
            assert as_bits(lambda: tuple(z.values()) + (loss, env.x)) == \
                as_bits(lambda: tuple(z_ref.values()) + (loss_ref, twin.x))
            assert env.unstable == twin.unstable
            W = env._gain(w)
            assert as_bits(env.true_loss, w, theta, z) == as_bits(lqr_realized_loss_reference, env, W, z)
            assert as_bits(env.comparator_round_loss, z) == as_bits(lqr_realized_loss_reference, env, env.W_cmp, z)
            assert as_bits(env.grad_w_true, w, theta, z) == as_bits(lqr_grad_w_true_reference, env, w, z)
            assert as_bits(env.exact_adjoint, w, theta, z) == as_bits(lqr_exact_adjoint_reference, env, w, theta, z)
            record = OutcomeRecord(round=t, payload=z, dispatch_params=theta, dispatch_decision=w)
            assert as_bits(env.two_stage_gradient, theta, record) == as_bits(lqr_two_stage_reference, env, theta, z)
        decisions = [w_scale * rng.standard_normal(env.q) for _ in range(m)]
        adjoints = [w_scale * rng.standard_normal(env.q) for _ in range(m)]
        rows = [hypergradient_at(env, w, v, theta, None) for w, v in zip(decisions, adjoints)]
        assert as_bits(env.hypergradients_at_many, theta, *stacked(env, decisions, adjoints, [None] * m)) == \
            as_bits(np.array, rows)


def frozen(values):
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("kw", [{}, dict(n_x=1, n_u=2, r_weight=0.01), dict(n_x=4, n_u=4, r_weight=3.7)])
def test_lqr_exact_adjoint_equals_the_reference_solve_on_realized_payloads(kw):
    # rounds as a run plays them: a frozen theta, the decision its inner
    # solve returns and the payload realize_outcome stores for that decision.
    # The adjoint from the stored step, through the term slot and
    # lapack_solve, equals np.linalg.solve(2 M, grad_w_true) recomputed.
    env = make_environment("lqr", seed=5, **kw)
    rng = np.random.default_rng(5)
    w = env.initial_decision()
    for t in range(1, 81):
        theta = frozen(env.theta_init() + 0.1 * rng.standard_normal(env.p))
        w = env.solve_inner(theta, w)
        z, _, _ = env.realize_outcome(t, theta, w)
        M, _ = lqr_model_terms_reference(env, theta)
        expected = np.linalg.solve(2.0 * M, env._gain(env.grad_w_true(w, theta, z))).ravel()
        assert env.exact_adjoint(w, theta, z).tobytes() == expected.tobytes()


def test_lqr_noise_blocks_replay_a_per_round_generator():
    # the noise comes NOISE_BLOCK rounds at a time; a twin of the generator
    # drawing one round at a time gives the same bits, over several blocks,
    # and no later block overwrites the noise an earlier payload keeps
    env = make_environment("lqr", seed=7)
    twin = np.random.default_rng([7, 3001])
    n_x, noise_std = env.cfg.n_x, env.cfg.noise_std
    assert env.x.tobytes() == (0.1 * twin.standard_normal(n_x)).tobytes()
    theta, w = frozen(env.theta_init()), env.initial_decision()
    payloads, expected = [], []
    for t in range(1, 201):
        z, _, _ = env.realize_outcome(t, theta, w)
        payloads.append(z)
        expected.append((noise_std * twin.standard_normal(n_x)).tobytes())
        assert z["xi"].tobytes() == expected[-1]
    assert 200 > 3 * lqr_module.NOISE_BLOCK
    assert [z["xi"].tobytes() for z in payloads] == expected


def test_lqr_term_slot_never_serves_a_writeable_theta():
    env, twin = make_environment("lqr", seed=0), make_environment("lqr", seed=0)
    k, w0 = env.cfg.n_x ** 2, env.initial_decision()
    rng = np.random.default_rng(0)
    w, v = rng.standard_normal(env.q), rng.standard_normal(env.q)
    z, _, _ = env.realize_outcome(1, env.theta_init(), w)
    factors = stacked(env, [w], [v], [z])

    def outputs(problem, theta):
        return (problem.solve_inner(theta, w0).tobytes(), problem.exact_adjoint(w, theta, z).tobytes(),
                problem.hypergradients_at_many(theta, *factors).tobytes())

    theta = env.theta_init()
    view = theta.view()
    view.setflags(write=False)  # read-only, but its data can change through theta
    for probe in (theta, view):
        before = outputs(env, probe)
        theta[k:] *= 1.5  # B moves in place
        after = outputs(env, probe)
        assert after == outputs(twin, theta.copy())
        assert all(b != a for b, a in zip(before, after))
    # a frozen theta that owns its data is kept: the same terms come back
    fixed = frozen(theta)
    terms = env._theta_terms(fixed)
    assert all(a is b for a, b in zip(env._theta_terms(fixed), terms))
    assert outputs(env, fixed) == outputs(twin, theta.copy())


def test_lqr_nan_outcome_caps_loss_and_resets_state():
    env = fresh("lqr")
    z, loss, _ = env.realize_outcome(1, env.theta_init(), np.full(env.q, np.nan))
    assert np.isnan(z["x_next"]).all()
    assert loss == lqr_module.LOSS_CAP and env.unstable
    assert np.array_equal(env.x, np.zeros(env.cfg.n_x))


def test_sinkhorn_true_loss_is_model_loss_minus_entropy_at_true_costs():
    env = fresh("sinkhorn")
    feats = env.features.copy()
    z = {"features": feats, "costs_true": env.true_costs(feats)}
    w = env.solve_inner(env.theta_init(), env.initial_decision())

    class Oracle:
        pass

    # model loss with predicted costs equal to the true costs
    ent = float(np.sum(w * np.log(w)))
    model_at_truth = float(z["costs_true"] @ w) + env.cfg.regularization * ent
    assert env.true_loss(w, env.theta_init(), z) == pytest.approx(model_at_truth - env.cfg.regularization * ent)


def test_sinkhorn_two_stage_gradient_matches_fd():
    env = fresh("sinkhorn")
    theta, w, z = sample_outcome(env)
    from delayopt.core import OutcomeRecord
    rec = OutcomeRecord(round=1, payload=z, dispatch_params=theta, dispatch_decision=w)
    rng = np.random.default_rng(9)

    def mse(x):
        costs, _ = env.predicted_costs(x, z["features"])
        r = costs - z["costs_true"]
        return 0.5 * float(r @ r)

    g = env.two_stage_gradient(theta, rec)
    for i in rng.choice(env.p, size=8, replace=False):
        assert g[i] == pytest.approx(central_diff(mse, theta, int(i)), rel=FD_REL, abs=1e-8)


def test_sinkhorn_batched_hypergradients_match_single():
    env = fresh("sinkhorn")
    rng = np.random.default_rng(10)
    theta = env.theta_init() + 0.01 * rng.standard_normal(env.p)
    payloads, decisions, adjoints = [], [], []
    for t in range(3):
        env.begin_round(t + 1)
        th, w, z = sample_outcome(env)
        payloads.append(z)
        decisions.append(w)
        adjoints.append(rng.standard_normal(env.q))
    from delayopt.transport import hypergradient_at
    batch = env.hypergradients_at_many(theta, *stacked(env, decisions, adjoints, payloads))
    for i in range(3):
        single = hypergradient_at(env, decisions[i], np.asarray(adjoints[i]), theta, payloads[i])
        assert np.allclose(batch[i], single, atol=1e-12)


def sinkhorn_hypergradient_rows_reference(env, theta, adjoints, payloads):
    """The batch as first written: stacked inputs, then the same formula."""
    F = np.stack([z["features"] for z in payloads])
    V = np.stack(adjoints)
    raw = np.matmul(env._weights(theta), F[:, :, None])[:, :, 0]
    _, dcost = env._link(raw, derivative=True)
    return np.einsum("ij,ik->ijk", -(V * dcost), F).reshape(len(payloads), env.p)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 50), scale=st.sampled_from([1e-3, 0.1, 1.0]), seed=st.integers(0, 2**16))
def test_sinkhorn_batched_hypergradient_rows_equal_single_bitwise(m, scale, seed):
    env = make_environment("sinkhorn", seed=seed)
    rng = np.random.default_rng(seed)
    theta = env.theta_init() + scale * rng.standard_normal(env.p)
    payloads, adjoints = [], []
    for t in range(m):
        env.begin_round(t + 1)
        payloads.append(env.realize_outcome(t + 1, theta, env.initial_decision())[0])
        adjoints.append(rng.standard_normal(env.q))
    decisions = [env.initial_decision()] * m
    batch = env.hypergradients_at_many(theta, *stacked(env, decisions, adjoints, payloads))
    assert batch.shape == (m, env.p)
    assert batch.tobytes() == sinkhorn_hypergradient_rows_reference(env, theta, adjoints, payloads).tobytes()
    from delayopt.transport import hypergradient_at
    for i in range(m):
        assert batch[i].tobytes() == hypergradient_at(env, decisions[i], adjoints[i], theta, payloads[i]).tobytes()


def sinkhorn_exact_adjoint_reference(env, w, z):
    """The closed-form adjoint as first written, with ``np.diag`` blocks and a
    concatenated right-hand side."""
    n = env.cfg.n
    K = np.maximum(np.asarray(w), sinkhorn_flow.ADJOINT_FLOOR).reshape(n, n) / env.cfg.regularization
    C = z["costs_true"].copy().reshape(n, n)
    KC = K * C
    M = np.zeros((2 * n - 1, 2 * n - 1))
    M[:n, :n] = np.diag(K.sum(axis=1))
    M[:n, n:] = K[:, :-1]
    M[n:, :n] = K[:, :-1].T
    M[n:, n:] = np.diag(K.sum(axis=0)[:-1])
    duals = np.linalg.solve(M, -np.concatenate([KC.sum(axis=1), KC.sum(axis=0)[:-1]]))
    a, b = duals[:n], np.append(duals[n:], 0.0)
    return (K * (C + a[:, None] + b[None, :])).ravel()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), cost_scale=st.sampled_from([1e-3, 1.0, 1e3]),
       eps=st.sampled_from([0.01, 0.05, 0.5]), below=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_sinkhorn_exact_adjoint_equals_reference_bitwise(n, cost_scale, eps, below, seed):
    # columns wider than 8 take numpy's pairwise row sums, and masses below
    # the floor make the floored entries
    env = SinkhornProblem(SinkhornConfig(n=n, feature_dim=2, regularization=eps))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, n * n)
    w /= w.sum()
    w[rng.integers(0, n * n, below)] = 1e-3 * sinkhorn_flow.ADJOINT_FLOOR
    z = {"features": np.ones(2), "costs_true": cost_scale * rng.uniform(0.01, 2.0, n * n)}
    costs = z["costs_true"].copy()
    v = env.exact_adjoint(w, env.theta_init(), z)
    assert v.tobytes() == sinkhorn_exact_adjoint_reference(env, w, z).tobytes()
    assert z["costs_true"].tobytes() == costs.tobytes()


@st.composite
def adjoint_cases(draw):
    n = draw(st.integers(2, 7))
    q = n * n
    # masses spanning nine decades, one forced far below the adjoint floor
    log_mass = draw(arrays(float, q, elements=st.floats(-9.0, 0.0)))
    costs = draw(arrays(float, q, elements=st.floats(0.01, 2.0)))
    floor = draw(st.sampled_from([1e-6, 1e-4, 1e-3]))
    eps = draw(st.sampled_from([0.01, 0.05, 0.5]))
    w = 10.0 ** log_mass
    w /= w.sum()
    w[draw(st.integers(0, q - 1))] = 1e-3 * floor
    return n, w, costs, floor, eps


@settings(max_examples=60, deadline=None)
@given(adjoint_cases())
def test_sinkhorn_exact_adjoint_equals_cg_on_floored_tangent_operator(case):
    n, w, costs, floor, eps = case
    env = SinkhornProblem(SinkhornConfig(n=n, feature_dim=2, regularization=eps))
    z = {"features": np.ones(2), "costs_true": costs}
    with mock.patch.object(sinkhorn_flow, "ADJOINT_FLOOR", floor):
        v = env.exact_adjoint(w, env.theta_init(), z)

    # reference: the entropic Hessian with masses floored, restricted to
    # couplings with zero row and column sums by double centering, solved
    # densely; on the tangent space it can be conditioned like 1e5, where CG
    # to a 1e-14 tolerance loses conjugacy
    w_floored = np.maximum(w, floor)

    def project(x):
        M = x.reshape(n, n)
        return (M - M.mean(axis=1, keepdims=True) - M.mean(axis=0, keepdims=True) + M.mean()).ravel()

    P = np.array([project(e) for e in np.eye(n * n)])
    ref = np.linalg.lstsq(P @ np.diag(eps / w_floored) @ P, P @ costs, rcond=None)[0]
    # rounding scale of the terms; costs separable into row plus column
    # offsets have a zero adjoint, where only rounding is left
    scale = n * float(w_floored.max()) / eps * float(costs.max())
    assert np.linalg.norm(v - ref) <= 1e-7 * np.linalg.norm(ref) + 1e-12 * scale
    V = v.reshape(n, n)
    assert np.all(np.abs(V.sum(axis=1)) <= 1e-12 * scale)
    assert np.all(np.abs(V.sum(axis=0)) <= 1e-12 * scale)


def test_sinkhorn_positive_costs_always():
    env = fresh("sinkhorn")
    rng = np.random.default_rng(11)
    for _ in range(10):
        theta = rng.standard_normal(env.p) * 5.0
        costs, _ = env.predicted_costs(theta, env.features)
        assert np.all(costs >= sinkhorn_flow.COST_FLOOR)


def test_sinkhorn_link_derivative_is_zero_where_cap_or_floor_binds():
    # one raw activation per regime: under the floor, inside, just under the
    # cap, just past it and far past it
    env = fresh("sinkhorn")
    floor, cap = sinkhorn_flow.COST_FLOOR, env._log_cap
    raw = np.array([np.log(floor) - 3.0, 0.0, cap - 1e-6, cap + 1e-6, cap + 3.0])
    theta = np.zeros(env.p)
    theta[: raw.size * env.cfg.feature_dim] = (np.outer(raw, env.features)
                                               / (env.features @ env.features)).ravel()
    costs, dcost = env.predicted_costs(theta, env.features)
    assert np.array_equal(costs, env._link(env._weights(theta) @ env.features))
    head = env._weights(theta)[: raw.size] @ env.features
    capped = np.exp(np.minimum(head, cap))
    assert np.array_equal(costs[: raw.size], np.maximum(capped, floor))
    assert np.array_equal(dcost[: raw.size] == 0.0, [True, False, False, True, True])
    assert dcost[1] == costs[1] and dcost[2] == costs[2]
    # the batched rows read the same derivative
    v = np.ones(env.q)
    rows = env.hypergradients_at_many(theta, *stacked(env, [None], [v], [{"features": env.features}]))
    assert np.array_equal(rows[0], -env.cross_partial_transpose_vp(None, theta, v, {"features": env.features}))


def test_sinkhorn_comparator_is_exact_min_cost_plan():
    env = fresh("sinkhorn")
    n = env.cfg.n
    for t in range(2, 12):
        env.begin_round(t)
        _, w, z = sample_outcome(env)
        C = z["costs_true"].reshape(n, n)
        r, c = linear_sum_assignment(C)
        cmp = env.comparator_round_loss(z)
        assert cmp == pytest.approx(float(C[r, c].sum()) / n, rel=1e-12)
        # a near-optimal entropic plan with tight marginals cannot beat it
        plan = sinkhorn_log(C, env.mu, env.nu, 0.01, 150)
        assert cmp <= float(z["costs_true"] @ plan.ravel())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [5, 50])
@pytest.mark.parametrize("algorithm", ["transport_adam", "stale_adam"])
def test_sinkhorn_regret_bounded_below_by_marginal_residual(algorithm, d, seed):
    # the comparator is the exact minimum-cost plan between uniform marginals;
    # the executed plan has exact column sums but row sums off by at most the
    # marginal residual, so it can undercut the comparator by at most
    # n * residual * max cost
    env = make_environment("sinkhorn", seed=seed, drift_noise=0.1)
    slack = []
    realize = env.realize_outcome

    def realize_and_bound(t, theta, w):
        z, loss, gap = realize(t, theta, w)
        slack.append(env.cfg.n * env.marginal_residual(w) * float(np.max(z["costs_true"])))
        return z, loss, gap

    env.realize_outcome = realize_and_bound
    res = run_online(env, make_algorithm(algorithm, eta0=0.002),
                     DelaySchedule(kind="constant", d=d, seed=seed), rounds=80)
    assert res.rounds_logged == 80
    assert np.all(res.columns["regret_inc"] >= -np.asarray(slack))


def test_sinkhorn_inner_diagnostics_are_the_marginal_residual_bitwise():
    # the diagnostics are the decision's marginal residual and that residual
    # over the strong-convexity hint, to the bit
    env = fresh("sinkhorn", drift_noise=0.1)
    rng = np.random.default_rng(3)
    theta, w = env.theta_init(), env.initial_decision()
    for t in range(2, 7):
        env.begin_round(t)
        w = env.solve_inner(theta, w)
        residual_norm, epsilon_estimate = env.inner_diagnostics(theta, w)
        residual = env.marginal_residual(w)
        assert np.float64(residual_norm).tobytes() == np.float64(residual).tobytes()
        assert np.float64(epsilon_estimate).tobytes() == np.float64(residual / env.mu_w_hint).tobytes()
        theta = theta + 0.05 * rng.standard_normal(env.p)


ROUND_PATH_RUNS = [("hard_quadratic", "transport_omd", 0.1), ("lqr", "transport_omd", 0.01),
                   ("sinkhorn", "transport_adam", 0.002), ("sinkhorn", "stale_adam", 0.002),
                   ("grid_path", "transport_adam", 0.001)]


def test_the_round_path_never_computes_inner_diagnostics(monkeypatch):
    # run_online takes a solve's decision and nothing else: it never calls
    # inner_diagnostics, a Sinkhorn run never prices the marginal residual,
    # and an LQR solve is one in-place descent of inner_steps steps, with no
    # exit gradient
    for environment, algorithm, eta0 in ROUND_PATH_RUNS:
        env = make_environment(environment, seed=0)
        priced = []

        def counted_diagnostics(theta, w):
            priced.append(w)

        def counted_residual(w):
            priced.append(w)

        env.inner_diagnostics = counted_diagnostics
        env.marginal_residual = counted_residual
        res = run_online(env, make_algorithm(algorithm, eta0=eta0),
                         DelaySchedule(kind="constant", d=3, seed=0), rounds=12)
        assert res.rounds_logged == 12 and priced == [], environment
    env = fresh("lqr")
    evaluations, descents = [], []
    gradient = env.grad_w_model

    def counted_gradient(w, theta):
        evaluations.append(w)
        return gradient(w, theta)

    def counted_descent(M, C, w_init, steps, step_size):
        descents.append(steps)
        return inner_gd(M, C, w_init, steps, step_size)

    env.grad_w_model = counted_gradient
    monkeypatch.setattr(lqr_module, "inner_gd", counted_descent)
    theta = env.theta_init()
    w = env.solve_inner(theta, env.initial_decision())
    assert descents == [env.cfg.inner_steps] and evaluations == []
    assert np.isfinite(env.inner_diagnostics(theta, w)).all()
    assert len(evaluations) == 1  # one exit gradient for both values


# -- grid environment ------------------------------------------------------------------


def test_grid_surrogate_zero_when_path_unchanged():
    env = fresh("grid_path", drift_noise=0.0)
    theta, w, z = sample_outcome(env)
    # tiny perturbation scale cannot flip any path decision
    env.cfg.perturbation = 1e-9
    from delayopt.core import OutcomeRecord
    rec = OutcomeRecord(round=1, payload=z, dispatch_params=theta, dispatch_decision=w)
    g = env.surrogate_gradient(theta, rec)
    assert np.allclose(g, 0.0)


def test_grid_surrogate_sign_matches_decision_loss_on_corridor():
    # 2x3 grid: flipping the middle cell's predicted cost reroutes the path;
    # the surrogate gradient must decrease the decision loss
    cfg = GridPathConfig(height=2, width=3, feature_dim=6, feature_noise=0.0,
                         drift_noise=0.0, perturbation=1.0)
    env = GridPathProblem(cfg, seed=1)
    env.begin_round(1)
    env.start, env.goal = (0, 0), (0, 2)
    theta = env.theta_init()
    w = env.solve_inner(theta, env.initial_decision())
    z, loss, gap = env.realize_outcome(1, theta, w)
    from delayopt.core import OutcomeRecord
    rec = OutcomeRecord(round=1, payload=z, dispatch_params=theta, dispatch_decision=w)
    g = env.surrogate_gradient(theta, rec)

    def decision_loss(x):
        costs, _ = env.predicted_costs(x)
        ind, _ = env._shortest(costs, z["start"], z["goal"])
        return float(z["costs_true"] @ ind)

    if np.linalg.norm(g) > 0:
        step = 1e-2 * g / np.linalg.norm(g)
        assert decision_loss(theta - step) <= decision_loss(theta) + 1e-12


def test_grid_oracle_predictor_gap_zero_before_drift():
    env = fresh("grid_path", drift_noise=0.0, feature_noise=0.0)
    # with noise-free features the least-squares fit reproduces terrain costs
    theta = env.theta_cmp
    env.begin_round(2)
    w = env.solve_inner(theta, env.initial_decision())
    z, loss, gap = env.realize_outcome(2, theta, w)
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_grid_costs_positive_and_misspecified():
    env = fresh("grid_path")
    # 128 features cannot interpolate 144 cells: the least-squares comparator
    # leaves a residual
    pred = env.features @ env.theta_cmp
    assert np.linalg.norm(pred - env.base_costs) > 1e-3
    assert np.all(env.current_true_costs() > 0)


def test_grid_comparator_from_cached_trees_equals_recompute_and_solve():
    env = fresh("grid_path")
    H, W = env.cfg.height, env.cfg.width
    theta, w = env.theta_init(), env.initial_decision()
    starts = []
    for t in range(1, 61):
        env.begin_round(t)
        z, _, _ = env.realize_outcome(t, theta, w)
        costs, _ = env.predicted_costs(env.theta_cmp)
        path, _ = dijkstra_grid(costs.reshape(H, W), z["start"], z["goal"])
        indicator = np.zeros(env.n_cells)
        for r, c in path[1:]:
            indicator[r * W + c] = 1.0
        assert env.comparator_round_loss(z) == float(z["costs_true"] @ indicator)
        starts.append(z["start"])
    assert len(set(starts)) < len(starts)  # some rounds reuse a cached tree


def test_grid_rejects_nonpositive_perturbation():
    with pytest.raises(ContractError):
        GridPathConfig(perturbation=0.0)


def test_grid_tied_paths_same_cost():
    costs = np.ones((4, 4))
    _, c1 = dijkstra_grid(costs, (0, 0), (3, 3))
    # any monotone path has the same cost on a uniform grid
    assert c1 == pytest.approx(6.0)
