"""Environment contracts: analytic derivatives vs central finite differences,
linearity of the Hessian actions, closed forms, and structural behaviors."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from delayopt.core import ContractError
from delayopt.delays import DelaySchedule
from delayopt.environments import make_environment
from delayopt.environments.grid_path import GridPathConfig, GridPathProblem
from delayopt.environments.hard_quadratic import HardQuadraticConfig
from delayopt.environments.lqr import LQRConfig, LQRProblem
from delayopt.optimizers import make_algorithm
from delayopt.runner import run_online
from delayopt.solvers import dijkstra_grid, sinkhorn_log

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


def fresh(name, **kw):
    env = make_environment(name, seed=0, **kw)
    env.begin_round(1)
    return env


def sample_outcome(env, theta=None, w=None):
    theta = env.theta_init() if theta is None else theta
    w = env.solve_inner(theta, env.initial_decision()).solution if w is None else w
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


@pytest.mark.parametrize("name", SMOOTH_ENVS)
def test_hessian_action_matches_fd_of_model_gradient(name):
    env = fresh(name)
    rng = np.random.default_rng(4)
    theta = env.theta_init()
    w = np.abs(rng.standard_normal(env.q)) * 0.05 + 0.02
    v = rng.standard_normal(env.q)
    h = 1e-6
    fd = (env.grad_w_model(w + h * v, theta) - env.grad_w_model(w - h * v, theta)) / (2 * h)
    hv = env.hess_ww_model_vp(w, theta, v)
    assert np.allclose(hv, fd, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("name", SMOOTH_ENVS)
def test_hessian_action_superposition(name):
    env = fresh(name)
    rng = np.random.default_rng(5)
    theta = env.theta_init()
    w = np.abs(rng.standard_normal(env.q)) * 0.05 + 0.02
    u, v = rng.standard_normal(env.q), rng.standard_normal(env.q)
    a, b = 0.7, -1.3
    lhs = env.hess_ww_model_vp(w, theta, a * u + b * v)
    rhs = a * env.hess_ww_model_vp(w, theta, u) + b * env.hess_ww_model_vp(w, theta, v)
    assert np.allclose(lhs, rhs, atol=1e-10)


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
    env = fresh("hard_quadratic", a=1.0, b=2.0, mu_w=1.0)
    theta = np.array([2.0])
    w = env.exact_inner(theta)
    rhs = env.grad_w_true(w, theta, None)
    v = rhs / env.cfg.mu_w
    assert v[0] == pytest.approx(2.0)


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


# -- control environment -----------------------------------------------------------


def test_lqr_truth_parameters_near_stationary_noise_free():
    env = make_environment("lqr", seed=0, noise_std=0.0, init_spread=0.0)
    env.x = np.zeros(env.cfg.n_x)  # evaluate at the deterministic fixed point
    theta = env._pack(env.A_true, env.B_true)
    w = env.exact_inner(theta)
    # gradient of the model proxy vanishes at the exact gain; the realized
    # hypergradient at truth with zero noise vanishes with the state
    assert np.linalg.norm(env.grad_w_model(w, theta)) <= 1e-8


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


def test_sinkhorn_true_loss_is_model_loss_minus_entropy_at_true_costs():
    env = fresh("sinkhorn")
    feats = env.features.copy()
    z = {"features": feats, "costs_true": env.true_costs(feats)}
    w = env.solve_inner(env.theta_init(), env.initial_decision()).solution

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
    batch = env.hypergradients_at_many(theta, decisions, adjoints, payloads)
    for i in range(3):
        single = hypergradient_at(env, decisions[i], np.asarray(adjoints[i]), theta, payloads[i])
        assert np.allclose(batch[i], single, atol=1e-12)


def test_sinkhorn_positive_costs_always():
    env = fresh("sinkhorn")
    rng = np.random.default_rng(11)
    for _ in range(10):
        theta = rng.standard_normal(env.p) * 5.0
        costs, _ = env.predicted_costs(theta, env.features)
        assert np.all(costs >= env.cfg.cost_floor)


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
    w = env.solve_inner(theta, env.initial_decision()).solution
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
    w = env.solve_inner(theta, env.initial_decision()).solution
    z, loss, gap = env.realize_outcome(2, theta, w)
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_grid_costs_positive_and_misspecified():
    env = fresh("grid_path")
    # 128 features cannot interpolate 144 cells: the least-squares comparator
    # leaves a residual
    pred = env.features @ env.theta_cmp
    assert np.linalg.norm(pred - env.base_costs) > 1e-3
    assert np.all(env.current_true_costs() > 0)


def test_grid_rejects_nonpositive_perturbation():
    with pytest.raises(ContractError):
        GridPathConfig(perturbation=0.0)


def test_grid_tied_paths_same_cost():
    costs = np.ones((4, 4))
    _, c1 = dijkstra_grid(costs, (0, 0), (3, 3))
    # any monotone path has the same cost on a uniform grid
    assert c1 == pytest.approx(6.0)
