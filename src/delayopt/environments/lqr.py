"""Linear-quadratic control with learned dynamics.

The outer parameters stack a learned state matrix and input matrix; the inner
problem picks a static feedback gain minimizing a one-step quadratic proxy
under the learned model, averaged over an isotropic reference state. The
realized loss plays the gain on the true dynamics with persistent state and
process noise, so bad gains feed back into the data the learner sees.

The state cost is ``Q = I`` and the control cost ``R = r_weight * I``, so
neither enters a round as a matrix product: ``x'Qx`` is ``x . x`` and
``u'Ru`` is ``u . (r_weight * u)``. A product with exact ones and zeros adds
only exact zeros, so dropping it changes no bit of any result.

Everything is polynomial in (gain, parameters), so all derivative products
are analytic. The model objective is quadratic in the gain with Hessian
``2 M`` (acting on the n_u x n_x gain, ``M = R + B'B`` positive definite),
so both the exact inner gain and the adjoint are one small linear solve.

Two hot paths are shaped by that structure. The model gradient
``2 (M W - C)`` has theta-only terms ``M = R + B'B`` and ``C = B'A``, formed
once per inner solve rather than at every gradient step; the inner solver
checks finiteness once per solve, not per step. Re-evaluating a transport
buffer is one stacked product over all buffered (gain, adjoint) pairs; each
factor keeps the per-entry association order, so every row is bit-identical
to the per-entry hypergradient.

At n_u x n_x = 3 x 10 a round costs its numpy calls, not its arithmetic, so
the round path calls the cheapest entry point that gives the same bits:
``ndarray.dot`` for 2-D and 1-D products, ``np.multiply.outer`` for outer
products and in-place operators for sums, each keeping the operations and
their order of the readable forms. The reference methods (``model_loss``,
``grad_w_model``, ``cross_partial_transpose_vp``) keep those forms, and the
tests pin the round path to them bit for bit. One sign differs, at n_x = 1
only: there a 1 x 1 matrix times a 1-vector is a single product, which
``ndarray.dot`` returns as is and ``@`` adds to +0.0, so an exactly -0.0
product stays -0.0. No logged value can see the sign of that zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from delayopt.core import ContractError
from delayopt.environments.base import Environment
from delayopt.solvers import InnerSolveReport, InnerSolverConfig, inner_gd


@dataclass
class LQRConfig:
    n_x: int = 10
    n_u: int = 3
    r_weight: float = 0.1  # control cost R = r_weight * I
    noise_std: float = 0.1  # process noise std per coordinate (covariance 0.01 I)
    spectral_radius: float = 0.95
    b_scale: float = 0.5
    init_spread: float = 0.1  # theta_1 = truth + spread * N(0, 1)
    inner_steps: int = 10
    inner_step_size: float = 0.01
    loss_cap: float = 1e8
    state_cap: float = 1e8
    task_seed: int = 0  # dynamics matrices and initial parameters; run seed drives noise

    def __post_init__(self):
        if self.r_weight <= 0:
            raise ContractError("r_weight must be positive: the model objective needs R > 0")


class LQRProblem(Environment):
    has_prediction_target = True

    def __init__(self, cfg: LQRConfig, seed: int = 0):
        self.cfg = cfg
        n_x, n_u = cfg.n_x, cfg.n_u
        self.p = n_x * (n_x + n_u)
        self.q = n_u * n_x
        rng = np.random.default_rng([int(cfg.task_seed), 2417])
        A = rng.standard_normal((n_x, n_x))
        radius = max(abs(np.linalg.eigvals(A)))
        self.A_true = A * (cfg.spectral_radius / radius)
        self.B_true = cfg.b_scale * rng.standard_normal((n_x, n_u))
        self.r = float(cfg.r_weight)
        self.R = self.r * np.eye(n_u)
        self.mu_w_hint = 2.0 * cfg.r_weight
        self._theta1 = self._pack(self.A_true, self.B_true) + cfg.init_spread * rng.standard_normal(self.p)
        self._noise_rng = np.random.default_rng([int(seed), 3001])
        self.x = 0.1 * self._noise_rng.standard_normal(n_x)
        self._xi = np.zeros(n_x)
        theta_cmp = self._pack(self.A_true, self.B_true)
        self.W_cmp = self._exact_gain(theta_cmp)
        self.comparator_note = "fixed comparator: true dynamics parameters"
        self._inner_cfg = InnerSolverConfig(steps=cfg.inner_steps, step_size=cfg.inner_step_size)

    # -- packing helpers ----------------------------------------------------

    def _pack(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return np.concatenate([A.ravel(), B.ravel()])

    def _unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_x, n_u = self.cfg.n_x, self.cfg.n_u
        A = theta[: n_x * n_x].reshape(n_x, n_x)
        B = theta[n_x * n_x:].reshape(n_x, n_u)
        return A, B

    def _gain(self, w: np.ndarray) -> np.ndarray:
        return np.asarray(w).reshape(self.cfg.n_u, self.cfg.n_x)

    def _hessian_half(self, B: np.ndarray) -> np.ndarray:
        """``M = R + B'B``: half the model objective's Hessian in the gain."""
        M = B.T.dot(B)
        M += self.R
        return M

    def _model_terms(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``M = R + B'B`` and ``C = B'A`` (``Q = I``): the model gradient is
        ``2 (M W - C)`` and the exact gain solves ``M W = C``."""
        A, B = self._unpack(theta)
        return self._hessian_half(B), B.T.dot(A)

    def _exact_gain(self, theta: np.ndarray) -> np.ndarray:
        return np.linalg.solve(*self._model_terms(theta))

    # -- derivative products ---------------------------------------------------
    # model objective: E_{x ~ N(0, I)} [ u'Ru + |A x + B u|^2 ], u = -W x

    def model_loss(self, w, theta) -> float:
        A, B = self._unpack(theta)
        W = self._gain(w)
        closed = A - B @ W
        return float(np.trace(W.T @ self.R @ W) + np.trace(closed.T @ closed))

    def model_gradient_at(self, theta):
        """``w -> grad_w_model(w, theta)`` with ``M`` and ``C`` formed once, for
        the inner solver's many steps at one parameter point."""
        M, C = self._model_terms(theta)
        M_dot = M.dot
        shape = (self.cfg.n_u, self.cfg.n_x)

        def grad(w):
            G = M_dot(w.reshape(shape))
            G -= C
            G *= 2.0
            return G.ravel()
        return grad

    def grad_w_model(self, w, theta):
        A, B = self._unpack(theta)
        return (2.0 * ((self.R + B.T @ B) @ self._gain(w) - B.T @ A)).ravel()

    def exact_adjoint(self, w, theta, z):
        """``2 M V = G`` for the adjoint gain ``V``, with ``G`` the realized-loss
        gradient as an (n_u, n_x) gain."""
        M = self._hessian_half(self._unpack(theta)[1])
        return np.linalg.solve(2.0 * M, self._gain(self.grad_w_true(w, theta, z))).ravel()

    def cross_partial_transpose_vp(self, w, theta, v, z=None):
        A, B = self._unpack(theta)
        W = self._gain(w)
        V = self._gain(v)
        dA = -2.0 * B @ V
        dB = 2.0 * (B @ (W @ V.T) + B @ (V @ W.T) - A @ V.T)
        return self._pack(dA, dB)

    def hypergradients_at_many(self, theta, decisions, adjoints, payloads):
        """``cross_partial_transpose_vp`` for all entries as stacked products
        over (m, n_u, n_x) gains and adjoints, negated (the direct term is
        zero). Rows are bit-identical to the per-entry formula."""
        A, B = self._unpack(theta)
        m, n_u, n_x = len(decisions), self.cfg.n_u, self.cfg.n_x
        shape = (m, n_u, n_x)
        W = np.concatenate(decisions).reshape(shape)
        V = np.concatenate(adjoints).reshape(shape)
        Wt, Vt = W.transpose(0, 2, 1), V.transpose(0, 2, 1)
        rows = np.empty((m, self.p))
        k = n_x * n_x
        rows[:, :k] = ((-2.0 * B) @ V).reshape(m, k)
        dB = B @ (W @ Vt)
        dB += B @ (V @ Wt)
        dB -= A @ Vt
        dB *= 2.0
        rows[:, k:] = dB.reshape(m, -1)
        # 0.0 - x, not -x: it maps a -0.0 entry to +0.0, as the per-entry
        # hypergradient's direct term (zero) minus the implicit one does
        return np.subtract(0.0, rows, out=rows)

    def exact_inner(self, theta):
        return self._exact_gain(theta).ravel()

    # realized loss: u'Ru + x_next' x_next on the true dynamics, z = (x, xi)

    def _step(self, W: np.ndarray, x: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Control ``u = -W x`` and next state ``A x + B u + xi`` on the true
        dynamics."""
        u = (-W).dot(x)
        x_next = self.A_true.dot(x)
        x_next += self.B_true.dot(u)
        x_next += xi
        return u, x_next

    def _realized_loss(self, W: np.ndarray, z) -> float:
        u, x_next = self._step(W, z["x"], z["xi"])
        return float(u.dot(self.r * u) + x_next.dot(x_next))

    def true_loss(self, w, theta, z) -> float:
        return self._realized_loss(self._gain(w), z)

    def grad_w_true(self, w, theta, z):
        x = z["x"]
        u, x_next = self._step(self._gain(w), x, z["xi"])
        dLdu = 2.0 * (self.r * u)
        dLdu += 2.0 * self.B_true.T.dot(x_next)
        return (-np.multiply.outer(dLdu, x)).ravel()

    def grad_theta_true_fixed_w(self, w, theta, z):
        return np.zeros(self.p)  # realized loss has no explicit parameter term

    # -- runner hooks ---------------------------------------------------------

    def theta_init(self):
        return self._theta1.copy()

    def initial_decision(self):
        return np.zeros(self.q)

    def solve_inner(self, theta, w_prev) -> InnerSolveReport:
        return inner_gd(self.model_gradient_at(theta), w_prev, self._inner_cfg, self.mu_w_hint)

    def realize_outcome(self, t, theta, w):
        cfg = self.cfg
        xi = cfg.noise_std * self._noise_rng.standard_normal(cfg.n_x)
        x = self.x.copy()
        u, x_next = self._step(self._gain(w), x, xi)
        z = {"x": x, "xi": xi, "u": u, "x_next": x_next}
        xx = x_next.dot(x_next)
        loss = float(u.dot(self.r * u) + xx)
        # NaN fails every comparison, so each test rejects NaN and inf too;
        # sqrt(x . x) is np.linalg.norm of a vector
        if not (loss <= cfg.loss_cap):
            loss = cfg.loss_cap
            self.unstable = True
        if not (math.sqrt(xx) <= cfg.state_cap):
            self.unstable = True
            x_next = np.clip(np.nan_to_num(x_next), -cfg.state_cap, cfg.state_cap)
        self.x = x_next
        return z, loss, None

    def comparator_round_loss(self, z) -> float:
        return self._realized_loss(self.W_cmp, z)

    def two_stage_gradient(self, theta, record):
        z = record.payload
        A, B = self._unpack(theta)
        x, u = z["x"], z["u"]
        r = A.dot(x)
        r += B.dot(u)
        r -= z["x_next"]
        return self._pack(np.multiply.outer(r, x), np.multiply.outer(r, u))
