"""Linear-quadratic control with learned dynamics.

The outer parameters stack a learned state matrix and input matrix; the inner
problem picks a static feedback gain minimizing a one-step quadratic proxy
under the learned model, averaged over an isotropic reference state. The
realized loss plays the gain on the true dynamics with persistent state and
process noise, so bad gains feed back into the data the learner sees. A
realized loss above ``LOSS_CAP`` (or NaN) is logged as ``LOSS_CAP``, a next
state whose norm exceeds ``STATE_CAP`` has each coordinate clipped to
``[-STATE_CAP, STATE_CAP]``, and either marks the environment unstable,
which ends the run.

The state cost is ``Q = I`` and the control cost ``R = r_weight * I``, so
neither enters a round as a matrix product: ``x'Qx`` is ``x . x`` and
``u'Ru`` is ``u . (r_weight * u)``. A product with exact ones and zeros adds
only exact zeros, so dropping it changes no bit of any result.

Everything is polynomial in (gain, parameters), so all derivative products
are analytic. The model objective is quadratic in the gain with Hessian
``2 M`` (acting on the n_u x n_x gain, ``M = R + B'B`` positive definite),
so both the exact inner gain and the adjoint are one small linear solve.

Two hot paths are shaped by that structure. The model gradient
``2 (M W - C)`` has theta-only terms ``M = R + B'B`` and ``C = B'A``, handed
to ``solvers.inner_gd``, which descends on the (n_u, n_x) gain itself in
place: no step reshapes, ravels, allocates or calls back. It checks
finiteness once per solve, not per step, and computes no exit residual:
``inner_diagnostics`` evaluates ``grad_w_model`` at a returned gain when
asked, and no round asks.

A round reads the theta-only terms three times at the round's parameters:
the inner solve reads ``M`` and ``C``, an arrival's adjoint ``M``, and the
buffer's re-evaluation the blocks ``A`` and ``B``. The runner freezes every
parameter vector it makes, so the environment keeps ``(A, B, M, C)`` of the
last frozen one it saw in one slot, compared by identity, and forms them
once per round. A writeable vector can change under the slot, so its terms
are formed on every call and never kept. ``2 M`` and ``-2 B`` are formed
where they are read, so a round that reads neither (a two-stage round)
pays nothing for them.

An arrival's adjoint solves ``2 M V = G``, with ``G`` the realized-loss
gradient. ``G`` reads the control ``u`` and next state ``x_next`` that
``realize_outcome`` stored in the payload when the decision was played, so
the step on the true dynamics is not run again; the operations are those of
``grad_w_true``, which stays the reference. The solve goes to
``solvers.lapack_solve``, the gufunc ``np.linalg.solve`` calls, with the same
bits. The process noise is drawn ``NOISE_BLOCK`` rounds at a time, each
block a fresh array whose rows the payloads keep: a generator gives the
same normals in one ``(NOISE_BLOCK, n_x)`` draw as in that many draws of
``n_x``, so the rounds see the same noise.

Re-evaluating a stored round reads its adjoint gain ``V`` and the products
``W V'`` and ``V W'`` of its gain and adjoint, none of which depends on the
parameters: those are its ``stored_factors``, formed once when the round
arrives with the reference formula's own products. Re-evaluating a transport
buffer is then one stacked product per term over all buffered rounds; each
keeps the per-entry association order, so every row is bit-identical to the
per-entry hypergradient.

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
from typing import Optional

import numpy as np

from delayopt.core import ContractError
from delayopt.environments.base import Environment
from delayopt.solvers import inner_gd, lapack_solve

LOSS_CAP = 1e8
STATE_CAP = 1e8
NOISE_BLOCK = 64  # rounds of process noise per generator call
SPECTRAL_RADIUS = 0.95  # of the true state matrix


@dataclass
class LQRConfig:
    n_x: int = 10
    n_u: int = 3
    r_weight: float = 0.1  # control cost R = r_weight * I
    noise_std: float = 0.1  # process noise std per coordinate (covariance 0.01 I)
    b_scale: float = 0.5
    init_spread: float = 0.1  # theta_1 = truth + spread * N(0, 1)
    inner_steps: int = 10
    inner_step_size: float = 0.01
    task_seed: int = 0  # dynamics matrices and initial parameters; run seed drives noise

    def __post_init__(self):  # each range test is written so that NaN fails it
        for name in ("n_x", "n_u", "inner_steps"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if not self.r_weight > 0:
            raise ContractError("r_weight must be positive: the model objective needs R > 0")
        if not 0 < self.inner_step_size < math.inf:
            raise ContractError("inner_step_size must be positive and finite")
        for name in ("noise_std", "b_scale", "init_spread"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ContractError(f"{name} must be finite and >= 0")
        if self.task_seed < 0:
            raise ContractError("task_seed must be >= 0")


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
        self.A_true = A * (SPECTRAL_RADIUS / radius)
        self.B_true = cfg.b_scale * rng.standard_normal((n_x, n_u))
        self.r = float(cfg.r_weight)
        self.R = self.r * np.eye(n_u)
        self.mu_w_hint = 2.0 * cfg.r_weight
        self._theta1 = self._pack(self.A_true, self.B_true) + cfg.init_spread * rng.standard_normal(self.p)
        self._noise_rng = np.random.default_rng([int(seed), 3001])
        self.x = 0.1 * self._noise_rng.standard_normal(n_x)
        self._noise = np.empty((0, n_x))  # the current block of process noise
        self._noise_next = 0  # its next unused row
        self._slot_theta: Optional[np.ndarray] = None  # the frozen theta whose terms are kept
        self._slot_terms: tuple[np.ndarray, ...] = ()
        theta_cmp = self._pack(self.A_true, self.B_true)
        self.W_cmp = self._exact_gain(theta_cmp)
        self.comparator_note = "fixed comparator: true dynamics parameters"

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

    def _theta_terms(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(A, B, M, C)`` at ``theta``: its two blocks, ``M = R + B'B``
        (half the model objective's Hessian in the gain) and ``C = B'A``
        (``Q = I``). The model gradient is ``2 (M W - C)`` and the exact gain
        solves ``M W = C``.

        The terms of a read-only ``theta`` that owns its data stay in the
        slot, read-only themselves, until another such ``theta`` comes; a
        call with the same object returns them. Whoever froze ``theta`` must
        never make it writeable again. A writeable ``theta`` (or a view) is
        never kept."""
        if theta is self._slot_theta:
            return self._slot_terms
        A, B = self._unpack(theta)
        M = B.T.dot(B)
        M += self.R
        C = B.T.dot(A)
        flags = theta.flags
        if not flags.writeable and flags.owndata:
            M.setflags(write=False)
            C.setflags(write=False)
            self._slot_theta, self._slot_terms = theta, (A, B, M, C)
        return A, B, M, C

    def _exact_gain(self, theta: np.ndarray) -> np.ndarray:
        return np.linalg.solve(*self._theta_terms(theta)[2:])

    # -- derivative products ---------------------------------------------------
    # model objective: E_{x ~ N(0, I)} [ u'Ru + |A x + B u|^2 ], u = -W x

    def model_loss(self, w, theta) -> float:
        A, B = self._unpack(theta)
        W = self._gain(w)
        closed = A - B @ W
        return float(np.trace(W.T @ self.R @ W) + np.trace(closed.T @ closed))

    def grad_w_model(self, w, theta):
        A, B = self._unpack(theta)
        return (2.0 * ((self.R + B.T @ B) @ self._gain(w) - B.T @ A)).ravel()

    def exact_adjoint(self, w, theta, z):
        """``2 M V = G`` for the adjoint gain ``V``, with ``G`` the realized-loss
        gradient as an (n_u, n_x) gain. ``G`` is ``grad_w_true``'s, in its
        order of operations, from the control and next state that
        ``realize_outcome`` stored in ``z`` when it played ``w``."""
        dLdu = 2.0 * (self.r * z["u"])
        dLdu += 2.0 * self.B_true.T.dot(z["x_next"])
        G = np.multiply.outer(dLdu, z["x"])
        np.negative(G, G)
        return lapack_solve(2.0 * self._theta_terms(theta)[2], G).ravel()

    def cross_partial_transpose_vp(self, w, theta, v, z=None):
        A, B = self._unpack(theta)
        W = self._gain(w)
        V = self._gain(v)
        dA = -2.0 * B @ V
        dB = 2.0 * (B @ (W @ V.T) + B @ (V @ W.T) - A @ V.T)
        return self._pack(dA, dB)

    def stored_factors(self, w, v, z):
        """The adjoint gain ``V`` and the (n_u, n_u) products ``W V'`` and
        ``V W'``, as ``cross_partial_transpose_vp`` forms them."""
        W, V = self._gain(w), self._gain(v)
        return V, W @ V.T, V @ W.T

    def hypergradients_at_many(self, theta, V, WVt, VWt):
        """``cross_partial_transpose_vp`` for all entries as stacked products
        over the (m, n_u, n_x) adjoints and the (m, n_u, n_u) products,
        negated (the direct term is zero). Rows are bit-identical to the
        per-entry formula."""
        A, B, _, _ = self._theta_terms(theta)
        m, k = len(V), self.cfg.n_x * self.cfg.n_x
        rows = np.empty((m, self.p))
        rows[:, :k] = ((-2.0 * B) @ V).reshape(m, k)
        dB = B @ WVt
        dB += B @ VWt
        dB -= A @ V.transpose(0, 2, 1)
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

    def solve_inner(self, theta, w_prev):
        cfg = self.cfg
        _, _, M, C = self._theta_terms(theta)
        return inner_gd(M, C, self._gain(w_prev), cfg.inner_steps, cfg.inner_step_size)

    def inner_diagnostics(self, theta, w):
        """The norm of ``grad_w_model`` at gain ``w`` (``np.linalg.norm``
        without its checks), and that norm over the strong-convexity hint
        ``2 r_weight``."""
        g = self.grad_w_model(w, theta)
        residual = math.sqrt(np.vdot(g, g))
        return residual, residual / max(self.mu_w_hint, 1e-12)

    def realize_outcome(self, t, theta, w):
        cfg = self.cfg
        if self._noise_next == len(self._noise):
            self._noise = cfg.noise_std * self._noise_rng.standard_normal((NOISE_BLOCK, cfg.n_x))
            self._noise_next = 0
        xi = self._noise[self._noise_next]
        self._noise_next += 1
        x = self.x.copy()
        u, x_next = self._step(self._gain(w), x, xi)
        z = {"x": x, "xi": xi, "u": u, "x_next": x_next}
        xx = x_next.dot(x_next)
        loss = float(u.dot(self.r * u) + xx)
        # NaN fails every comparison, so each test rejects NaN and inf too;
        # sqrt(x . x) is np.linalg.norm of a vector
        if not (loss <= LOSS_CAP):
            loss = LOSS_CAP
            self.unstable = True
        if not (math.sqrt(xx) <= STATE_CAP):
            self.unstable = True
            x_next = np.clip(np.nan_to_num(x_next), -STATE_CAP, STATE_CAP)
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
