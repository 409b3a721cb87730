"""Scalar quadratic bilevel instance with an adversarially biased inner solver.

The model objective pulls the decision toward ``b * theta`` while the realized
loss is anchored at ``a * theta``; the mismatch ``|a - b|`` is the coupling
constant. The instance admits closed forms for everything: the exact inner
solution, the adjoint, the hypergradient, and the reduced objective
``coupling^2 * theta^2 / 2``.

The injected solver bias corrupts the feedback path only: the dispatched
decision carries the bias (so gradients see it), while the logged loss scores
the parameters at the exact inner optimum. Any stable optimizer fed the
biased gradients settles at ``theta = -bias / coupling``, paying
``bias^2 / 2`` per round against the zero comparator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from delayopt.core import ContractError
from delayopt.environments.base import Environment


@dataclass
class HardQuadraticConfig:
    a: float = 1.0
    b: float = 2.0
    mu_w: float = 1.0
    bias: float = 0.0  # constant inner-solver error injected into feedback
    theta_bound: float = 1.0  # theta_1 starts at the bound

    def __post_init__(self):  # each range test is written so that NaN fails it
        for name in ("a", "b", "bias", "theta_bound"):
            if not abs(getattr(self, name)) < math.inf:
                raise ContractError(f"{name} must be finite")
        if self.a == self.b:
            raise ContractError("a == b degenerates the instance: the coupling constant is 0")
        if not self.mu_w > 0:
            raise ContractError("mu_w must be positive")


class HardQuadraticProblem(Environment):
    p = 1
    q = 1

    def __init__(self, cfg: HardQuadraticConfig, seed: int = 0):
        self.cfg = cfg
        self.comparator_note = "fixed comparator theta=0 (closed-form optimum)"

    # -- derivative products (z, the outcome payload, is always None) ---------

    def model_loss(self, w, theta) -> float:
        r = w[0] - self.cfg.b * theta[0]
        return 0.5 * self.cfg.mu_w * r * r

    def true_loss(self, w, theta, z=None) -> float:
        r = w[0] - self.cfg.a * theta[0]
        return 0.5 * r * r

    def grad_w_model(self, w, theta):
        return np.array([self.cfg.mu_w * (w[0] - self.cfg.b * theta[0])])

    def grad_w_true(self, w, theta, z=None):
        return np.array([w[0] - self.cfg.a * theta[0]])

    def grad_theta_true_fixed_w(self, w, theta, z=None):
        return np.array([-self.cfg.a * (w[0] - self.cfg.a * theta[0])])

    def exact_adjoint(self, w, theta, z=None):
        return self.grad_w_true(w, theta, z) / self.cfg.mu_w

    def cross_partial_transpose_vp(self, w, theta, v, z=None):
        return np.array([-self.cfg.b * self.cfg.mu_w * v[0]])

    def stored_factors(self, w, v, z=None):
        """The stored decision and adjoint themselves: every other factor of
        a row reads theta."""
        return w, v

    def hypergradients_at_many(self, theta, W, V):
        """``grad_theta_true_fixed_w - cross_partial_transpose_vp`` for every
        stored (decision, adjoint) pair, elementwise over the (m, 1) stacks
        at once, as an (m, 1) matrix. Each factor keeps the per-entry
        operation order, so row i equals ``hypergradient_at`` on entry i bit
        for bit."""
        a = self.cfg.a
        direct = -a * (W - a * theta[0])
        implicit = -self.cfg.b * self.cfg.mu_w * V
        return direct - implicit

    def exact_inner(self, theta):
        return np.array([self.cfg.b * theta[0]])

    def reduced_objective(self, theta_scalar: float) -> float:
        """F(theta): realized loss at the exact inner solution."""
        return 0.5 * (self.cfg.b - self.cfg.a) ** 2 * theta_scalar**2

    # -- runner hooks ------------------------------------------------------

    def theta_init(self):
        return np.array([self.cfg.theta_bound])

    def initial_decision(self):
        return np.zeros(1)

    def solve_inner(self, theta, w_prev):
        # closed-form inner solution plus the adversarial constant bias
        return np.array([self.cfg.b * theta[0] + self.cfg.bias])

    def inner_diagnostics(self, theta, w):
        """The injected bias as the model-gradient norm ``mu_w |bias|``, and
        as the distance to the exact solution, ``|bias|``."""
        return abs(self.cfg.mu_w * self.cfg.bias), abs(self.cfg.bias)

    def realize_outcome(self, t, theta, w):
        return None, self.reduced_objective(theta[0]), None

    def comparator_round_loss(self, z) -> float:
        return self.reduced_objective(0.0)
