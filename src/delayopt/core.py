"""Smooth bilevel-problem contract and the outcome record.

The smooth environments implement :class:`BilevelProblem`: an inner
(model-based) objective over decisions ``w`` and an outer (realized) decision
loss, plus the analytic derivative products the adjoint route consumes. Every
smooth environment solves its adjoint in closed form (``exact_adjoint``);
the cross partial is exposed as a matrix-free action, so re-evaluating a
stored round never forms a dense derivative.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np


class ContractError(ValueError):
    """An environment or caller violated the bilevel-problem contract."""


@dataclass(frozen=True)
class OutcomeRecord:
    """Feedback for one dispatched round, revealed after its delay elapses.

    ``payload`` is environment-specific realized data (cost matrix, observed
    next state, ...). The dispatch snapshots are immutable copies of the
    parameters and decision in force when the round was played.
    """

    round: int
    payload: Any
    dispatch_params: np.ndarray
    dispatch_decision: np.ndarray

    def __post_init__(self):
        if self.round < 1:
            raise ContractError("round index must be >= 1")
        object.__setattr__(self, "dispatch_params", np.array(self.dispatch_params, dtype=float, copy=True))
        object.__setattr__(self, "dispatch_decision", np.array(self.dispatch_decision, dtype=float, copy=True))
        self.dispatch_params.setflags(write=False)
        self.dispatch_decision.setflags(write=False)


class BilevelProblem(ABC):
    """The adjoint route's derivative products, for smooth environments.

    ``ctx`` arguments select the round context (features, endpoints, ...)
    under which model-side quantities are evaluated; ``None`` means the
    environment's current round. Buffered re-evaluations pass the stored
    outcome payload so old rounds stay reproducible after the environment
    has drifted.
    """

    p: int  # outer parameter dimension
    q: int  # inner decision dimension
    mu_w_hint: float = 1.0  # strong-convexity lower bound used for error estimates

    @abstractmethod
    def grad_w_model(self, w: np.ndarray, theta: np.ndarray, ctx: Any = None) -> np.ndarray: ...

    @abstractmethod
    def grad_w_true(self, w: np.ndarray, theta: np.ndarray, z: Any) -> np.ndarray: ...

    @abstractmethod
    def grad_theta_true_fixed_w(self, w: np.ndarray, theta: np.ndarray, z: Any) -> np.ndarray: ...

    @abstractmethod
    def cross_partial_transpose_vp(self, w: np.ndarray, theta: np.ndarray, v: np.ndarray, ctx: Any = None) -> np.ndarray: ...

    def model_gradient_at(self, theta: np.ndarray, ctx: Any = None) -> Callable[[np.ndarray], np.ndarray]:
        """``w -> grad_w_model(w, theta, ctx)`` with ``theta`` and ``ctx`` held
        fixed, for inner solvers that take many steps at one parameter point.
        Environments override it to form their theta-only terms once."""
        return lambda w: self.grad_w_model(w, theta, ctx)

    def hypergradients_at_many(
        self,
        theta: np.ndarray,
        decisions: Sequence[np.ndarray],
        adjoints: Sequence[np.ndarray],
        payloads: Sequence[Any],
    ) -> np.ndarray:
        """Two-term hypergradient of every stored ``(w_s, v_s, z_s)`` at one
        theta, as rows of an (m, p) matrix: the explicit realized-loss term
        minus the cross partial applied to the adjoint. Environments with a
        stacked form override this."""
        rows = []
        for w, v, z in zip(decisions, adjoints, payloads):
            direct = self.grad_theta_true_fixed_w(w, theta, z)
            implicit = self.cross_partial_transpose_vp(w, theta, v, ctx=z)
            if direct.shape != implicit.shape:
                raise ContractError("hypergradient term dimension mismatch")
            rows.append(direct - implicit)
        return np.stack(rows)

    @abstractmethod
    def exact_adjoint(self, w: np.ndarray, theta: np.ndarray, z: Any) -> np.ndarray:
        """Closed-form adjoint at ``(w, theta)`` for outcome ``z``: the solution
        ``v`` of ``H_ww v = grad_w_true(w, theta, z)`` over the feasible decision
        directions, with ``H_ww`` the model objective's Hessian in ``w``."""
