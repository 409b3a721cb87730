"""Runner-facing environment interface.

An environment owns its exogenous randomness (drift, contexts, noise), its
round context, and its inner-solver pipeline. Two environments with the same
seed replay identical exogenous sequences regardless of the optimizer driving
them, which is what makes paired algorithm comparisons valid. The smooth
environments also implement ``delayopt.core.BilevelProblem``, the adjoint route,
each with a closed-form adjoint; the others answer ``exact_adjoint`` with None.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

import numpy as np

from delayopt.core import ContractError, OutcomeRecord
from delayopt.solvers import InnerSolveReport


class Environment(ABC):
    p: int  # outer parameter dimension
    q: int  # inner decision dimension
    unstable: bool = False  # set when evaluation blows up; feeds the divergence criterion
    comparator_note: str = ""
    # whether two_stage_gradient is implemented, so the two-stage baseline can run
    has_prediction_target: bool = False

    @abstractmethod
    def theta_init(self) -> np.ndarray: ...

    @abstractmethod
    def initial_decision(self) -> np.ndarray: ...

    def begin_round(self, t: int) -> None:
        """Advance exogenous state (drift, fresh contexts) for round t."""

    @abstractmethod
    def solve_inner(self, theta: np.ndarray, w_prev: np.ndarray) -> InnerSolveReport: ...

    @abstractmethod
    def realize_outcome(self, t: int, theta: np.ndarray, w: np.ndarray) -> tuple[Any, float, Optional[float]]:
        """Play decision ``w``; return (outcome payload, logged loss, optimality gap or None)."""

    @abstractmethod
    def comparator_round_loss(self, z: Any) -> float:
        """Per-round loss of the fixed hindsight comparator on outcome ``z``."""

    @abstractmethod
    def hypergradients_at_many(self, theta: np.ndarray, decisions: Sequence[np.ndarray],
                               adjoints: Sequence[Optional[np.ndarray]], payloads: Sequence[Any]) -> np.ndarray:
        """Outer gradient of every stored round (decision, adjoint or None,
        outcome payload) at one ``theta``, as rows of an (m, p) matrix. Row i
        is bit-identical to evaluating round i alone, so any set of rounds at
        one parameter point can be batched without changing a result."""

    def exact_adjoint(self, w: np.ndarray, theta: np.ndarray, z: Any) -> Optional[np.ndarray]:
        """The adjoint stored with an arrived round; None here, for an
        environment off the adjoint route, whose ``hypergradients_at_many``
        rows read only the decision and the outcome payload."""
        return None

    def two_stage_gradient(self, theta: np.ndarray, record: OutcomeRecord) -> np.ndarray:
        """Gradient of the prediction error on the arrived outcome, for the
        two-stage baseline; environments that set ``has_prediction_target``
        override this default."""
        raise ContractError(f"{type(self).__name__} has no prediction target")
