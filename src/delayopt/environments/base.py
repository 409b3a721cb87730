"""Runner-facing environment interface on top of the bilevel contract.

An environment owns its exogenous randomness (drift, contexts, noise), its
round context, and its inner-solver pipeline. Two environments with the same
seed replay identical exogenous sequences regardless of the optimizer driving
them, which is what makes paired algorithm comparisons valid.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Optional

import numpy as np

from delayopt.core import BilevelProblem
from delayopt.solvers import InnerSolveReport


class Environment(BilevelProblem):
    unstable: bool = False  # set when evaluation blows up; feeds the divergence criterion
    comparator_note: str = ""

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
