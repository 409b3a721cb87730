"""The outcome record and the errors shared by every module.

:class:`OutcomeRecord` is one dispatched round's feedback as the delay queue
stores and releases it; :class:`ContractError` is raised wherever a caller
or an environment breaks a documented contract, and :class:`InvariantError`
wherever a run breaks an invariant the method guarantees. The environment
contract itself is ``delayopt.environments.base.Environment``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


class ContractError(ValueError):
    """An environment or caller violated a documented contract."""


class InvariantError(AssertionError):
    """A run broke an invariant that holds by construction: the window
    inequality of a constant delay, or the same delays in both arms of a
    paired comparison. It means a bug, not bad input; it subclasses
    ``AssertionError`` so that callers catching that still catch it."""


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
