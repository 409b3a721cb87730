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


def _snapshot(a: Any) -> np.ndarray:
    """``a`` itself when it is a read-only float64 ndarray that owns its
    data, else a read-only float64 copy of it."""
    if type(a) is np.ndarray and a.dtype == np.float64:
        flags = a.flags
        if not flags.writeable and flags.owndata:
            return a
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OutcomeRecord:
    """Feedback for one dispatched round, revealed after its delay elapses.

    ``payload`` is environment-specific realized data (cost matrix, observed
    next state, ...). The dispatch snapshots are read-only float64 arrays of
    the parameters and decision in force when the round was played. An
    input that already is one and owns its data, as every parameter vector
    the runner makes is, is shared rather than copied: nothing can write it,
    and an environment that keeps terms of a frozen parameter vector by
    identity finds them again from the record. Anything else, a writeable
    array or a view included, is copied and the copy frozen.
    """

    round: int
    payload: Any
    dispatch_params: np.ndarray
    dispatch_decision: np.ndarray

    def __post_init__(self):
        if self.round < 1:
            raise ContractError("round index must be >= 1")
        object.__setattr__(self, "dispatch_params", _snapshot(self.dispatch_params))
        object.__setattr__(self, "dispatch_decision", _snapshot(self.dispatch_decision))
