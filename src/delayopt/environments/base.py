"""Runner-facing environment interface.

An environment owns its exogenous randomness (drift, contexts, noise), its
round context, and its inner-solver pipeline. Two environments with the same
seed replay identical exogenous sequences regardless of the optimizer driving
them, which is what makes paired algorithm comparisons valid. The smooth
environments also implement ``delayopt.core.BilevelProblem``, the adjoint route,
each with a closed-form adjoint; the others answer ``exact_adjoint`` with None.

That pairing is checked, not only promised. A serial ``run_experiment`` runs
its cells seed-major and hands every cell of one seed the same
:class:`RoundMemo`, which it drops once that seed's cells are done; nothing
outlives the harness call. An environment whose per-round values read only
the round's outcome payload (the sinkhorn comparator, the grid oracle and
comparator) prices each round once per seed through it, and a cell whose
payload at a memoized round differs raises ``ContractError`` naming the round.
Environments whose values read endogenous state (LQR's comparator reads the
state the played gains produced) never consult it. Cells on worker processes
(``parallel > 1``) each price their own rounds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Sequence

import numpy as np

from delayopt.core import ContractError, OutcomeRecord
from delayopt.solvers import InnerSolveReport


def _same_payload(a: dict, b: dict) -> bool:
    """Bitwise equality of two outcome payloads (dicts of arrays and tuples)."""
    if a.keys() != b.keys():
        return False
    for key, x in a.items():
        y = b[key]
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and x.shape == y.shape and x.dtype == y.dtype
                    and x.tobytes() == y.tobytes()):
                return False
        elif x != y:
            return False
    return True


class RoundMemo:
    """Per-round values that read only a round's outcome payload, shared by
    the cells of one seed. Each round keeps a reference to the first payload
    seen at it; a later payload at that round must equal it bit for bit."""

    def __init__(self):
        self._payloads: dict[int, dict] = {}
        self._values: dict[str, dict[int, float]] = {}

    def value(self, t: int, name: str, payload: dict, compute: Callable[[dict], float]) -> float:
        """``compute(payload)``, computed at most once per round and name."""
        seen = self._payloads.setdefault(t, payload)
        if seen is not payload and not _same_payload(seen, payload):
            raise ContractError(
                f"round {t}: the outcome payload differs from the one an earlier cell of "
                f"this seed realized; cells of one seed must replay one exogenous stream")
        values = self._values.setdefault(name, {})
        if t not in values:
            values[t] = compute(payload)
        return values[t]


class Environment(ABC):
    p: int  # outer parameter dimension
    q: int  # inner decision dimension
    unstable: bool = False  # set when evaluation blows up; feeds the divergence criterion
    comparator_note: str = ""
    # whether two_stage_gradient is implemented, so the two-stage baseline can run
    has_prediction_target: bool = False
    # the seed's memo, set by make_environment; see the module docstring
    memo: Optional[RoundMemo] = None
    round: int = 0  # the round begin_round last began, for memo lookups

    @abstractmethod
    def theta_init(self) -> np.ndarray: ...

    @abstractmethod
    def initial_decision(self) -> np.ndarray: ...

    def begin_round(self, t: int) -> None:
        """Advance exogenous state (drift, fresh contexts) for round t."""

    def round_value(self, name: str, z: dict, compute: Callable[[dict], float]) -> float:
        """``compute(z)`` for the current round's payload ``z``, through the
        seed's memo when there is one."""
        if self.memo is None:
            return compute(z)
        return self.memo.value(self.round, name, z, compute)

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
