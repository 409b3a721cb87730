"""The environment contract: :class:`Environment` is the one interface the
runner, the gradient engines and the transport buffer use.

An environment owns its exogenous randomness (drift, contexts, noise), its
round context, and its inner-solver pipeline: ``solve_inner`` returns the
round's decision, and ``inner_diagnostics`` says, on request, how far a
decision is from optimal. Two environments with the same seed replay
identical exogenous sequences regardless of the optimizer driving them, which
is what makes paired algorithm comparisons valid.

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

Every parameter vector a run hands an environment is read-only, and the
runner never writes it, so an environment may keep terms it forms from one,
keyed by its identity (LQR keeps one slot of them), as long as it keeps none
of a writeable array. An outcome record shares the vector it was played at,
so a stored round's dispatch parameters are that same object.

Transport needs one thing from an environment: a stored round's gradient
re-evaluated at the current parameters. ``exact_adjoint`` runs once per
arrival (closed form for ``hard_quadratic``, ``lqr`` and ``sinkhorn``, None
for ``grid_path``). ``stored_factors`` then runs once per stored round: from
the round's decision, adjoint and outcome payload it forms the fixed-shape
arrays its re-evaluation reads, everything that does not depend on the
parameters. ``hypergradients_at_many(theta, *factors)`` re-evaluates any set
of stored rounds at one parameter point from those factors stacked along a
leading row axis, one row per round. The transport buffer keeps the stacks
as they arrive, and the stale engine stacks one round at its dispatch
snapshot, so no round's factors are formed twice and no batch gathers them
from lists.

The three smooth environments also keep their derivative products as plain
methods (``model_loss``, ``true_loss``, ``grad_w_model``, ``grad_w_true``,
``grad_theta_true_fixed_w``, ``cross_partial_transpose_vp``, ``exact_inner``).
The runner and the gradient engines call none of them. They are the
reference the closed forms are checked against: by finite differences and
conjugate gradient in ``tests/test_environments.py``, and row by row through
the per-entry formula ``delayopt.transport.hypergradient_at`` in
``tests/test_transport.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional

import numpy as np

from delayopt.core import ContractError, OutcomeRecord


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
    def solve_inner(self, theta: np.ndarray, w_prev: np.ndarray) -> np.ndarray:
        """The round's decision at ``theta``, warm-started from ``w_prev``, as
        a flat array; ``SolverError`` when the inner solve diverges."""

    @abstractmethod
    def inner_diagnostics(self, theta: np.ndarray, w: np.ndarray) -> tuple[float, float]:
        """``(residual_norm, epsilon_estimate)`` of decision ``w`` at ``theta``,
        computed from those two inputs alone.

        ``residual_norm`` is how far ``w`` is from solving the inner problem,
        in the solver's own measure. ``epsilon_estimate`` bounds the distance
        to the exact minimizer: for a mu-strongly convex objective that
        distance is at most the residual divided by mu, the strong-convexity
        hint. On a quadratic whose curvature is mu the bound is the distance
        itself. No round calls this, so a run pays nothing for it."""

    @abstractmethod
    def realize_outcome(self, t: int, theta: np.ndarray, w: np.ndarray) -> tuple[Any, float, Optional[float]]:
        """Play decision ``w``; return (outcome payload, logged loss, optimality gap or None)."""

    @abstractmethod
    def comparator_round_loss(self, z: Any) -> float:
        """Per-round loss of the fixed hindsight comparator on outcome ``z``."""

    @abstractmethod
    def stored_factors(self, w: np.ndarray, v: Optional[np.ndarray], z: Any) -> tuple[np.ndarray, ...]:
        """The parameter-free arrays a stored round's re-evaluation reads,
        from its decision ``w``, its adjoint ``v`` (None off the adjoint
        route) and its outcome payload ``z``. Every round of one environment
        gives arrays of the same shapes and dtypes, so rounds stack along a
        new leading axis. The arrays may share memory with the inputs, so a
        caller that keeps them copies them, as the transport buffer does into
        its stacks."""

    @abstractmethod
    def hypergradients_at_many(self, theta: np.ndarray, *factors: np.ndarray) -> np.ndarray:
        """Outer gradient of every stored round at one ``theta``, as rows of
        an (m, p) matrix, from ``stored_factors`` of the m rounds stacked
        along a leading axis, one array per factor, in the order
        ``stored_factors`` returns them. Row i is bit-identical to evaluating
        round i alone, so any set of rounds at one parameter point can be
        batched without changing a result. The matrix is a fresh array that
        the caller owns: the transport buffer keeps it and later overwrites
        its rows in place."""

    def exact_adjoint(self, w: np.ndarray, theta: np.ndarray, z: Any) -> Optional[np.ndarray]:
        """The adjoint stored with an arrived round, solved at ``theta`` for
        decision ``w``. ``z`` is the payload ``realize_outcome`` returned when
        it played ``w``, so an environment may read the realized step from
        it instead of taking the step again (LQR does). A singular system
        raises ``np.linalg.LinAlgError``, and the transport skips the
        arrival. None here, for an environment off the adjoint route, whose
        ``stored_factors`` read only the decision and the outcome payload."""
        return None

    def two_stage_gradient(self, theta: np.ndarray, record: OutcomeRecord) -> np.ndarray:
        """Gradient of the prediction error on the arrived outcome, for the
        two-stage baseline; environments that set ``has_prediction_target``
        override this default."""
        raise ContractError(f"{type(self).__name__} has no prediction target")
