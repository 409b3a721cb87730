"""Feedback-channel simulation: delay processes and the outstanding-round queue.

``DelaySpec``, the ``[delay]`` section's dataclass, declares the delay
parameters and checks their ranges; ``DelaySchedule`` adds a seed and samples.
Delay sampling uses its own seed stream, decoupled from everything else, so a
comparison between two algorithms can replay identical delay realizations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from delayopt.core import ContractError, OutcomeRecord

POISSON_CAP_FACTOR = 10  # sampled Poisson delays are truncated at cap = 10 * mean
# the largest mean numpy's Poisson sampler takes (about 9.2e18); above it
# Generator.poisson raises a bare ValueError
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)
# the parameters each kind reads; a schedule ignores the others
DELAY_PARAMETERS = {
    "constant": ("d",),
    "uniform": ("d_max",),
    "poisson": ("lam",),
    "bursty": ("d_high", "block_len"),
}
DELAY_KINDS = tuple(DELAY_PARAMETERS)
# each kind's label in output file names and headers
DELAY_LABELS = {"constant": "constant:{d}", "uniform": "uniform:0-{d_max}",
                "poisson": "poisson:{lam:g}", "bursty": "bursty:{block_len}x{d_high}"}


@dataclass
class DelaySpec:
    """A per-round feedback delay process.

    kinds:
      constant  -- d_t = d
      uniform   -- d_t ~ Uniform{0, ..., d_max}
      poisson   -- d_t ~ Poisson(lam), truncated at 10*lam (hits counted)
      bursty    -- alternating blocks: block_len rounds of 0, block_len of d_high
    """

    kind: str = "constant"
    d: int = 0
    d_max: int = 0
    lam: float = 1.0
    d_high: int = 40
    block_len: int = 10

    def __post_init__(self):  # each range test is written so that NaN fails it
        if self.kind not in DELAY_KINDS:
            raise ContractError(f"kind {self.kind!r} is unknown; known: {', '.join(DELAY_KINDS)}")
        for name in ("d", "d_max", "d_high"):
            if not getattr(self, name) >= 0:
                raise ContractError(f"{name} must be >= 0")
        if not 0 <= self.lam < math.inf:
            raise ContractError("lam must be finite and >= 0")
        if self.lam > POISSON_LAM_MAX:
            raise ContractError(f"lam must be <= {POISSON_LAM_MAX!r}, the largest mean numpy's Poisson sampler takes")
        if not self.block_len >= 1:
            raise ContractError("block_len must be >= 1")

    def schedule(self, seed: int) -> DelaySchedule:
        """This process's sampler on the delay stream of ``seed``."""
        spec = {f.name: getattr(self, f.name) for f in dataclasses.fields(DelaySpec)}
        return DelaySchedule(**spec, seed=seed)

    def stream_hash(self, seed: int, rounds: int) -> str:
        """The ``realized_hash`` of the first ``rounds`` delays of ``seed``'s stream."""
        schedule = self.schedule(seed)
        for t in range(1, rounds + 1):
            schedule.sample(t)
        return schedule.realized_hash()

    @property
    def sigma_bound(self) -> int:
        """Worst-case queue length. A run sizes its transport buffer by the
        smaller of this and its round count, which no queue can outgrow."""
        if self.kind == "constant":
            return self.d
        if self.kind == "uniform":
            return self.d_max
        if self.kind == "poisson":
            return int(POISSON_CAP_FACTOR * self.lam)
        return self.d_high

    def describe(self) -> str:
        return DELAY_LABELS[self.kind].format_map(vars(self))


@dataclass
class DelaySchedule(DelaySpec):
    """A delay process with the seed of its sample stream."""

    seed: int = 0
    cap_hits: int = field(default=0, init=False)
    _rng: np.random.Generator = field(default=None, init=False, repr=False)
    _sampled: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        self._rng = np.random.default_rng([int(self.seed), 7919])

    def sample(self, t: int) -> int:
        if self.kind == "constant":
            d = self.d
        elif self.kind == "uniform":
            d = int(self._rng.integers(0, self.d_max + 1))
        elif self.kind == "poisson":
            d = int(self._rng.poisson(self.lam))
            if d > self.sigma_bound:
                d = self.sigma_bound
                self.cap_hits += 1
        else:  # bursty
            d = 0 if ((t - 1) // self.block_len) % 2 == 0 else self.d_high
        self._sampled.append(d)
        return d

    def realized_hash(self) -> str:
        """Hash of the delay sequence sampled so far; lets paired runs prove
        they saw identical delays without dumping the sequence."""
        h = hashlib.sha256(",".join(str(d) for d in self._sampled).encode())
        return h.hexdigest()[:16]


class DelayQueue:
    """Bookkeeping for rounds whose feedback is still outstanding.

    Maintains the set identity Q_t = Q_{t-1} + {t} - A_t, the queue length
    sigma_t, and the monotone envelope max_{r<=t} sigma_r.

    Rounds are dispatched in increasing order, each with its own record, and
    a dispatch that breaks this raises ``ContractError``. Each round's
    arrivals are kept in dispatch order, so they come out ascending without
    a sort.
    """

    def __init__(self):
        self.outstanding: set[int] = set()
        self.sigma: int = 0
        self.envelope: int = 0
        self._last_dispatched: int = 0
        self._arrival_buckets: dict[int, list[OutcomeRecord]] = {}

    def dispatch(self, t: int, delay: int, record: OutcomeRecord) -> None:
        if t <= self._last_dispatched or record.round != t:
            raise ContractError(f"round {t} (record of round {record.round}) dispatched after round "
                                f"{self._last_dispatched}: rounds go out in increasing order, each "
                                f"with its own record")
        self._last_dispatched = t
        self.outstanding.add(t)
        self._arrival_buckets.setdefault(t + delay, []).append(record)

    def advance(self, t: int) -> list[OutcomeRecord]:
        """Collect this round's arrivals (ascending round order) and update
        sigma and the envelope. Call after dispatching round t."""
        arrivals = self._arrival_buckets.pop(t, [])
        for rec in arrivals:
            self.outstanding.discard(rec.round)
        self.sigma = len(self.outstanding)
        self.envelope = max(self.envelope, self.sigma)
        return arrivals
