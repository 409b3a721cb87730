"""Feedback-channel simulation: delay schedules and the outstanding-round queue.

Delay sampling uses its own seed stream, decoupled from everything else, so a
comparison between two algorithms can replay identical delay realizations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from delayopt.core import ContractError, OutcomeRecord

POISSON_CAP_FACTOR = 10  # sampled Poisson delays are truncated at cap = 10 * mean
# the parameters each kind reads; a schedule ignores the others
DELAY_PARAMETERS = {
    "constant": ("d",),
    "uniform": ("d_max",),
    "poisson": ("lam",),
    "bursty": ("d_high", "block_len"),
}
DELAY_KINDS = tuple(DELAY_PARAMETERS)


@dataclass
class DelaySchedule:
    """Per-round feedback delay generator.

    kinds:
      constant  -- d_t = d
      uniform   -- d_t ~ Uniform{0, ..., d_max}
      poisson   -- d_t ~ Poisson(lam), truncated at 10*lam (hits counted)
      bursty    -- alternating blocks: block_len rounds of 0, block_len of d_high
    """

    kind: str
    d: int = 0
    d_max: int = 0
    lam: float = 1.0
    d_high: int = 40
    block_len: int = 10
    seed: int = 0
    cap_hits: int = field(default=0, init=False)
    _rng: np.random.Generator = field(default=None, init=False, repr=False)
    _sampled: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in DELAY_KINDS:
            raise ContractError(f"unknown delay kind {self.kind!r}")
        self._rng = np.random.default_rng([int(self.seed), 7919])

    def sample(self, t: int) -> int:
        if self.kind == "constant":
            d = self.d
        elif self.kind == "uniform":
            d = int(self._rng.integers(0, self.d_max + 1))
        elif self.kind == "poisson":
            d = int(self._rng.poisson(self.lam))
            cap = int(POISSON_CAP_FACTOR * self.lam)
            if d > cap:
                d = cap
                self.cap_hits += 1
        else:  # bursty
            d = 0 if ((t - 1) // self.block_len) % 2 == 0 else self.d_high
        if d < 0:
            raise ContractError("delays must be nonnegative")
        self._sampled.append(d)
        return d

    @property
    def sigma_bound(self) -> int:
        """Worst-case queue length; sizes the transport buffer."""
        if self.kind == "constant":
            return self.d
        if self.kind == "uniform":
            return self.d_max
        if self.kind == "poisson":
            return int(POISSON_CAP_FACTOR * self.lam)
        return self.d_high

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant:{self.d}"
        if self.kind == "uniform":
            return f"uniform:0-{self.d_max}"
        if self.kind == "poisson":
            return f"poisson:{self.lam:g}"
        return f"bursty:{self.block_len}x{self.d_high}"

    def realized_hash(self) -> str:
        """Hash of the delay sequence sampled so far; lets paired runs prove
        they saw identical delays without dumping the sequence."""
        h = hashlib.sha256(",".join(str(d) for d in self._sampled).encode())
        return h.hexdigest()[:16]


class DelayQueue:
    """Bookkeeping for rounds whose feedback is still outstanding.

    Maintains the set identity Q_t = Q_{t-1} + {t} - A_t, the queue length
    sigma_t, and the monotone envelope max_{r<=t} sigma_r.
    """

    def __init__(self):
        self.outstanding: set[int] = set()
        self.sigma: int = 0
        self.envelope: int = 0
        self._arrival_buckets: dict[int, list[tuple[int, OutcomeRecord]]] = {}

    def dispatch(self, t: int, delay: int, record: OutcomeRecord) -> None:
        self.outstanding.add(t)
        self._arrival_buckets.setdefault(t + delay, []).append((t, record))

    def advance(self, t: int) -> list[OutcomeRecord]:
        """Collect this round's arrivals (ascending round order) and update
        sigma and the envelope. Call after dispatching round t."""
        arrivals = sorted(self._arrival_buckets.pop(t, []), key=lambda it: it[0])
        for s, _ in arrivals:
            self.outstanding.discard(s)
        self.sigma = len(self.outstanding)
        self.envelope = max(self.envelope, self.sigma)
        return [rec for _, rec in arrivals]
