"""Delay schedules and queue bookkeeping, checked against brute-force replays
and closed-form queue statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayopt.core import ContractError, OutcomeRecord
from delayopt.delays import POISSON_LAM_MAX, DelayQueue, DelaySchedule


def rec(t):
    return OutcomeRecord(round=t, payload=None, dispatch_params=np.zeros(1), dispatch_decision=np.zeros(1))


def replay(schedule_kind, T, **kw):
    """Drive a queue for T rounds; return per-round (sigma, envelope, arrivals)."""
    sched = DelaySchedule(kind=schedule_kind, **kw)
    q = DelayQueue()
    hist = []
    for t in range(1, T + 1):
        d = sched.sample(t)
        q.dispatch(t, d, rec(t))
        arr = q.advance(t)
        hist.append((q.sigma, q.envelope, [r.round for r in arr]))
    return sched, q, hist


def brute_force_queue(delays):
    """Independent queue replay straight from the set identity."""
    out = []
    outstanding = set()
    for t in range(1, len(delays) + 1):
        outstanding.add(t)
        arrivals = sorted(s for s in outstanding if s + delays[s - 1] == t)
        outstanding -= set(arrivals)
        out.append((len(outstanding), arrivals))
    return out


def test_constant_delay_queue_length():
    _, _, hist = replay("constant", 50, d=7)
    for t, (sigma, env, _) in enumerate(hist, start=1):
        assert sigma == min(t, 7)
    assert hist[-1][1] == 7  # envelope


def test_zero_delay_immediate_arrival():
    _, q, hist = replay("constant", 20, d=0)
    for t, (sigma, _, arrivals) in enumerate(hist, start=1):
        assert sigma == 0
        assert arrivals == [t]


def test_bursty_matches_brute_force_replay():
    sched = DelaySchedule(kind="bursty", block_len=10, d_high=40)
    delays = [sched.sample(t) for t in range(1, 101)]
    expect = brute_force_queue(delays)
    _, _, hist = replay("bursty", 100, block_len=10, d_high=40)
    for (sigma, _, arrivals), (bs, barr) in zip(hist, expect):
        assert sigma == bs
        assert arrivals == barr


def test_random_schedule_set_identity_and_envelope():
    rng = np.random.default_rng(0)
    delays = [int(d) for d in rng.integers(0, 30, size=10_000)]
    q = DelayQueue()
    outstanding = set()
    envelope = 0
    for t, d in enumerate(delays, start=1):
        q.dispatch(t, d, rec(t))
        arrived = q.advance(t)
        outstanding.add(t)
        expected_arrivals = sorted(s for s in outstanding if s + delays[s - 1] == t)
        assert [r.round for r in arrived] == expected_arrivals
        outstanding -= set(expected_arrivals)
        assert q.outstanding == outstanding
        assert q.sigma == len(outstanding)
        envelope = max(envelope, q.sigma)
        assert q.envelope == envelope


@st.composite
def delay_sequences(draw):
    """A drawn delay list, or the delays one of the four schedule kinds samples."""
    source = draw(st.sampled_from(["list", "constant", "uniform", "poisson", "bursty"]))
    if source == "list":
        return draw(st.lists(st.integers(0, 15), min_size=1, max_size=120))
    params = {
        "constant": lambda: dict(d=draw(st.integers(0, 15))),
        "uniform": lambda: dict(d_max=draw(st.integers(0, 15))),
        "poisson": lambda: dict(lam=draw(st.floats(0.1, 3.0))),
        "bursty": lambda: dict(d_high=draw(st.integers(0, 15)), block_len=draw(st.integers(1, 12))),
    }[source]()
    sched = DelaySchedule(kind=source, seed=draw(st.integers(0, 2**16)), **params)
    return [sched.sample(t) for t in range(1, draw(st.integers(1, 120)) + 1)]


@settings(max_examples=60, deadline=None)
@given(delays=delay_sequences())
def test_queue_set_identity_property(delays):
    # Q_t = Q_{t-1} + {t} - A_t, where A_t holds exactly the rounds s with
    # s + d_s = t; sigma_t = |Q_t|; the envelope is the running max of sigma
    q = DelayQueue()
    prev: set[int] = set()
    envelope = 0
    for t, d in enumerate(delays, start=1):
        q.dispatch(t, d, rec(t))
        arrived = [r.round for r in q.advance(t)]
        assert arrived == sorted(s for s in prev | {t} if s + delays[s - 1] == t)
        assert q.outstanding == (prev | {t}) - set(arrived)
        assert q.sigma == len(q.outstanding)
        assert q.envelope >= envelope
        envelope = max(envelope, q.sigma)
        assert q.envelope == envelope
        prev = set(q.outstanding)


def test_dispatch_out_of_order_or_with_another_rounds_record_is_a_contract_error():
    # arrivals come out in dispatch order, so the order is checked where it
    # goes in: rounds strictly increase, and each carries its own record
    q = DelayQueue()
    q.dispatch(2, 3, rec(2))
    for t, record in ((2, rec(2)), (1, rec(1)), (3, rec(4))):
        with pytest.raises(ContractError, match="increasing order"):
            q.dispatch(t, 0, record)
    assert q.outstanding == {2}
    q.dispatch(3, 2, rec(3))
    assert [r.round for r in q.advance(5)] == [2, 3]


def test_conservation_every_round_arrives_once():
    _, q, hist = replay("uniform", 5000, d_max=40, seed=3)
    arrived = [r for _, _, a in hist for r in a]
    assert len(arrived) == len(set(arrived))
    assert len(arrived) == 5000 - q.sigma


def test_uniform_mean_queue_length():
    _, _, hist = replay("uniform", 10_000, d_max=40, seed=1)
    sigmas = np.array([h[0] for h in hist])
    assert abs(sigmas.mean() - 20.0) / 20.0 <= 0.10


def test_poisson_delays_capped_and_counted():
    # cap = 10 * 0.35 = 3: rare enough to truncate, common enough to hit
    lam, seed, n = 0.35, 5, 50_000
    sched = DelaySchedule(kind="poisson", lam=lam, seed=seed)
    samples = [sched.sample(t) for t in range(1, n + 1)]
    cap = int(10 * lam)
    assert max(samples) <= cap
    replay_rng = np.random.default_rng([seed, 7919])  # the schedule's own stream
    raw = [int(replay_rng.poisson(lam)) for _ in range(n)]
    assert sched.cap_hits == sum(1 for d in raw if d > cap)
    assert sched.cap_hits > 0
    assert samples == [min(d, cap) for d in raw]


def test_poisson_mean_is_bounded_by_what_numpy_samples():
    # the largest accepted mean samples; the next float up is numpy's bare
    # ValueError, so the schedule rejects it before any round
    DelaySchedule(kind="poisson", lam=POISSON_LAM_MAX, seed=0).sample(1)
    above = float(np.nextafter(POISSON_LAM_MAX, np.inf))
    with pytest.raises(ValueError, match="lam value too large"):
        np.random.default_rng(0).poisson(above)
    with pytest.raises(ContractError, match="lam must be <= 9.223372006484771e[+]18"):
        DelaySchedule(kind="poisson", lam=above, seed=0)


def test_delay_hash_pairing():
    a = DelaySchedule(kind="uniform", d_max=10, seed=4)
    b = DelaySchedule(kind="uniform", d_max=10, seed=4)
    for t in range(1, 200):
        a.sample(t), b.sample(t)
    assert a.realized_hash() == b.realized_hash()
    c = DelaySchedule(kind="uniform", d_max=10, seed=5)
    for t in range(1, 200):
        c.sample(t)
    assert c.realized_hash() != a.realized_hash()
