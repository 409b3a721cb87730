"""The per-seed round memo: shared work stays invisible in the output, runs
once per seed and round, and checks that the cells of a seed are paired."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayopt.config import DelaySpec, ExperimentConfig
from delayopt.core import ContractError
from delayopt.environments import GridPathProblem, RoundMemo, make_environment, sinkhorn_flow
from delayopt.harness import run_experiment, run_one
from delayopt.optimizers import make_algorithm

ALGORITHMS = ("transport_adam", "stale_adam", "two_stage_adam", "transport_omd", "stale_omd")
ETA0 = {"sinkhorn": 0.002, "grid_path": 0.001}
# small grids keep a drawn experiment fast; the memo does not depend on size
ENV_ARGS = {"sinkhorn": {"n": 4, "feature_dim": 5}, "grid_path": {"height": 5, "width": 6, "feature_dim": 8}}
DELAYS = st.one_of(
    st.builds(DelaySpec, kind=st.just("constant"), d=st.integers(0, 6)),
    st.builds(DelaySpec, kind=st.just("uniform"), d_max=st.integers(0, 6)),
    st.builds(DelaySpec, kind=st.just("bursty"), d_high=st.integers(1, 6), block_len=st.integers(1, 4)),
)


def experiment(environment, algorithms, delays, seeds, rounds):
    return ExperimentConfig(
        name="memo", environment=environment, env_args=ENV_ARGS[environment],
        rounds=rounds, seeds=seeds, delays=delays,
        algorithms=[make_algorithm(name, eta0=ETA0[environment]) for name in algorithms],
    )


@st.composite
def experiments(draw):
    environment = draw(st.sampled_from(sorted(ETA0)))
    algorithms = draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True))
    delays = draw(st.lists(DELAYS, min_size=1, max_size=2, unique_by=lambda spec: spec.describe()))
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=2, unique=True))
    return experiment(environment, algorithms, delays, seeds, draw(st.integers(1, 12)))


@settings(max_examples=25, deadline=None)
@given(experiments())
def test_shared_memo_runs_equal_cells_run_alone(cfg):
    result = run_experiment(cfg, write=False)
    assert len(result.runs) == len(cfg.algorithms) * len(cfg.delays) * len(cfg.seeds)
    for algo in cfg.algorithms:
        for spec in cfg.delays:
            for seed in cfg.seeds:
                shared = result.runs[(algo.name, spec.describe(), seed)]
                alone = run_one(cfg, algo, spec, seed)
                assert shared.columns.keys() == alone.columns.keys()
                for name, column in alone.columns.items():
                    assert shared.columns[name].tobytes() == column.tobytes(), name
                assert shared.final_theta.tobytes() == alone.final_theta.tobytes()
                assert shared.delay_hash == alone.delay_hash


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("environment, owner, names", [
    ("sinkhorn", sinkhorn_flow, ("assignment_min_cost",)),
    ("grid_path", GridPathProblem, ("_oracle_cost", "_comparator_loss")),
], ids=["sinkhorn", "grid_path"])
def test_each_seed_prices_a_round_once_per_call(monkeypatch, environment, owner, names):
    seeds, rounds = [3, 4], 9
    cfg = experiment(environment, ["transport_adam", "stale_adam"],
                     [DelaySpec(kind="constant", d=2), DelaySpec(kind="uniform", d_max=4)],
                     seeds, rounds)
    counts = [counting(monkeypatch, owner, name) for name in names]
    for call in (1, 2):  # nothing is kept from one harness call to the next
        result = run_experiment(cfg, write=False)
        assert all(res.rounds_logged == rounds for res in result.runs.values())
        assert [c[0] for c in counts] == [call * len(seeds) * rounds] * len(names)


def test_cells_on_workers_write_the_shared_memo_bytes(tmp_path):
    # worker cells share nothing, serial cells of a seed share its memo
    cfg = experiment("grid_path", ["transport_adam", "two_stage_adam"],
                     [DelaySpec(kind="constant", d=0), DelaySpec(kind="constant", d=3)], [0, 1], 6)
    outputs = {}
    for parallel in (1, 2):
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / f"p{parallel}"))
        run_experiment(cfg, parallel=parallel)
        outputs[parallel] = {path.relative_to(tmp_path / f"p{parallel}"): path.read_bytes()
                             for path in sorted((tmp_path / f"p{parallel}").rglob("*.csv"))}
    assert len(outputs[1]) == 1 + 8
    assert outputs[2] == outputs[1]


def first_round(environment, memo, seed=0):
    env = make_environment(environment, seed=seed, memo=memo, **ENV_ARGS[environment])
    env.begin_round(1)
    theta = env.theta_init()
    w = env.solve_inner(theta, env.initial_decision()).solution
    z, _, _ = env.realize_outcome(1, theta, w)
    return env, z


@pytest.mark.parametrize("environment", sorted(ETA0))
def test_a_forged_payload_at_a_memoized_round_is_a_contract_error(environment):
    memo = RoundMemo()
    env, z = first_round(environment, memo)
    loss = env.comparator_round_loss(z)
    twin, z_twin = first_round(environment, memo)
    assert twin.comparator_round_loss(z_twin) == loss  # an equal payload reads the memo
    forged = dict(z_twin, costs_true=z_twin["costs_true"].copy())
    forged["costs_true"][0] += 1e-12
    with pytest.raises(ContractError, match="round 1"):
        twin.comparator_round_loss(forged)


def test_a_cell_of_another_seed_on_the_same_memo_is_a_contract_error():
    memo = RoundMemo()
    first_round("grid_path", memo, seed=0)
    with pytest.raises(ContractError, match="round 1"):
        first_round("grid_path", memo, seed=1)  # its realized costs differ at round 1


def test_environments_that_read_endogenous_state_leave_the_memo_alone(monkeypatch):
    memo = RoundMemo()
    calls = counting(monkeypatch, RoundMemo, "value")
    for environment in ("lqr", "hard_quadratic"):
        run_one(ExperimentConfig(environment=environment, rounds=5), make_algorithm("stale_omd"),
                DelaySpec(kind="constant", d=1), 0, memo=memo)
    assert calls[0] == 0

