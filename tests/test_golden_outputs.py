"""Byte-identical output: tiny experiments on every environment write the CSVs
recorded here, digest for digest, and every shipped preset keeps its config
hash.

A refactor that keeps the numbers keeps these digests; a change that moves
any bit of any logged value, the summary or a CSV header fails here. An
intended numeric change re-records the digests (run this module's
``recorded_digests`` and paste its output) and says why in CHANGES.md.

Floating-point results can differ across numpy builds (BLAS kernels, SIMD
paths), so the digests hold only for the numpy version they were recorded
with; on any other version the test skips and says so.
"""

import hashlib
import os

import numpy as np
import pytest

from delayopt.config import DelaySpec, ExperimentConfig, parse_config
from delayopt.harness import run_experiment, run_stability_sweep
from delayopt.optimizers import make_algorithm
from delayopt.presets import load_preset, preset_names

NUMPY_VERSION = "2.4.6"


def constant(d):
    return DelaySpec(kind="constant", d=d)


# name -> (environment, environment args, eta0, algorithms, delays, rounds)
CASES = {
    "hard_quadratic": ("hard_quadratic", {"bias": 0.05}, 0.1,
                       ("stale_omd", "transport_omd"), [constant(0), constant(3)], 60),
    "sinkhorn": ("sinkhorn", {}, 0.002,
                 ("transport_adam", "stale_adam", "two_stage_adam"), [constant(0), constant(5)], 50),
    # a constant delay of 20 keeps 20 payloads buffered, so every transport
    # round re-evaluates a full batch: the scale of the bench workload
    "sinkhorn_full_buffer": ("sinkhorn", {}, 0.002,
                             ("transport_adam", "stale_adam"), [constant(20)], 60),
    "grid_path": ("grid_path", {}, 0.001,
                  ("transport_adam", "stale_adam", "two_stage_adam"),
                  [DelaySpec(kind="uniform", d_max=6)], 40),
    # a constant delay of 20 keeps the transport buffer full: batches of about
    # 20 payloads, shared base fields and many rows whose path did not move
    "grid_path_full_buffer": ("grid_path", {}, 0.001,
                              ("transport_adam", "stale_adam", "two_stage_adam"), [constant(20)], 60),
    "lqr": ("lqr", {}, 0.01, ("transport_omd", "stale_omd", "two_stage"), [constant(2)], 60),
    # constant d = 20, the bench workload's buffer: every transport round
    # re-evaluates a full batch of 20 (gain, adjoint) pairs
    "lqr_full_buffer": ("lqr", {}, 0.01, ("transport_omd", "stale_omd", "two_stage"), [constant(20)], 60),
}

DIGESTS = {
    "grid_path": {
        "runs/stale_adam__uniform-0-6__seed0.csv": "d7ce1383752d5a4ec358b52c55f9f283fc847b3b905cf79021f56f89d44437e9",
        "runs/transport_adam__uniform-0-6__seed0.csv": "961d66c19570183ddb69c04bbb93f70dd2499a1ccef167528c5beb2c5b83ee69",
        "runs/two_stage_adam__uniform-0-6__seed0.csv": "912846b0f3bf462bac4f24bc3247b0fd97bf3cef657d37a2ad6540aa86a459a2",
        "summary.csv": "5f39a4e57a982f74a662f9b99d79f56575fb0062607ab0d286737ee59870ddb0",
    },
    "grid_path_full_buffer": {
        "runs/stale_adam__constant-20__seed0.csv": "05f52d260130c1dc991d46233aad78194b40ed188a101a01fbb784c377d806ff",
        "runs/transport_adam__constant-20__seed0.csv": "144c8cb084f9d4c2f3c27549013ce792a0d8469f574e564ef27d44604afb1edb",
        "runs/two_stage_adam__constant-20__seed0.csv": "a76fe36b08103f53c1658ca816e49a6aa91cd2169ea305f09c4c703ebde037aa",
        "summary.csv": "15b0f44271cf42fc4b1b3749c5fbe6948785e5e4f54ba5e45667c4c0da64f0fb",
    },
    "hard_quadratic": {
        "runs/stale_omd__constant-0__seed0.csv": "ab60eabf77cc92d3aaa15604c311f0be2aba62cc47f11d7e84ba71c29a233da9",
        "runs/stale_omd__constant-3__seed0.csv": "b511b21559ae946f410760cffe5eb2f29db1cbc352bb8aea0283de540f8dc357",
        "runs/transport_omd__constant-0__seed0.csv": "5d61942c72333a21e3acbd0404492215cefdae9d665c6b0d8e80904764edb927",
        "runs/transport_omd__constant-3__seed0.csv": "f82fa66ece34b113904e1ce6ae1745d7b3e09ed7e46c19e2af589ac1e1f6b748",
        "summary.csv": "54290ab0c0f49ad5b3709ad7ceeb0fbde377e516347665f6948dc6a4334d9e29",
    },
    "lqr": {
        "runs/stale_omd__constant-2__seed0.csv": "79b55f7af30b3951e3f7886cad7d17b7d9f33c5903a4149c58b08259f9caed2c",
        "runs/transport_omd__constant-2__seed0.csv": "163e14edebc1d1821f6e6f984b2b745fa5f469ababcc67b4db10aef88b720de6",
        "runs/two_stage__constant-2__seed0.csv": "806a48f5a42bbc1f3eca25b330d013bc8a5269d1d247abd980bb3e0ed325d8b3",
        "summary.csv": "9bcbe72ed462dc99ee7c60c5a29d466b62dc596cda580b4bee90de3a44e89dbd",
    },
    "lqr_full_buffer": {
        "runs/stale_omd__constant-20__seed0.csv": "e02344c2ebb86b3ada42c448bbacbdc8823252315dd3cd20e15bc6cab2255dc2",
        "runs/transport_omd__constant-20__seed0.csv": "ddfcbf4f14ceaf67431f561cec507f134a6c78f92650b16207ff681f8b7b2a51",
        "runs/two_stage__constant-20__seed0.csv": "7b90fae005fbaea82ae17be8073094a776f926140d588e3448c55311ac7eb689",
        "summary.csv": "16fe70d8b12fa8f4023751b7ff2e1b2bebc372d26a89975bb3f557c32b2c0770",
    },
    "sinkhorn": {
        "runs/stale_adam__constant-0__seed0.csv": "2d7165246e55f2fa572857483c2979951d19c2225a68cfa759091a78d29e3480",
        "runs/stale_adam__constant-5__seed0.csv": "5741276eb0b8abec2f33e7640826c6d4588d4caa9e64b20fe3e3c168054c2fee",
        "runs/transport_adam__constant-0__seed0.csv": "b1d5921711973714074304843ce105116af2fa5b7b251d51a0e2a9a8a1ff809c",
        "runs/transport_adam__constant-5__seed0.csv": "9cc82c9e251f46bb2e9df334279d927493a346ca19332a1eb0b11c2a920cc175",
        "runs/two_stage_adam__constant-0__seed0.csv": "31ae2ab582b2a7d05cf32993acaec3c7644827b1ff5273878c2bb55c6a787a28",
        "runs/two_stage_adam__constant-5__seed0.csv": "484491347e20836f3aec6b09cd882f77c5571bd15fb031b5fa9a050a6b549f5e",
        "summary.csv": "2c11abc851696702ae6e7b23368232067d2e1b19305edd789a8cad8b61ec43da",
    },
    "sinkhorn_full_buffer": {
        "runs/stale_adam__constant-20__seed0.csv": "9af4cb4aaee263dbe1a007d756c3edb1651fa2a6bc7d03dc460fdd284a1f4eb1",
        "runs/transport_adam__constant-20__seed0.csv": "450e09fee6ef47987185047b651fb100f24639e11e46c3ce59a836859bbc5fbf",
        "summary.csv": "749d788e8b98870289910fbb93ce2210bd7fc3b2b3d2b5babaa1741b6233eac7",
    },
}


def csv_digests(name: str, out_dir: str) -> dict[str, str]:
    """Run case ``name`` at seed 0 into ``out_dir``; sha256 of every CSV it
    writes, keyed by the path below ``out_dir``."""
    environment, env_args, eta0, algorithms, delays, rounds = CASES[name]
    cfg = ExperimentConfig(
        name=f"golden_{name}", environment=environment, env_args=env_args, rounds=rounds,
        seeds=[0], out_dir=out_dir, delays=delays,
        algorithms=[make_algorithm(algo, eta0=eta0) for algo in algorithms],
    )
    run_experiment(cfg)
    digests = {}
    for root, _, files in os.walk(out_dir):
        for file in files:
            path = os.path.join(root, file)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def recorded_digests(out_dir: str) -> dict[str, dict[str, str]]:
    """Digests of every case, in the layout of ``DIGESTS``."""
    return {name: csv_digests(name, os.path.join(out_dir, name)) for name in CASES}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}; "
                           f"this is numpy {np.__version__}, whose arithmetic may differ in the last bit")
@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digests_match_the_recorded_ones(name, tmp_path):
    assert csv_digests(name, str(tmp_path)) == DIGESTS[name]


# A tiny LQR stability sweep at the bench workload's delays and bracket. 21
# of its 46 bisection probes diverge, each stopped by the outcome's loss and
# state caps, so this pins the order of operations on the overflowing rounds
# as well as on stable ones. No probe here reaches the inner solver's
# divergence check; tests/test_solvers.py pins that path.
LQR_STABILITY_TEXT = """
[experiment]
name = golden_lqr_stability
environment = lqr
rounds = 100
seeds = 0
out = {out}

[algorithm.transport_omd]
eta0 = 0.01
schedule_mode = constant

[algorithm.two_stage]
eta0 = 0.01
schedule_mode = constant

[stability]
eta_lo = 0.0001
eta_hi = 16.0
resolution = 0.05
horizon = 100
delays = 1,20
"""

LQR_STABILITY_DIGEST = "8bc8d6bf90203bfcd9c01297badc3e66fb5097a4e114a0913bc5b204c1bd1372"


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}; "
                           f"this is numpy {np.__version__}, whose arithmetic may differ in the last bit")
def test_lqr_stability_csv_digest_matches_the_recorded_one(tmp_path, capsys):
    cfg = parse_config(LQR_STABILITY_TEXT.format(out=tmp_path))
    run_stability_sweep(cfg)
    capsys.readouterr()
    with open(tmp_path / "stability.csv", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == LQR_STABILITY_DIGEST


# The config hash is the repr of every setting, so it moves with a renamed,
# reordered or re-defaulted field of any settings dataclass, and every CSV
# header of the preset with it. It does not depend on numpy.
PRESET_HASHES = {
    "controlled_comparison": "252ea76becb1",
    "delay_patterns": "b30891aff209",
    "grid_delay_sweep": "15b7897ad2a6",
    "hard_instance_floor": "629b7bd8d410",
    "k_sweep": "1522c19ec7cc",
    "lqr_stability": "fe280c93d0cb",
    "transport_scaling": "61b30dc5d14a",
    "uniform_delay_validation": "43c6d73e0b8b",
}


def test_every_preset_hash_is_pinned():
    assert sorted(PRESET_HASHES) == preset_names()


@pytest.mark.parametrize("name", sorted(PRESET_HASHES))
def test_preset_config_hash_matches_the_pinned_one(name):
    assert load_preset(name).hash() == PRESET_HASHES[name]
