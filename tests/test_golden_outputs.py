"""Byte-identical output: tiny experiments on every environment write the CSVs
recorded here, digest for digest, log the same full-precision columns, and
every shipped preset keeps its config hash.

A refactor that keeps the numbers keeps these digests; a change that moves
any bit of any logged value, the summary or a CSV header fails here. The CSVs
carry 9 significant digits, so a last-bit change shows only in the
full-precision digests. An intended numeric change re-records the digests
(run this module's ``recorded_digests`` and paste its output) and says why in
CHANGES.md.

Floating-point results can differ across numpy builds (BLAS kernels, SIMD
paths), so the digests hold only for the numpy version they were recorded
with; on any other version the test skips and says so.
"""

import hashlib
import os

import numpy as np
import pytest

from delayopt.config import DelaySpec, ExperimentConfig, parse_config
from delayopt.environments import make_environment
from delayopt.harness import (
    ExperimentResult,
    run_controlled_comparison,
    run_experiment,
    run_filename,
    run_stability_sweep,
)
from delayopt.optimizers import make_algorithm
from delayopt.presets import load_preset, preset_names
from delayopt.runner import ROW_COLUMNS

NUMPY_VERSION = "2.4.6"


def constant(d):
    return DelaySpec(kind="constant", d=d)


# name -> (environment, environment args, eta0, algorithms, delays, rounds)
CASES = {
    "hard_quadratic": ("hard_quadratic", {"bias": 0.05}, 0.1,
                       ("stale_omd", "transport_omd"), [constant(0), constant(3)], 60),
    # a constant delay of 10 keeps 10 one-element rows buffered, so every
    # transport round folds at least 8 increments of the scalar instance
    "hard_quadratic_full_buffer": ("hard_quadratic", {"bias": 0.05}, 0.1,
                                   ("stale_omd", "transport_omd"), [constant(10)], 60),
    # Poisson delays buffer unequal increments of the scalar instance, whose
    # sum is not the same when added pairwise instead of row after row
    "hard_quadratic_poisson": ("hard_quadratic", {"bias": 0.05}, 0.1,
                               ("stale_omd", "transport_omd"), [DelaySpec(kind="poisson", lam=3.0)], 60),
    "sinkhorn":("sinkhorn", {}, 0.002,
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
    # the bursty delay of lqr_bursty on the grid, whose stored rounds carry
    # integer endpoints as well as costs
    "grid_path_bursty": ("grid_path", {}, 0.001, ("transport_adam", "stale_adam"),
                         [DelaySpec(kind="bursty", d_high=4, block_len=3)], 60),
    "lqr": ("lqr", {}, 0.01, ("transport_omd", "stale_omd", "two_stage"), [constant(2)], 60),
    # bursts of three rounds at d = 0 and three at d = 4: a delayed round
    # arrives with an undelayed one in 18 of 60 rounds, and the buffer of 4
    # evicts in most rounds, so its stored window wraps many times
    "lqr_bursty": ("lqr", {}, 0.01, ("transport_omd", "stale_omd"),
                   [DelaySpec(kind="bursty", d_high=4, block_len=3)], 60),
    # constant d = 20, the bench workload's buffer: every transport round
    # re-evaluates a full batch of 20 (gain, adjoint) pairs
    "lqr_full_buffer": ("lqr", {}, 0.01, ("transport_omd", "stale_omd", "two_stage"), [constant(20)], 60),
    # 200 rounds draw process noise across several blocks of 64 rounds, and
    # every LQR round after the first 20 reads a full buffer of 20
    "lqr_long": ("lqr", {}, 0.01, ("transport_omd", "stale_omd", "two_stage"), [constant(20)], 200),
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
    "grid_path_bursty": {
        "runs/stale_adam__bursty-3x4__seed0.csv": "563ec03d2fc344ac52742c62e1212476790a2d2507dbcf45eeea00c398332efc",
        "runs/transport_adam__bursty-3x4__seed0.csv": "27598cb2e98dc688f7f8584694055b43c6c7fa3530171871c60126131df9c50c",
        "summary.csv": "86177c564f61fe1b89ee9e38ba17fbb98d3afd50ea668e2ddc1aad97878fdc24",
    },
    "hard_quadratic": {
        "runs/stale_omd__constant-0__seed0.csv": "ab60eabf77cc92d3aaa15604c311f0be2aba62cc47f11d7e84ba71c29a233da9",
        "runs/stale_omd__constant-3__seed0.csv": "b511b21559ae946f410760cffe5eb2f29db1cbc352bb8aea0283de540f8dc357",
        "runs/transport_omd__constant-0__seed0.csv": "5d61942c72333a21e3acbd0404492215cefdae9d665c6b0d8e80904764edb927",
        "runs/transport_omd__constant-3__seed0.csv": "f82fa66ece34b113904e1ce6ae1745d7b3e09ed7e46c19e2af589ac1e1f6b748",
        "summary.csv": "54290ab0c0f49ad5b3709ad7ceeb0fbde377e516347665f6948dc6a4334d9e29",
    },
    "hard_quadratic_full_buffer": {
        "runs/stale_omd__constant-10__seed0.csv": "4ef3fbb098c020a1de892e69f79db60b7a917a41ad1469ef9e65052a9ab635b7",
        "runs/transport_omd__constant-10__seed0.csv": "1a46eb1a2742f0f8e192ea85b54561829b9dc29ef462a567962c03a7678151be",
        "summary.csv": "2ad1ce4275796834e57cd6dc809ff9527e667e9dcd7525b42c05d56e24d5881a",
    },
    "hard_quadratic_poisson": {
        "runs/stale_omd__poisson-3__seed0.csv": "fa3d8de1c313f55ce1b87bdb24eadb2567e8aa424def9308afd2e322d9c02eac",
        "runs/transport_omd__poisson-3__seed0.csv": "68fb00e5b0ba338a01c8531b115ff23f8b9a70cec3ad12e9764eb99601b7dc87",
        "summary.csv": "e599984a8ad81fb13ac160eccec1759fe03be7616d8ab0fddb4236e2f65b9bf1",
    },
    "lqr": {
        "runs/stale_omd__constant-2__seed0.csv": "79b55f7af30b3951e3f7886cad7d17b7d9f33c5903a4149c58b08259f9caed2c",
        "runs/transport_omd__constant-2__seed0.csv": "163e14edebc1d1821f6e6f984b2b745fa5f469ababcc67b4db10aef88b720de6",
        "runs/two_stage__constant-2__seed0.csv": "806a48f5a42bbc1f3eca25b330d013bc8a5269d1d247abd980bb3e0ed325d8b3",
        "summary.csv": "9bcbe72ed462dc99ee7c60c5a29d466b62dc596cda580b4bee90de3a44e89dbd",
    },
    "lqr_bursty": {
        "runs/stale_omd__bursty-3x4__seed0.csv": "fca74bcff1620048d02900a2e8fa614bf7fb184cf6251162d1051a74cd93dbe1",
        "runs/transport_omd__bursty-3x4__seed0.csv": "23b6c519f8c423b45da420986dd9c0e450c0afc539f493181535aa8f69d7fc1f",
        "summary.csv": "f1cee2c4ab95e3f7000a30de327e019ebb5721ff4a19fbab2a62add660d2454b",
    },
    "lqr_full_buffer": {
        "runs/stale_omd__constant-20__seed0.csv": "e02344c2ebb86b3ada42c448bbacbdc8823252315dd3cd20e15bc6cab2255dc2",
        "runs/transport_omd__constant-20__seed0.csv": "ddfcbf4f14ceaf67431f561cec507f134a6c78f92650b16207ff681f8b7b2a51",
        "runs/two_stage__constant-20__seed0.csv": "7b90fae005fbaea82ae17be8073094a776f926140d588e3448c55311ac7eb689",
        "summary.csv": "16fe70d8b12fa8f4023751b7ff2e1b2bebc372d26a89975bb3f557c32b2c0770",
    },
    "lqr_long": {
        "runs/stale_omd__constant-20__seed0.csv": "5e60b399b8863bb976b14d7d922d660f8e5ab39029b94d3d4c8ec29fe314f21a",
        "runs/transport_omd__constant-20__seed0.csv": "569c20febda812c25e49398aa65a5eb95f0c49707ea0ec1bd20ea0c023e13329",
        "runs/two_stage__constant-20__seed0.csv": "665a73bb58b94c8f9598729da4605a28d6ea09e620ab02c501579618e0b4221a",
        "summary.csv": "9be2d1fad10b9eabc77e68323d49710bf2c3d5688f2f7dbae3edfb94f3462c9e",
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

# the full-precision digests, keyed by each run's CSV file name
COLUMN_DIGESTS = {
    "grid_path": {
        "stale_adam__uniform-0-6__seed0.csv": "2d624e72ee9080e8a2c1e09f65b582ca33f8b65acd277b2987134c88d789e262",
        "transport_adam__uniform-0-6__seed0.csv": "fd9cfcf1b8293dc9090c7a0328d93003e23c175f428f3830dfcabeaf59fb179c",
        "two_stage_adam__uniform-0-6__seed0.csv": "0bf0ba7fae8422a049839aace73effa712eb74dd5e355cfed4fefe52a58c6df2",
    },
    "grid_path_full_buffer": {
        "stale_adam__constant-20__seed0.csv": "3b00316ce2f790751a614fdfd44f44b439fb97ecb1df62ef71cb35384bfb4a10",
        "transport_adam__constant-20__seed0.csv": "edd3e30b4bdd31f1bc3f80e0b6a286bd346f022afdda50035e83e1717774cfe7",
        "two_stage_adam__constant-20__seed0.csv": "74eab332c639d30b2c6454ba2c8bfc7346dff360d11a080506fd2c6ae015bbd2",
    },
    "grid_path_bursty": {
        "stale_adam__bursty-3x4__seed0.csv": "d2e3cc8218e3926cedaf5b6a5f500c8aee6f87758f8972e002a9af701cf77d4e",
        "transport_adam__bursty-3x4__seed0.csv": "4ab3e268591240e58f4773bf8da96de3b6d641cbeccf79a6533deaad408e9139",
    },
    "hard_quadratic": {
        "stale_omd__constant-0__seed0.csv": "9acea325cf384c9554be38d49610f4945de17d39461e957239890249e926d273",
        "stale_omd__constant-3__seed0.csv": "020e92226ac83ffab865d7bbcfea8a59d54fa3761c202348844f4de2ace975e2",
        "transport_omd__constant-0__seed0.csv": "9acea325cf384c9554be38d49610f4945de17d39461e957239890249e926d273",
        "transport_omd__constant-3__seed0.csv": "2bbbfd7f509e24e9950b1643381d6748502aa3a252485b25c95f8e898bacdf7d",
    },
    "hard_quadratic_full_buffer": {
        "stale_omd__constant-10__seed0.csv": "048e9b3bec7031d2dfef4601cfe9cd993e3f715510ac72b91d3a3a043842b230",
        "transport_omd__constant-10__seed0.csv": "8219c69a403a104b800bac1c9a3b6df1d28e6516f8878559bcf13ab2db778943",
    },
    "hard_quadratic_poisson": {
        "stale_omd__poisson-3__seed0.csv": "78aff436839870e4d724e7c88ab1254c0efdf99c8ca7d68e4d404b97daf89c51",
        "transport_omd__poisson-3__seed0.csv": "5c68f1cbda05cec29d9c306c27d6e60b6e47624c589c5c7438e286ab700bf861",
    },
    "lqr": {
        "stale_omd__constant-2__seed0.csv": "ed217a2603ab48dc54efa4015210a2e517b3965051d0aed58541d1eddf9f0b07",
        "transport_omd__constant-2__seed0.csv": "d8b86d946351b58429c0c8b7f95f6ce0b14a5962915168c3fa94e96cc154433c",
        "two_stage__constant-2__seed0.csv": "dde4336367296bc819f00210254fea194e19dcd97d6e135580e1e3cdb004d911",
    },
    "lqr_bursty": {
        "stale_omd__bursty-3x4__seed0.csv": "0f7aefc12b1ad960946c31ac2d96dd0cb2b73e0f484384b81dbf1552ee68e23f",
        "transport_omd__bursty-3x4__seed0.csv": "b262fb68cdba650509bcc3dda6abef0bfb8dddf0159e2834920238b498934211",
    },
    "lqr_full_buffer": {
        "stale_omd__constant-20__seed0.csv": "5a63909b83b31635973e65ce69e911b1991af75d2c45adee81d4f1fa82be7440",
        "transport_omd__constant-20__seed0.csv": "88f7d9f4f01259a143500b3af22528af392184a5ca9de7db60c1d42616baeb97",
        "two_stage__constant-20__seed0.csv": "64ae1720bce8d10895c89ecb53770baefdbb4e78d7851597e0e4bcf9bab116e5",
    },
    "lqr_long": {
        "stale_omd__constant-20__seed0.csv": "7553ef5a5823ad6cbcc880b052ac8f6171a5bbdb4ddf2a58c63612a6d9b66822",
        "transport_omd__constant-20__seed0.csv": "da400f0449a664ef82e7730a71903c61f62eae09ea4c528a0178ebdee23011e1",
        "two_stage__constant-20__seed0.csv": "11652357950a10f0939938d1119235f8d5c162f597c25f109e7295c56b4496c8",
    },
    "sinkhorn": {
        "stale_adam__constant-0__seed0.csv": "84bcc22e4248bc610e7e4f05c0f929ff840ea3c96f582212edf28539771d82cf",
        "stale_adam__constant-5__seed0.csv": "ae96ac2a62c0cd6dac524f3b3c76f1f0472424bc286de207adda4645776286e3",
        "transport_adam__constant-0__seed0.csv": "84bcc22e4248bc610e7e4f05c0f929ff840ea3c96f582212edf28539771d82cf",
        "transport_adam__constant-5__seed0.csv": "457eae2cde82b36816c766f79c9b14c1af435aca4a23f4510c49640d0677fd48",
        "two_stage_adam__constant-0__seed0.csv": "dd615673e66ab2e77428b2b25527698286a87029cec57ebe4245d7332769773d",
        "two_stage_adam__constant-5__seed0.csv": "3ff00dcee881060200b86439a8d797031e25ddc04868a21968402132ac318f72",
    },
    "sinkhorn_full_buffer": {
        "stale_adam__constant-20__seed0.csv": "2b0b9af3c2be0b97d9a4c983e33909019ad07cb648d718c1c6862649acf60df0",
        "transport_adam__constant-20__seed0.csv": "82afc9c09d0292d4cee54bcfac8754297342718c0a670161be34c3de09ab13de",
    },
}


def run_case(name: str, out_dir: str) -> ExperimentResult:
    """Run case ``name`` at seed 0, writing its CSVs into ``out_dir``."""
    environment, env_args, eta0, algorithms, delays, rounds = CASES[name]
    cfg = ExperimentConfig(
        name=f"golden_{name}", environment=environment, env_args=env_args, rounds=rounds,
        seeds=[0], out_dir=out_dir, delays=delays,
        algorithms=[make_algorithm(algo, eta0=eta0) for algo in algorithms],
    )
    return run_experiment(cfg)


def csv_digests(name: str, out_dir: str) -> dict[str, str]:
    """Run case ``name`` into ``out_dir``; sha256 of every CSV it writes,
    keyed by the path below ``out_dir``."""
    run_case(name, out_dir)
    digests = {}
    for root, _, files in os.walk(out_dir):
        for file in files:
            path = os.path.join(root, file)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def column_digests(name: str, out_dir: str) -> dict[str, str]:
    """Run case ``name`` into ``out_dir``; sha256 of each run's raw column
    bytes, in ``ROW_COLUMNS`` order, then its final parameters, keyed by the
    run's CSV file name."""
    digests = {}
    for key, res in run_case(name, out_dir).runs.items():
        h = hashlib.sha256()
        for column in ROW_COLUMNS:
            h.update(res.columns[column].tobytes())
        h.update(res.final_theta.tobytes())
        digests[run_filename(key)] = h.hexdigest()
    return dict(sorted(digests.items()))


def recorded_digests(out_dir: str) -> tuple[dict[str, dict[str, str]], dict[str, dict[str, str]]]:
    """Digests of every case, in the layouts of ``DIGESTS`` and
    ``COLUMN_DIGESTS``."""
    return ({name: csv_digests(name, os.path.join(out_dir, "csv", name)) for name in CASES},
            {name: column_digests(name, os.path.join(out_dir, "columns", name)) for name in CASES})


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}; "
                           f"this is numpy {np.__version__}, whose arithmetic may differ in the last bit")
@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digests_match_the_recorded_ones(name, tmp_path):
    assert csv_digests(name, str(tmp_path)) == DIGESTS[name]


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}; "
                           f"this is numpy {np.__version__}, whose arithmetic may differ in the last bit")
@pytest.mark.parametrize("name", sorted(CASES))
def test_full_precision_column_digests_match_the_recorded_ones(name, tmp_path):
    assert column_digests(name, str(tmp_path)) == COLUMN_DIGESTS[name]


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


# Two tiny controlled comparisons that between them reach every formatting
# path of compare.csv and of the printed lines. hard_quadratic draws nothing
# per seed, so both seeds are identical: zero standard deviations, t = 0 and
# p = 1 at d = 0 (the arms are bit-identical there), t = -inf and p below the
# display floor at d = 3. The Sinkhorn cell has an ordinary t and p.
COMPARE_TEXTS = {
    "hard_quadratic": """
[experiment]
name = golden_compare_hard_quadratic
environment = hard_quadratic
rounds = 40
seeds = 0,1
out = {out}

[environment.args]
bias = 0.05

[delay]
kind = constant
sweep = 0,3

[algorithm.transport_omd]
eta0 = 0.1

[algorithm.stale_omd]
eta0 = 0.1

[compare]
treatment = transport_omd
control = stale_omd
""",
    "sinkhorn": """
[experiment]
name = golden_compare_sinkhorn
environment = sinkhorn
rounds = 40
seeds = 0,1
out = {out}

[environment.args]
drift_noise = 0.1

[delay]
kind = constant
d = 5

[algorithm.transport_adam]
eta0 = 0.002

[algorithm.stale_adam]
eta0 = 0.002

[compare]
treatment = transport_adam
control = stale_adam
""",
}

# name -> (sha256 of compare.csv, sha256 of the printed lines)
COMPARE_DIGESTS = {
    "hard_quadratic": ("e4a6c6a684c484faff388e84621f86c0795961e766bccb50330612d96c8d58d3",
                       "9747b008ca9e80e36b9d15f4df3f0996329a9f39461f572a0949d73faf18aee8"),
    "sinkhorn": ("3acae617d7a6aeec91b5c6958281c9ddec3f87b0c6a149c4f7a2976050e5f8b9",
                 "62b7e9167586cdd2662362bb11bc1b5ee7615901a9bc59c9d2a53b1782499dc7"),
}


def compare_digests(name: str, out_dir: str, capsys) -> tuple[str, str]:
    run_controlled_comparison(parse_config(COMPARE_TEXTS[name].format(out=out_dir)))
    printed = capsys.readouterr().out
    with open(os.path.join(out_dir, "compare.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest(), hashlib.sha256(printed.encode()).hexdigest()


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}; "
                           f"this is numpy {np.__version__}, whose arithmetic may differ in the last bit")
@pytest.mark.parametrize("name", sorted(COMPARE_TEXTS))
def test_compare_csv_and_printed_digests_match_the_recorded_ones(name, tmp_path, capsys):
    assert compare_digests(name, str(tmp_path), capsys) == COMPARE_DIGESTS[name]


# Each environment's inner diagnostics over 20 rounds at seed 0: the
# (residual_norm, epsilon_estimate) bytes of every round's decision, with
# theta moved by a seeded step between rounds and each solve warm-started
# from the last. hard_quadratic runs with a bias, so its constants are not
# zero.
INNER_DIAGNOSTICS_ARGS = {"hard_quadratic": {"bias": 0.05}, "lqr": {}, "sinkhorn": {}, "grid_path": {}}

INNER_DIAGNOSTICS_DIGESTS = {
    "grid_path": "7b6436b0c98f62380866d9432c2af0ee08ce16a171bda6951aecd95ee1307d61",
    "hard_quadratic": "26f2a06f999c74227c4eee6ed5b2bb782ce37b48a2cc337e59ba553205e51b8e",
    "lqr": "03ef1170c370082a54e875ba007dc6eaba75977ac18bad469669448749f9b355",
    "sinkhorn": "8f96f8e1616551ef936923ee30bcdc5e934553047919c99c919a1840009dec7a",
}


def inner_diagnostics_digest(name: str) -> str:
    env = make_environment(name, seed=0, **INNER_DIAGNOSTICS_ARGS[name])
    rng = np.random.default_rng(0)
    theta, w = env.theta_init(), env.initial_decision()
    h = hashlib.sha256()
    for t in range(1, 21):
        env.begin_round(t)
        w = env.solve_inner(theta, w)
        for value in env.inner_diagnostics(theta, w):
            h.update(np.float64(value).tobytes())
        theta = theta + 0.01 * rng.standard_normal(env.p)
    return h.hexdigest()


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}; "
                           f"this is numpy {np.__version__}, whose arithmetic may differ in the last bit")
@pytest.mark.parametrize("name", sorted(INNER_DIAGNOSTICS_ARGS))
def test_inner_diagnostics_digest_matches_the_recorded_one(name):
    assert inner_diagnostics_digest(name) == INNER_DIAGNOSTICS_DIGESTS[name]


# The config hash is the repr of every setting, so it moves with a renamed,
# reordered or re-defaulted field of any settings dataclass, and every CSV
# header of the preset with it. It does not depend on numpy.
PRESET_HASHES = {
    "controlled_comparison": "252ea76becb1",
    "delay_patterns": "e4576a9299e7",
    "grid_delay_sweep": "15b7897ad2a6",
    "hard_instance_floor": "629b7bd8d410",
    "k_sweep": "d5467fb12d45",
    "lqr_stability": "fe280c93d0cb",
    "transport_scaling": "61b30dc5d14a",
    "uniform_delay_validation": "43c6d73e0b8b",
}


def test_every_preset_hash_is_pinned():
    assert sorted(PRESET_HASHES) == preset_names()


@pytest.mark.parametrize("name", sorted(PRESET_HASHES))
def test_preset_config_hash_matches_the_pinned_one(name):
    assert load_preset(name).hash() == PRESET_HASHES[name]
