"""Config parsing, CSV plumbing, determinism, and the CLI surface."""

import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayopt.config import ConfigError, _int_list, parse_config
from delayopt.core import ContractError, InvariantError
from delayopt.harness import (
    RunKey,
    read_run_csv,
    recompute_summary,
    run_controlled_comparison,
    run_experiment,
    run_one,
    run_stability_sweep,
    summarize_cell,
    write_run_csv,
)
from delayopt.optimizers import AlgorithmConfig, algorithm_names, make_algorithm
from delayopt.runner import ROW_COLUMNS, RunResult
from delayopt.presets import load_preset, preset_names

MINIMAL = """
[experiment]
name = smoke
environment = hard_quadratic
rounds = 10
seeds = 0
out = {out}

[environment.args]
bias = 0.05

[delay]
kind = constant
d = 0

[algorithm.stale_omd]
eta0 = 0.1
schedule_mode = constant
"""


def test_minimal_run_produces_expected_files(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path / "res"))
    result = run_experiment(cfg)
    run_csv = tmp_path / "res" / "runs" / "stale_omd__constant-0__seed0.csv"
    assert run_csv.exists()
    lines = run_csv.read_text().splitlines()
    header_rows = [ln for ln in lines if ln.startswith("#")]
    data_rows = [ln for ln in lines if not ln.startswith("#")]
    assert len(data_rows) == 1 + 10  # header + one row per round
    assert any("config_hash=" in h and "seed=0" in h for h in header_rows)
    assert (tmp_path / "res" / "summary.csv").exists()
    assert len(result.summary) == 1


def test_repeated_runs_byte_identical(tmp_path):
    # the output directory is a deployment path: it must not reach the
    # config hash in the headers, so whole files match across directories
    cfg1 = parse_config(MINIMAL.format(out=tmp_path / "a"))
    cfg2 = parse_config(MINIMAL.format(out=tmp_path / "b"))
    run_experiment(cfg1)
    run_experiment(cfg2)
    a = (tmp_path / "a" / "runs" / "stale_omd__constant-0__seed0.csv").read_bytes()
    b = (tmp_path / "b" / "runs" / "stale_omd__constant-0__seed0.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (tmp_path / "b" / "summary.csv").read_bytes()
    cfg3 = parse_config(MINIMAL.format(out=tmp_path / "a"))
    run_experiment(cfg3)
    assert (tmp_path / "a" / "runs" / "stale_omd__constant-0__seed0.csv").read_bytes() == a


def test_summary_round_trip(tmp_path):
    text = MINIMAL.format(out=tmp_path / "rt") + "\n[algorithm.transport_omd]\neta0 = 0.1\nschedule_mode = constant\n"
    cfg = parse_config(text)
    cfg.rounds = 25
    cfg.seeds = [0, 1]
    result = run_experiment(cfg)
    recomputed = recompute_summary(cfg)
    for emitted, re_row in zip(result.summary, recomputed):
        assert re_row.algorithm == emitted.algorithm
        assert re_row.regret_mean == pytest.approx(emitted.regret_mean, abs=1e-9)
        assert re_row.regret_sd == pytest.approx(emitted.regret_sd, abs=1e-9)
        assert re_row.drift_sq_total == pytest.approx(emitted.drift_sq_total, rel=1e-9, abs=1e-12)


finite = st.floats(-1e9, 1e9, allow_nan=False)  # run-column magnitudes; summaries square them


@st.composite
def run_columns(draw):
    rounds = draw(st.integers(1, 6))
    cols = {c: draw(st.lists(finite, min_size=rounds, max_size=rounds)) for c in ROW_COLUMNS}
    cols["opt_gap"] = draw(st.lists(finite | st.just(float("nan")), min_size=rounds, max_size=rounds))
    cols["diverged"] = [0.0] * (rounds - 1) + [draw(st.sampled_from([0.0, 1.0]))]
    return {c: np.asarray(v) for c, v in cols.items()}


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(run_columns(), min_size=1, max_size=3))
def test_run_csv_round_trip_keeps_nine_significant_digits(tmp_path_factory, runs):
    cfg = parse_config(MINIMAL.format(out=tmp_path_factory.mktemp("csv")))
    cfg.seeds = list(range(len(runs)))
    algo, delay = cfg.algorithms[0].name, cfg.delays[0].describe()
    os.makedirs(os.path.join(cfg.out_dir, "runs"))
    rounded = []
    for seed, cols in enumerate(runs):
        key = RunKey(algo, delay, seed)
        res = RunResult(columns=cols, diverged=False, diverged_round=None, delay_hash="0", poisson_cap_hits=0,
                        skipped_arrivals=0, comparator_note="", final_theta=np.zeros(1))
        path = os.path.join(cfg.out_dir, "runs", key.filename())
        write_run_csv(path, cfg, key, res)
        back = read_run_csv(path)
        assert list(back) == list(ROW_COLUMNS)
        for c in ROW_COLUMNS:
            for x, y in zip(cols[c], back[c]):
                assert (np.isnan(x) and np.isnan(y)) or y == float("%.9g" % x)
        rounded.append(back)
    in_memory = summarize_cell(algo, delay, rounded, cfg.summary_window)
    [recomputed] = recompute_summary(cfg)
    assert recomputed.as_csv() == in_memory.as_csv()


def write_run_csv_reference(path, cfg, key, res):
    """The run CSV as first written: one row at a time, NaN by ``np.isnan``."""

    def fmt(x):
        if isinstance(x, float) and np.isnan(x):
            return ""
        return "%.9g" % x

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# delayopt run v1\n")
        fh.write(
            f"# config_hash={cfg.hash()} seed={key.seed} algorithm={key.algorithm} "
            f"delay={key.delay} delay_hash={res.delay_hash} cap_hits={res.poisson_cap_hits} "
            f"comparator={res.comparator_note!r}\n"
        )
        fh.write(",".join(ROW_COLUMNS) + "\n")
        for i in range(res.rounds_logged):
            fh.write(",".join(fmt(float(res.columns[c][i])) for c in ROW_COLUMNS) + "\n")


EDGE_VALUES = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
               3.0, -7.0, 2.0**53, 1e9, 123456789.5)


@settings(max_examples=60, deadline=None)
@given(rounds=st.integers(0, 12), data=st.data())
def test_run_csv_text_equals_the_row_formatter(tmp_path_factory, rounds, data):
    values = st.sampled_from(EDGE_VALUES) | st.floats()
    cols = {c: np.array(data.draw(st.lists(values, min_size=rounds, max_size=rounds)), dtype=float)
            for c in ROW_COLUMNS}
    out = tmp_path_factory.mktemp("text")
    cfg = parse_config(MINIMAL.format(out=out))
    key = RunKey(cfg.algorithms[0].name, cfg.delays[0].describe(), 0)
    res = RunResult(columns=cols, diverged=False, diverged_round=None, delay_hash="0", poisson_cap_hits=0,
                    skipped_arrivals=0, comparator_note="", final_theta=np.zeros(1))
    write_run_csv(str(out / "run.csv"), cfg, key, res)
    write_run_csv_reference(str(out / "reference.csv"), cfg, key, res)
    assert (out / "run.csv").read_bytes() == (out / "reference.csv").read_bytes()


def test_paired_delay_hashes_verified(tmp_path):
    text = """
[experiment]
name = pair
environment = hard_quadratic
rounds = 30
seeds = 0,1
out = {out}

[delay]
kind = uniform
d_max = 6

[algorithm.transport_omd]
eta0 = 0.05

[algorithm.stale_omd]
eta0 = 0.05

[compare]
treatment = transport_omd
control = stale_omd
""".format(out=tmp_path / "cmp")
    cfg = parse_config(text)
    rows = run_controlled_comparison(cfg)
    assert len(rows) == 1
    assert (tmp_path / "cmp" / "compare.csv").exists()


def test_forged_delay_hash_breaks_the_pairing_with_a_named_error(tmp_path):
    # a control run whose realized delays differ from the treatment's
    # breaks the pairing, and the comparison refuses it
    cfg = parse_config(MINIMAL.format(out=tmp_path / "res").replace("seeds = 0", "seeds = 0,1")
                       + "\n[algorithm.transport_omd]\neta0 = 0.1\n"
                       + "\n[compare]\ntreatment = transport_omd\ncontrol = stale_omd\n")
    result = run_experiment(cfg, write=False)
    run_controlled_comparison(cfg, write=False, experiment=result)  # paired as run
    key = ("stale_omd", cfg.delays[0].describe(), 1)
    result.runs[key] = dataclasses.replace(result.runs[key], delay_hash="forged")
    with pytest.raises(InvariantError, match="paired-delay violation at seed 1") as err:
        run_controlled_comparison(cfg, write=False, experiment=result)
    assert isinstance(err.value, AssertionError)


def test_config_error_messages_name_section_and_key():
    with pytest.raises(ConfigError, match=r"\[experiment\] unknown key"):
        parse_config("[experiment]\nbogus = 1\n[algorithm.stale_omd]\neta0 = 0.1\n")
    with pytest.raises(ConfigError, match=r"\[algorithm.stale_omd\] unknown key"):
        parse_config("[algorithm.stale_omd]\nnot_a_field = 3\n")
    with pytest.raises(ConfigError, match=r"\[algorithm.stale_omd\] unknown key 'cg_tolerance'"):
        parse_config("[algorithm.stale_omd]\ncg_tolerance = 1e-8\n")
    with pytest.raises(ConfigError, match="treatment"):
        parse_config("[algorithm.stale_omd]\neta0 = 0.1\n[compare]\ntreatment = missing\ncontrol = stale_omd\n")
    with pytest.raises(ConfigError, match="at least one"):
        parse_config("[experiment]\nrounds = 5\n")


def test_presets_parse_and_validate():
    for name in preset_names():
        cfg = load_preset(name)
        cfg.validate()


def test_stability_sweep_smoke(tmp_path):
    text = """
[experiment]
name = st
environment = hard_quadratic
rounds = 50
seeds = 0
out = {out}

[algorithm.stale_omd]
eta0 = 0.1
schedule_mode = constant

[stability]
eta_lo = 0.05
eta_hi = 8.0
resolution = 0.05
horizon = 4000
delays = 0
""".format(out=tmp_path / "st")
    cfg = parse_config(text)
    rows = run_stability_sweep(cfg)
    # synchronous scalar boundary is eta = 2 / coupling^2 = 2
    assert rows[0][2] == pytest.approx(2.0, abs=0.1)
    assert (tmp_path / "st" / "stability.csv").exists()


def test_parallel_stability_sweep_matches_serial(tmp_path, capsys):
    text = """
[experiment]
environment = lqr
rounds = 30
seeds = 0,1

[algorithm.transport_omd]
eta0 = 0.01
schedule_mode = constant

[algorithm.two_stage]
eta0 = 0.01

[stability]
eta_lo = 0.0001
eta_hi = 16.0
resolution = 0.5
horizon = 30
delays = 1,5
"""
    outputs = {}
    for parallel in (1, 2):
        cfg = parse_config(text)
        cfg.out_dir = str(tmp_path / f"p{parallel}")
        rows = run_stability_sweep(cfg, parallel=parallel)
        with open(os.path.join(cfg.out_dir, "stability.csv"), "rb") as fh:
            outputs[parallel] = (rows, fh.read(), capsys.readouterr().out)
    assert [(name, d) for name, d, _ in outputs[1][0]] == [
        ("transport_omd", 1), ("transport_omd", 5), ("two_stage", 1), ("two_stage", 5)]
    assert outputs[2] == outputs[1]


def test_parallel_experiment_writes_the_serial_bytes(tmp_path):
    text = MINIMAL.replace("d = 0", "sweep = 0,3").replace("seeds = 0", "seeds = 0,1")
    outputs = {}
    for parallel in (1, 2):
        cfg = parse_config(text.format(out=tmp_path / f"p{parallel}"))
        run_experiment(cfg, parallel=parallel)
        outputs[parallel] = {path.relative_to(tmp_path / f"p{parallel}"): path.read_bytes()
                             for path in sorted((tmp_path / f"p{parallel}").rglob("*.csv"))}
    assert len(outputs[1]) == 1 + 4  # summary.csv and 2 delays x 2 seeds
    assert outputs[2] == outputs[1]


def test_cli_counts_a_failed_inner_solve_as_diverged(tmp_path):
    from delayopt.cli import main
    cfg_path = tmp_path / "solve.ini"
    cfg_path.write_text(f"[experiment]\nenvironment = lqr\nrounds = 20\nseeds = 0,1\nout = {tmp_path / 'out'}\n"
                        "[environment.args]\ninner_step_size = 100.0\ninner_steps = 200\n"
                        "[delay]\nkind = constant\nd = 1\n[algorithm.transport_omd]\n")
    assert main(["run", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    header, row = [ln.split(",") for ln in lines if not ln.startswith("#")]
    assert {k: v for k, v in zip(header, row) if k in ("seeds", "diverged")} == {"seeds": "2", "diverged": "2"}


def test_cli_run_and_errors(tmp_path, capsys):
    from delayopt.cli import main
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "cli"))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "cli" / "summary.csv").exists()
    assert main(["run", "--preset", "not_a_preset"]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nbogus = 1\n")
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_seed_and_out_overrides(tmp_path):
    from delayopt.cli import main
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "orig"))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "ovr"), "--seeds", "5"])
    assert rc == 0
    assert (tmp_path / "ovr" / "runs" / "stale_omd__constant-0__seed5.csv").exists()


TYPOS = [
    ("grid_path", "[environment.args]\nheigth = 5\n", r"\[environment.args\] unknown key 'heigth'"),
    ("grid_path", "[environment.args]\nheight = abc\n",
     r"\[environment.args\] height = 'abc': expected int for environment 'grid_path'"),
    ("grid_path", "[environment.args]\nheight = 6.5\n", r"\[environment.args\] height = 6.5: expected int"),
    ("gridpath", "", r"\[experiment\] environment 'gridpath' is unknown"),
    ("grid_path", "[delay]\nkind = constnat\n", r"\[delay\] kind 'constnat' is unknown"),
    ("grid_path", "rounds = abc\n", r"\[experiment\] rounds = 'abc': expected int$"),
    ("grid_path", "[delay]\nkind = uniform\nd_max = 1.5\n", r"\[delay\] d_max = 1.5: expected int$"),
    ("grid_path", "[delay]\nhorizon = 3\n", r"\[delay\] unknown key 'horizon'$"),
    ("grid_path", "[stability]\nhorizon = x\n", r"\[stability\] horizon = 'x': expected int$"),
    # a key the kind does not read used to be dropped: uniform with d = 20
    # ran every delay as 0
    ("grid_path", "[delay]\nkind = uniform\nd = 20\n",
     r"\[delay\] d is not read by kind 'uniform', which reads only d_max$"),
    ("grid_path", "[delay]\nd_max = 5\n", r"\[delay\] d_max is not read by kind 'constant', which reads only d$"),
    ("grid_path", "[delay]\nkind = poisson\nlam = 3\nd_high = 9\n",
     r"\[delay\] d_high is not read by kind 'poisson', which reads only lam$"),
    ("grid_path", "[delay]\nkind = bursty\nd_high = 9\nlam = 3\n",
     r"\[delay\] lam is not read by kind 'bursty', which reads only d_high, block_len$"),
    ("grid_path", "[delay]\nkind = uniform\nd_max = 6\nsweep = 1,2\n",
     r"\[delay\] sweep lists are only supported for constant delays$"),
]


def typo_config(environment, extra, out):
    return (f"[experiment]\nenvironment = {environment}\nout = {out}\n{extra}"
            "[algorithm.transport_adam]\neta0 = 0.001\n")


@pytest.mark.parametrize("environment, extra, message", TYPOS)
def test_config_typos_fail_at_parse_time(tmp_path, environment, extra, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(typo_config(environment, extra, tmp_path))


@pytest.mark.parametrize("environment, extra, message", TYPOS)
def test_cli_config_typos_exit_2_before_running(tmp_path, capsys, environment, extra, message):
    from delayopt.cli import main
    cfg_path = tmp_path / "typo.ini"
    cfg_path.write_text(typo_config(environment, extra, tmp_path / "out"))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert re.match("error: " + message, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("delay, described", [
    ("kind = constant\nd = 3\n", ["constant:3"]),
    ("kind = constant\nsweep = 1,2\n", ["constant:1", "constant:2"]),
    ("kind = uniform\nd_max = 6\n", ["uniform:0-6"]),
    ("kind = poisson\nlam = 2.5\n", ["poisson:2.5"]),
    ("kind = bursty\nd_high = 9\nblock_len = 4\n", ["bursty:4x9"]),
], ids=["constant", "sweep", "uniform", "poisson", "bursty"])
def test_every_key_a_kind_reads_parses(tmp_path, delay, described):
    cfg = parse_config(typo_config("grid_path", "[delay]\n" + delay, tmp_path))
    assert [spec.describe() for spec in cfg.delays] == described


# (environment, text after the [experiment] keys, [algorithm.transport_omd] keys, message)
VALUE_RANGES = [
    ("lqr", "[environment.args]\nr_weight = 0.0\n", "", r"\[environment.args\] r_weight must be positive"),
    ("hard_quadratic", "[environment.args]\nmu_w = 0\n", "", r"\[environment.args\] mu_w must be positive"),
    ("hard_quadratic", "", "eta0 = 0", r"\[algorithm.transport_omd\]: eta0 must be positive"),
    ("hard_quadratic", "", "schedule_mode = bogus",
     r"\[algorithm.transport_omd\]: unknown schedule mode 'bogus'"),
    # each of these used to pass parsing and fail mid-run, or run wrongly
    ("hard_quadratic", "[delay]\nd = -1\n", "", r"\[delay\] d must be >= 0$"),
    ("hard_quadratic", "[delay]\nkind = uniform\nd_max = -1\n", "", r"\[delay\] d_max must be >= 0$"),
    ("hard_quadratic", "[delay]\nkind = poisson\nlam = nan\n", "", r"\[delay\] lam must be finite and >= 0$"),
    ("hard_quadratic", "[delay]\nkind = poisson\nlam = inf\n", "", r"\[delay\] lam must be finite and >= 0$"),
    ("hard_quadratic", "[delay]\nkind = poisson\nlam = 1e19\n", "",
     r"\[delay\] lam must be <= 9\.223372006484771e\+18, the largest mean numpy's Poisson sampler takes$"),
    ("hard_quadratic", "[delay]\nkind = bursty\nblock_len = 0\n", "", r"\[delay\] block_len must be >= 1$"),
    ("hard_quadratic", "[delay]\nsweep = 2,-1\n", "", r"\[delay\] sweep: d must be >= 0$"),
    ("hard_quadratic", "", "clip_norm = -1", r"\[algorithm.transport_omd\]: clip_norm must be positive or none$"),
    ("hard_quadratic", "", "clip_norm = 0", r"\[algorithm.transport_omd\]: clip_norm must be positive or none$"),
    ("hard_quadratic", "", "eta0 = nan", r"\[algorithm.transport_omd\]: eta0 must be positive and finite$"),
    ("hard_quadratic", "", "beta_damping = inf",
     r"\[algorithm.transport_omd\]: beta_damping must be finite and >= 0$"),
    ("hard_quadratic", "[stability]\nhorizon = 0\n", "", r"\[stability\] horizon must be >= 1$"),
    ("hard_quadratic", "[stability]\nresolution = 0\n", "", r"\[stability\] resolution must be positive$"),
    ("hard_quadratic", "[stability]\neta_lo = 0\n", "", r"\[stability\] needs 0 < eta_lo < eta_hi < inf$"),
    ("hard_quadratic", "[stability]\ndelays = 1,-1\n", "",
     r"\[stability\] delays must be a non-empty list of delays >= 0$"),
    ("hard_quadratic", "summary_window = 0\n", "", r"\[experiment\] summary_window must be >= 1$"),
]


@pytest.mark.parametrize("environment, extra, algo_arg, message", VALUE_RANGES,
                         ids=["r_weight", "mu_w", "eta0", "schedule_mode", "delay_d", "delay_d_max",
                              "delay_lam_nan", "delay_lam_inf", "delay_lam_too_large", "delay_block_len", "delay_sweep",
                              "clip_norm_negative", "clip_norm_zero", "eta0_nan", "beta_damping_inf",
                              "stability_horizon", "stability_resolution", "stability_eta_lo",
                              "stability_delays", "summary_window"])
def test_value_range_errors_exit_2_before_running(tmp_path, capsys, environment, extra, algo_arg, message):
    from delayopt.cli import main
    text = (f"[experiment]\nenvironment = {environment}\nrounds = 3\nout = {tmp_path / 'out'}\n"
            f"{extra}[algorithm.transport_omd]\n{algo_arg}\n")
    with pytest.raises(ConfigError, match=message):
        parse_config(text)
    cfg_path = tmp_path / "range.ini"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert re.match("error: " + message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_explicit_zero_rounds_is_not_the_default():
    cfg = parse_config(MINIMAL.format(out="unused"))
    with pytest.raises(ContractError, match="rounds must be >= 1"):
        run_one(cfg, cfg.algorithms[0], cfg.delays[0], 0, rounds=0)


ALGORITHM_ERRORS = [
    ("lqr", "transport_omd", "base = bogus",
     r"\[algorithm.transport_omd\] base 'bogus' is unknown; known: plain_gd, adam, dftrl"),
    ("lqr", "transport_omd", "gradient = bogus",
     r"\[algorithm.transport_omd\] gradient 'bogus' is unknown; known: transport, stale, two_stage"),
    ("hard_quadratic", "two_stage", "",
     r"\[algorithm.two_stage\]: environment 'hard_quadratic' exposes no prediction target"),
    ("lqr", "transport_omd", "eta0 = abc", r"\[algorithm.transport_omd\] eta0 = 'abc': expected float$"),
    ("lqr", "transport_omd", "clip_norm = abc",
     r"\[algorithm.transport_omd\] clip_norm = 'abc': expected float or none$"),
    ("lqr", "transport_omd", "name = foo", r"\[algorithm.transport_omd\] unknown key 'name'$"),
]


@pytest.mark.parametrize("environment, algorithm, algo_arg, message", ALGORITHM_ERRORS,
                         ids=["base", "gradient", "two_stage_without_target", "eta0_type", "clip_norm_type",
                              "name_key"])
def test_algorithm_errors_exit_2_before_running(tmp_path, capsys, environment, algorithm, algo_arg, message):
    from delayopt.cli import main
    text = (f"[experiment]\nenvironment = {environment}\nrounds = 3\nout = {tmp_path / 'out'}\n"
            f"[algorithm.{algorithm}]\n{algo_arg}\n")
    with pytest.raises(ConfigError, match=message):
        parse_config(text)
    cfg_path = tmp_path / "algo.ini"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert re.match("error: " + message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def schema_table(after: str) -> list[list[str]]:
    """Body rows of the first table after the line ``after`` in
    docs/config_schema.md, cells stripped of spaces and backticks."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "config_schema.md")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    rows = []
    for line in lines[lines.index(after) + 1:]:
        if line.startswith("|"):
            rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]  # past the header and its rule


def test_config_schema_lists_every_algorithm_key_and_registry_entry():
    keys = [row[0] for row in schema_table("## `[algorithm.<label>]`")]
    assert keys == [f.name for f in dataclasses.fields(AlgorithmConfig) if f.name != "name"]
    entries = schema_table("The registry entries set these fields, and leave `eta0` at its default:")
    assert [row[0] for row in entries] == algorithm_names()
    for kind, gradient, base, mode, clip, damping in entries:
        algo = make_algorithm(kind)
        assert (algo.gradient, algo.base, algo.schedule_mode) == (gradient, base, mode), kind
        assert algo.clip_norm == (None if clip == "none" else float(clip)), kind
        assert algo.beta_damping == float(damping), kind


def test_clip_norm_none_parses_to_none():
    cfg = parse_config("[algorithm.stale_adam]\nclip_norm = none\n[algorithm.stale_omd]\nclip_norm = 2\n")
    assert [algo.clip_norm for algo in cfg.algorithms] == [None, 2]


def test_int_for_float_environment_arg_is_kept_as_written(tmp_path):
    cfg = parse_config(typo_config("grid_path", "[environment.args]\nperturbation = 2\n", tmp_path))
    assert cfg.env_args == {"perturbation": 2} and type(cfg.env_args["perturbation"]) is int
    with pytest.raises(ConfigError, match=r"perturbation = True: expected float"):
        parse_config(typo_config("grid_path", "[environment.args]\nperturbation = true\n", tmp_path))


def test_malformed_integer_lists_are_config_errors(tmp_path, capsys):
    from delayopt.cli import main
    with pytest.raises(ConfigError, match=r"--seeds: expected a list of integers, got '0x'"):
        _int_list("0x", "--seeds")
    assert _int_list("1, 3 5", "--k-values") == [1, 3, 5]
    out = tmp_path / "out"
    assert main(["run", "--preset", "grid_delay_sweep", "--seeds", "0x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --seeds: expected a list of integers, got '0x'\n"
    assert main(["sweep-k", "--preset", "k_sweep", "--k-values", "1,a", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --k-values: expected a list of integers, got '1,a'\n"
    assert not out.exists()


def test_sweep_k_rejects_environment_without_inner_iterations(tmp_path, capsys):
    from delayopt.cli import main
    from delayopt.harness import run_k_sweep
    text = MINIMAL.format(out=tmp_path / "k")
    with pytest.raises(ConfigError, match=r"\[environment.args\] unknown key 'inner_iterations'"):
        run_k_sweep(parse_config(text), [1, 3], write=False)
    cfg_path = tmp_path / "k.ini"
    cfg_path.write_text(text)
    assert main(["sweep-k", "--config", str(cfg_path), "--k-values", "1"]) == 1
    assert "error: [environment.args] unknown key 'inner_iterations'" in capsys.readouterr().err
    assert not (tmp_path / "k").exists()


@pytest.mark.parametrize("delay", [
    "kind = uniform\nd_max = 20\n",
    "kind = poisson\nlam = 3\n",
    "kind = constant\nd = 0\n",
    "kind = constant\nsweep = 5,20\n",
])
def test_delay_patterns_needs_one_constant_delay_of_at_least_one(tmp_path, capsys, delay):
    from delayopt.cli import main
    from delayopt.harness import run_delay_patterns
    text = MINIMAL.format(out=tmp_path / "pat").replace("kind = constant\nd = 0\n", delay)
    with pytest.raises(ConfigError, match=r"\[delay\] delay-patterns needs a single constant delay"):
        run_delay_patterns(parse_config(text), write=False)
    cfg_path = tmp_path / "pat.ini"
    cfg_path.write_text(text)
    assert main(["delay-patterns", "--config", str(cfg_path)]) == 1
    assert "error: [delay] delay-patterns" in capsys.readouterr().err
    assert not (tmp_path / "pat").exists()


def test_delay_patterns_scales_the_constant_base_delay(tmp_path):
    from delayopt.harness import run_delay_patterns
    cfg = parse_config(MINIMAL.format(out=tmp_path / "pat").replace("d = 0", "d = 3"))
    result = run_delay_patterns(cfg, write=False)
    assert [row.delay for row in result.summary] == ["constant:3", "uniform:0-6", "bursty:10x6"]
