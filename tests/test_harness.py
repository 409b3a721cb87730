"""Config parsing, CSV plumbing, determinism, and the CLI surface."""

import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayopt.config import _ALGORITHM_KEYS, ConfigError, _int_list, parse_config
from delayopt.core import ContractError, InvariantError
from delayopt.delays import DelaySpec
from delayopt.environments import ENVIRONMENTS
from delayopt.harness import (
    read_run_csv,
    recompute_summary,
    run_controlled_comparison,
    run_experiment,
    run_filename,
    run_one,
    run_stability_sweep,
    summarize_cell,
    write_run_csv,
)
from delayopt.optimizers import algorithm_names, make_algorithm
from delayopt.runner import ROW_COLUMNS, RunResult
from delayopt.presets import PRESETS, load_preset, preset_names

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
        key = (algo, delay, seed)
        res = RunResult(columns=cols, diverged_round=None, delay_hash="0", poisson_cap_hits=0,
                        skipped_arrivals=0, comparator_note="", final_theta=np.zeros(1))
        path = os.path.join(cfg.out_dir, "runs", run_filename(key))
        write_run_csv(path, cfg, key, res)
        back = read_run_csv(path)
        assert list(back) == list(ROW_COLUMNS)
        for c in ROW_COLUMNS:
            for x, y in zip(cols[c], back[c]):
                assert (np.isnan(x) and np.isnan(y)) or y == float("%.9g" % x)
        rounded.append(back)
    in_memory = summarize_cell(algo, delay, rounded, cfg.summary_window)
    [recomputed] = recompute_summary(cfg)
    # assert_equal counts NaN equal to NaN: gap_window_mean is NaN when every window gap is NaN
    np.testing.assert_equal(dataclasses.asdict(recomputed), dataclasses.asdict(in_memory))


def write_run_csv_reference(path, cfg, key, res):
    """The run CSV as first written: one row at a time, NaN by ``np.isnan``."""
    algorithm, delay, seed = key

    def fmt(x):
        if isinstance(x, float) and np.isnan(x):
            return ""
        return "%.9g" % x

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# delayopt run v1\n")
        fh.write(
            f"# config_hash={cfg.hash()} seed={seed} algorithm={algorithm} "
            f"delay={delay} delay_hash={res.delay_hash} cap_hits={res.poisson_cap_hits} "
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
    key = (cfg.algorithms[0].name, cfg.delays[0].describe(), 0)
    res = RunResult(columns=cols, diverged_round=None, delay_hash="0", poisson_cap_hits=0,
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


def test_compare_with_a_diverged_arm_counts_its_regret_as_nan(tmp_path, capsys):
    # the diverged arm stops sampling delays, so its delay hash covers fewer
    # rounds than the other arm's; the comparison used to end in a false
    # paired-delay InvariantError with a traceback
    from delayopt.cli import main
    cfg_path = tmp_path / "diverge.ini"
    cfg_path.write_text("[experiment]\nenvironment = hard_quadratic\nrounds = 200\nseeds = 0,1\n"
                        f"out = {tmp_path / 'out'}\n[delay]\nd = 1\n"
                        "[algorithm.transport_omd]\neta0 = 50.0\nschedule_mode = constant\n"
                        "[algorithm.stale_omd]\neta0 = 0.01\n"
                        "[compare]\ntreatment = transport_omd\ncontrol = stale_omd\n")
    assert main(["compare", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "constant:1     treatment       nan+-    nan  control    33.684+-  0.000  improvement n/a  p=nan")
    lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert lines[3:] == ["constant:1,,,33.6835507,0,,,nan"]
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert [row.split(",")[-1] for row in summary[3:]] == ["2", "0"]  # both treatment runs diverged
    # the summary counts a diverged run's regret as NaN too, so its cells are empty
    assert [row.split(",")[3:5] for row in summary[3:]] == [["", ""], ["33.6835507", "0"]]


def test_compare_with_no_control_regret_leaves_the_improvement_empty(tmp_path, capsys):
    # theta_bound = 0 starts both arms at the optimum, so both regrets are
    # exactly 0; the comparison used to end in a ContractError traceback
    # with no compare.csv
    from delayopt.cli import main
    cfg_path = tmp_path / "zero.ini"
    cfg_path.write_text("[experiment]\nenvironment = hard_quadratic\nrounds = 20\nseeds = 0,1\n"
                        f"out = {tmp_path / 'out'}\n[environment.args]\ntheta_bound = 0.0\n"
                        "[delay]\nd = 3\n[algorithm.transport_omd]\neta0 = 0.1\n[algorithm.stale_omd]\neta0 = 0.1\n"
                        "[compare]\ntreatment = transport_omd\ncontrol = stale_omd\n")
    assert main(["compare", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "constant:3     treatment     0.000+-  0.000  control     0.000+-  0.000  improvement n/a  p=1")
    lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert lines[2:] == ["delay,treatment_mean,treatment_sd,control_mean,control_sd,improvement_pct,t_stat,p_value",
                         "constant:3,0,0,0,0,,0,1"]


def test_config_error_messages_name_section_and_key():
    with pytest.raises(ConfigError, match=r"\[experiment\] unknown key"):
        parse_config("[experiment]\nbogus = 1\n[algorithm.stale_omd]\neta0 = 0.1\n")
    with pytest.raises(ConfigError, match=r"\[algorithm.stale_omd\] unknown key"):
        parse_config("[algorithm.stale_omd]\nnot_a_field = 3\n")
    with pytest.raises(ConfigError, match=r"\[algorithm.stale_omd\] unknown key 'cg_tolerance'"):
        parse_config("[algorithm.stale_omd]\ncg_tolerance = 1e-8\n")
    with pytest.raises(ConfigError, match="treatment"):
        parse_config("[algorithm.stale_omd]\neta0 = 0.1\n[compare]\ntreatment = missing\ncontrol = stale_omd\n")
    # an arm compared with itself used to run and print "improvement +0.00% p=1"
    with pytest.raises(ConfigError, match=r"^\[compare\] treatment and control are both 'stale_omd'; "
                                          r"name two different arms$"):
        parse_config("[algorithm.stale_omd]\neta0 = 0.1\n[compare]\ntreatment = stale_omd\ncontrol = stale_omd\n")
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
    capsys.readouterr()
    # a KeyError used to print its repr, the message in quotes
    assert main(["run", "--preset", "not_a_preset"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown preset 'not_a_preset'; available: controlled_comparison, delay_patterns, "
        "grid_delay_sweep, hard_instance_floor, k_sweep, lqr_stability, transport_scaling, "
        "uniform_delay_validation\n")
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


@pytest.mark.parametrize("flag, message", [
    ("--seeds", "error: [experiment] seeds must be a non-empty list of seeds >= 0, got []\n"),
    ("--out", "error: [experiment] out must name a directory, got ''\n"),
])
def test_cli_empty_override_is_an_error(tmp_path, monkeypatch, capsys, flag, message):
    # an empty override is neither ignored nor run: nothing is written
    from delayopt.cli import main
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "orig"))
    assert main(["run", "--config", str(cfg_path), flag, ""]) == 2
    assert capsys.readouterr().err == message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


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
    ("grid_path", "[environment.sweep]\nheigth = 5,6\n",
     r"\[environment.sweep\] unknown key 'heigth' for environment 'grid_path'$"),
    ("grid_path", "[environment.sweep]\nheight = 5,abc\n",
     r"\[environment.sweep\] height = 'abc': expected int for environment 'grid_path'$"),
    ("grid_path", "[environment.sweep]\nheight = 5,6\nwidth = 7\n",
     r"\[environment.sweep\] needs non-empty lists of one length, got \{'height': 2, 'width': 1\}$"),
    ("grid_path", "[environment.sweep]\nheight =\n",
     r"\[environment.sweep\] needs non-empty lists of one length, got \{'height': 0\}$"),
    ("grid_path", "[environment.args]\nheight = 5\n[environment.sweep]\nwidth = 5,6\nheight = 6,7\n",
     r"\[environment.sweep\] height also set in \[environment.args\]$"),
    # a misspelt section used to be dropped with all its keys
    ("grid_path", "[stabilty]\nhorizon = 5\n",
     r"\[stabilty\] unknown section; known: experiment, environment.args, environment.sweep, delay, "
     r"delay.<label>, algorithm.<label>, stability, compare$"),
    ("grid_path", "[compar]\ntreatment = x\n", r"\[compar\] unknown section; known: "),
    ("grid_path", "[environment]\nheight = 5\n", r"\[environment\] unknown section; known: "),
    ("grid_path", "[delay.]\nd = 5\n", r"\[delay\.\] unknown section; known: "),
    ("grid_path", "[algorithm]\neta0 = 0.1\n", r"\[algorithm\] unknown section; known: "),
    # a labelled delay section is read by the [delay] rules under its own name
    ("grid_path", "[delay.wide]\nkind = uniform\nd = 20\n",
     r"\[delay.wide\] d is not read by kind 'uniform', which reads only d_max$"),
    ("grid_path", "[delay.wide]\nhorizon = 3\n", r"\[delay.wide\] unknown key 'horizon'$"),
    ("grid_path", "[delay.wide]\nkind = uniform\nd_max = 6\nsweep = 1,2\n",
     r"\[delay.wide\] sweep lists are only supported for constant delays$"),
    # a repeated seed used to run once and count twice; a repeated delay ran
    # every cell twice
    ("grid_path", "seeds = 0,1,0\n", r"\[experiment\] seeds must be unique; 0 is repeated$"),
    ("grid_path", "[delay]\nsweep = 5,5\n", r"\[delay\] delay labels must be unique; constant:5 is repeated$"),
    ("grid_path", "[delay]\nd = 5\n[delay.again]\nd = 5\n",
     r"\[delay\] delay labels must be unique; constant:5 is repeated$"),
    ("grid_path", "[delay]\nkind = uniform\nd_max = 4\n[delay.same]\nkind = uniform\nd_max = 4\n",
     r"\[delay\] delay labels must be unique; uniform:0-4 is repeated$"),
    # an empty sweep used to run no cell and exit 0 with a header-only summary
    ("grid_path", "[delay]\nsweep =\n", r"\[delay\] sweep lists no delay; give at least one value$"),
    ("grid_path", "[delay]\nd = 5\n[delay.none]\nsweep =\n",
     r"\[delay.none\] sweep lists no delay; give at least one value$"),
    # a label is a file name part and a CSV cell: '../escape' wrote outside
    # <out>/runs/, and 'a,b' wrote a summary row of 11 cells under 10 names
    ("grid_path", "[algorithm../escape]\nkind = stale_omd\n",
     r"\[algorithm\.\./escape\] the label may hold only letters, digits, '_', '\.' and '-'$"),
    ("grid_path", "[algorithm.a/b]\nkind = stale_omd\n", r"\[algorithm\.a/b\] the label may hold only "),
    ("grid_path", "[algorithm.a,b]\nkind = stale_omd\n", r"\[algorithm\.a,b\] the label may hold only "),
    # the floors and caps are module constants, not keys
    ("lqr", "[environment.args]\nloss_cap = 1e8\n",
     r"\[environment.args\] unknown key 'loss_cap' for environment 'lqr'$"),
    ("lqr", "[environment.args]\nstate_cap = 1e8\n",
     r"\[environment.args\] unknown key 'state_cap' for environment 'lqr'$"),
    ("sinkhorn", "[environment.args]\ncost_floor = 1e-3\n",
     r"\[environment.args\] unknown key 'cost_floor' for environment 'sinkhorn'$"),
    ("sinkhorn", "[environment.args]\ncoupling_floor = 1e-30\n",
     r"\[environment.args\] unknown key 'coupling_floor' for environment 'sinkhorn'$"),
    ("sinkhorn", "[environment.args]\nadjoint_floor = 1e-6\n",
     r"\[environment.args\] unknown key 'adjoint_floor' for environment 'sinkhorn'$"),
    ("grid_path", "[environment.args]\ncost_floor = 1e-3\n",
     r"\[environment.args\] unknown key 'cost_floor' for environment 'grid_path'$"),
    # so are the fixed rates and scales
    ("lqr", "[environment.args]\nspectral_radius = 0.95\n",
     r"\[environment.args\] unknown key 'spectral_radius' for environment 'lqr'$"),
    ("sinkhorn", "[environment.args]\ndrift_rate = 0.05\n",
     r"\[environment.args\] unknown key 'drift_rate' for environment 'sinkhorn'$"),
    ("sinkhorn", "[environment.args]\ncost_scale = 1.0\n",
     r"\[environment.args\] unknown key 'cost_scale' for environment 'sinkhorn'$"),
    ("grid_path", "[environment.args]\ndrift_rate = 0.05\n",
     r"\[environment.args\] unknown key 'drift_rate' for environment 'grid_path'$"),
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
    # a repeat used to bisect its delay twice and write two identical rows
    ("hard_quadratic", "[stability]\ndelays = 3,3\n", "", r"\[stability\] delays must be unique; 3 is repeated$"),
    ("hard_quadratic", "summary_window = 0\n", "", r"\[experiment\] summary_window must be >= 1$"),
    ("hard_quadratic", "[environment.sweep]\nmu_w = 1,0\n", "",
     r"\[environment.sweep\] mu_w-0: mu_w must be positive \(environment 'hard_quadratic'\)$"),
    # environment sizes and scales; each of these used to fail mid-run, hang
    # or run silently on a meaningless instance
    ("lqr", "[environment.args]\nn_x = 0\n", "",
     r"\[environment.args\] n_x must be >= 1 \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\nn_u = 0\n", "",
     r"\[environment.args\] n_u must be >= 1 \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\nr_weight = nan\n", "",
     r"\[environment.args\] r_weight must be positive: the model objective needs R > 0 \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\ninner_steps = 0\n", "",
     r"\[environment.args\] inner_steps must be >= 1 \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\ninner_step_size = 0\n", "",
     r"\[environment.args\] inner_step_size must be positive and finite \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\ninner_step_size = nan\n", "",
     r"\[environment.args\] inner_step_size must be positive and finite \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\ninner_step_size = inf\n", "",
     r"\[environment.args\] inner_step_size must be positive and finite \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\nnoise_std = -1\n", "",
     r"\[environment.args\] noise_std must be finite and >= 0 \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\nnoise_std = nan\n", "",
     r"\[environment.args\] noise_std must be finite and >= 0 \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\nb_scale = nan\n", "",
     r"\[environment.args\] b_scale must be finite and >= 0 \(environment 'lqr'\)$"),
    ("lqr", "[environment.args]\ninit_spread = -0.1\n", "",
     r"\[environment.args\] init_spread must be finite and >= 0 \(environment 'lqr'\)$"),
    ("hard_quadratic", "[environment.args]\nmu_w = nan\n", "",
     r"\[environment.args\] mu_w must be positive \(environment 'hard_quadratic'\)$"),
    ("hard_quadratic", "[environment.args]\na = nan\n", "",
     r"\[environment.args\] a must be finite \(environment 'hard_quadratic'\)$"),
    ("hard_quadratic", "[environment.args]\nbias = inf\n", "",
     r"\[environment.args\] bias must be finite \(environment 'hard_quadratic'\)$"),
    ("sinkhorn", "[environment.args]\nn = 0\n", "",
     r"\[environment.args\] n must be >= 1 \(environment 'sinkhorn'\)$"),
    ("sinkhorn", "[environment.args]\nfeature_dim = 0\n", "",
     r"\[environment.args\] feature_dim must be >= 1 \(environment 'sinkhorn'\)$"),
    ("sinkhorn", "[environment.args]\nregularization = nan\n", "",
     r"\[environment.args\] entropic regularization must be positive \(environment 'sinkhorn'\)$"),
    ("sinkhorn", "[environment.args]\ndrift_noise = nan\n", "",
     r"\[environment.args\] drift_noise must be finite and >= 0 \(environment 'sinkhorn'\)$"),
    ("grid_path", "[environment.args]\nheight = 0\n", "",
     r"\[environment.args\] height must be >= 1 \(environment 'grid_path'\)$"),
    ("grid_path", "[environment.args]\nwidth = 0\n", "",
     r"\[environment.args\] width must be >= 1 \(environment 'grid_path'\)$"),
    ("grid_path", "[environment.args]\nfeature_dim = 0\n", "",
     r"\[environment.args\] feature_dim must be >= 1 \(environment 'grid_path'\)$"),
    ("grid_path", "[environment.args]\nperturbation = nan\n", "",
     r"\[environment.args\] perturbation scale must be positive \(environment 'grid_path'\)$"),
    ("grid_path", "[environment.args]\ndrift_noise = -1\n", "",
     r"\[environment.args\] drift_noise must be finite and >= 0 \(environment 'grid_path'\)$"),
    ("grid_path", "[environment.args]\nfeature_noise = inf\n", "",
     r"\[environment.args\] feature_noise must be finite and >= 0 \(environment 'grid_path'\)$"),
    # seeds: a negative one used to end the run in numpy's ValueError
    ("hard_quadratic", "seeds = 0,-1\n", "",
     r"\[experiment\] seeds must be a non-empty list of seeds >= 0, got \[0, -1\]$"),
    ("hard_quadratic", "seeds =\n", "", r"\[experiment\] seeds must be a non-empty list of seeds >= 0, got \[\]$"),
    ("lqr", "[environment.args]\ntask_seed = -1\n", "",
     r"\[environment.args\] task_seed must be >= 0 \(environment 'lqr'\)$"),
    ("sinkhorn", "[environment.args]\ntask_seed = -1\n", "",
     r"\[environment.args\] task_seed must be >= 0 \(environment 'sinkhorn'\)$"),
    ("grid_path", "[environment.args]\ntask_seed = -1\n", "",
     r"\[environment.args\] task_seed must be >= 0 \(environment 'grid_path'\)$"),
    ("hard_quadratic", "[delay.late]\nd = -1\n", "", r"\[delay.late\] d must be >= 0$"),
    ("hard_quadratic", "[delay.late]\nsweep = 2,-1\n", "", r"\[delay.late\] sweep: d must be >= 0$"),
]


@pytest.mark.parametrize("environment, extra, algo_arg, message", VALUE_RANGES,
                         ids=["r_weight", "mu_w", "eta0", "schedule_mode", "delay_d", "delay_d_max",
                              "delay_lam_nan", "delay_lam_inf", "delay_lam_too_large", "delay_block_len", "delay_sweep",
                              "clip_norm_negative", "clip_norm_zero", "eta0_nan", "beta_damping_inf",
                              "stability_horizon", "stability_resolution", "stability_eta_lo",
                              "stability_delays", "stability_delays_repeated", "summary_window", "environment_sweep",
                              "lqr_n_x", "lqr_n_u", "lqr_r_weight_nan", "lqr_inner_steps", "lqr_inner_step_size_zero",
                              "lqr_inner_step_size_nan", "lqr_inner_step_size_inf", "lqr_noise_std_negative",
                              "lqr_noise_std_nan", "lqr_b_scale_nan",
                              "lqr_init_spread_negative", "hard_quadratic_mu_w_nan", "hard_quadratic_a_nan",
                              "hard_quadratic_bias_inf", "sinkhorn_n", "sinkhorn_feature_dim",
                              "sinkhorn_regularization_nan", "sinkhorn_drift_noise_nan",
                              "grid_path_height", "grid_path_width", "grid_path_feature_dim",
                              "grid_path_perturbation_nan", "grid_path_drift_noise_negative",
                              "grid_path_feature_noise_inf", "seeds_negative",
                              "seeds_empty", "lqr_task_seed", "sinkhorn_task_seed", "grid_path_task_seed",
                              "labelled_delay_d", "labelled_delay_sweep"])
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


def test_a_one_cell_grid_is_a_parse_time_error():
    # a 1 x 1 grid has one border cell, so a round could never draw a goal
    # distinct from its start; this test only parses, so it cannot hang
    text = ("[experiment]\nenvironment = grid_path\nrounds = 3\nout = unused\n"
            "[environment.args]\nheight = 1\nwidth = 1\n[algorithm.transport_omd]\n")
    with pytest.raises(ConfigError, match=r"^\[environment.args\] the grid needs height \* width >= 2 cells "
                                          r"for distinct endpoints \(environment 'grid_path'\)$"):
        parse_config(text)


def test_explicit_zero_rounds_is_not_the_default():
    cfg = parse_config(MINIMAL.format(out="unused"))
    with pytest.raises(ContractError, match="rounds must be >= 1"):
        run_one(cfg, cfg.algorithms[0], cfg.delays[0], 0, rounds=0)


ALGORITHM_ERRORS = [
    # the registry entry named by kind alone sets the gradient source and base rule
    ("lqr", "transport_omd", "base = dftrl", r"\[algorithm.transport_omd\] unknown key 'base'$"),
    ("lqr", "transport_omd", "gradient = stale", r"\[algorithm.transport_omd\] unknown key 'gradient'$"),
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


SCHEMA_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "config_schema.md")


def schema_table(after: str) -> list[list[str]]:
    """Body rows of the first table after the line ``after`` in
    docs/config_schema.md, cells stripped of spaces and backticks."""
    with open(SCHEMA_PATH, encoding="utf-8") as f:
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
    assert keys == list(_ALGORITHM_KEYS) == ["kind", "eta0", "beta_damping", "schedule_mode", "clip_norm"]
    entries = schema_table("The registry entries set these fields, and leave `eta0` at its default:")
    assert [row[0] for row in entries] == algorithm_names()
    for kind, gradient, base, mode, clip, damping in entries:
        algo = make_algorithm(kind)
        assert (algo.gradient, algo.base, algo.schedule_mode) == (gradient, base, mode), kind
        assert algo.clip_norm == (None if clip == "none" else float(clip)), kind
        assert algo.beta_damping == float(damping), kind


def test_config_schema_range_table_names_exactly_each_environment_configs_fields():
    with open(SCHEMA_PATH, encoding="utf-8") as f:
        section = f.read().split("## `[environment.args]`")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", section, re.MULTILINE)
    named = {env: set(re.findall(r"[a-z_]\w*", " ".join(re.findall(r"`([^`]+)`", ranges)))) for env, ranges in rows}
    assert named == {name: set(entry.fields) for name, entry in ENVIRONMENTS.items()}


def test_every_command_and_flag_the_docs_name_exists(capsys):
    from delayopt.cli import build_parser
    with open(SCHEMA_PATH, encoding="utf-8") as f:
        text = f.read()
    text += "\n".join(line for preset in PRESETS.values() for line in preset.splitlines() if line.startswith("#"))

    def subcommand(word):
        try:
            return build_parser().parse_args([word, "--preset", "k_sweep"]).command
        except SystemExit:  # argparse rejects an unknown subcommand
            return None

    named = set(re.findall(r"\bdelayopt ([a-z][a-z-]*)", text))
    assert {"run", "stability", "compare"} <= named
    assert {word: subcommand(word) for word in named} == {word: word for word in named}
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert set(re.findall(r"`(--[a-z][a-z-]*)", text)) <= options


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
    assert _int_list("1, 3 5", "--seeds") == [1, 3, 5]
    out = tmp_path / "out"
    assert main(["run", "--preset", "grid_delay_sweep", "--seeds", "0x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --seeds: expected a list of integers, got '0x'\n"
    cfg_path = tmp_path / "k.ini"
    cfg_path.write_text(PRESETS["k_sweep"].replace("inner_iterations = 1,3,5,10,20,50", "inner_iterations = 1,a"))
    assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: [environment.sweep] inner_iterations = 'a': expected int "
                                       "for environment 'sinkhorn'\n")
    assert not out.exists()


def test_environment_sweep_rejects_a_key_the_environment_lacks(tmp_path, capsys):
    from delayopt.cli import main
    text = MINIMAL.format(out=tmp_path / "k") + "[environment.sweep]\ninner_iterations = 1,3\n"
    message = "[environment.sweep] unknown key 'inner_iterations' for environment 'hard_quadratic'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    cfg_path = tmp_path / "k.ini"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "k").exists()


SWEPT = MINIMAL.replace("bias = 0.05\n", "").replace("d = 0", "d = 3").replace("seeds = 0", "seeds = 0,1")


@pytest.mark.parametrize("parallel", [1, 2])
def test_environment_sweep_runs_each_value_as_its_own_fixed_config(tmp_path, capsys, parallel):
    from delayopt.cli import main
    swept = tmp_path / "swept.ini"
    swept.write_text(SWEPT.format(out=tmp_path / "swept") + "[environment.sweep]\nbias = 0.05,0.2\n")
    assert main(["run", "--config", str(swept), "--parallel", str(parallel)]) == 0
    labels = [line for line in capsys.readouterr().out.splitlines() if line.startswith("-- ")]
    assert labels == ["-- bias-0.05", "-- bias-0.2"]
    for bias in ("0.05", "0.2"):
        fixed = tmp_path / f"fixed{bias}.ini"
        fixed.write_text(SWEPT.format(out=tmp_path / f"fixed{bias}")
                         .replace("[environment.args]\n", f"[environment.args]\nbias = {bias}\n"))
        assert main(["run", "--config", str(fixed)]) == 0
        expected = {p.relative_to(tmp_path / f"fixed{bias}"): p.read_bytes()
                    for p in sorted((tmp_path / f"fixed{bias}").rglob("*.csv"))}
        written = {p.relative_to(tmp_path / "swept" / f"bias-{bias}"): p.read_bytes()
                   for p in sorted((tmp_path / "swept" / f"bias-{bias}").rglob("*.csv"))}
        assert len(expected) == 1 + 2 and written == expected  # summary.csv and one run per seed
    assert sorted(os.listdir(tmp_path / "swept")) == ["bias-0.05", "bias-0.2"]


def test_environment_sweep_zips_its_keys_and_hashes_only_when_set():
    base = parse_config(SWEPT.format(out="res"))
    cfg = parse_config(SWEPT.format(out="res") + "[environment.sweep]\nbias = 0.05,0.2\nmu_w = 2,3\n")
    assert cfg.env_sweep == {"bias": [0.05, 0.2], "mu_w": [2, 3]}
    assert cfg.hash() != base.hash()
    (label_a, a), (label_b, b) = cfg.variants()
    assert (label_a, label_b) == ("bias-0.05__mu_w-2", "bias-0.2__mu_w-3")
    assert (a.env_args, a.env_sweep, a.out_dir) == ({"bias": 0.05, "mu_w": 2}, {}, os.path.join("res", label_a))
    assert b.hash() == dataclasses.replace(base, env_args={"bias": 0.2, "mu_w": 3}).hash()
    assert base.variants() == [("", base)]


def test_an_unexpanded_environment_sweep_refuses_to_run(tmp_path):
    cfg = load_preset("k_sweep")
    cfg.out_dir = str(tmp_path / "k")
    with pytest.raises(ConfigError, match=r"\[environment.sweep\] is set"):
        run_experiment(cfg)
    assert not (tmp_path / "k").exists()


def test_compare_needs_two_seeds_before_any_run(tmp_path, capsys):
    from delayopt.cli import main
    out = tmp_path / "cmp"
    assert main(["compare", "--preset", "controlled_comparison", "--seeds", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: [experiment] controlled comparison needs 2 or more seeds "
                                       "for a Welch test, got 1\n")
    assert not out.exists()
    cfg_path = tmp_path / "one_seed.ini"
    cfg_path.write_text(MINIMAL.format(out=out) + "[algorithm.transport_omd]\neta0 = 0.1\n"
                        "[compare]\ntreatment = transport_omd\ncontrol = stale_omd\n")
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (out / "summary.csv").exists()


def test_delay_patterns_preset_lists_the_three_matched_queue_processes():
    # the processes the retired delay-pattern command built from its base d = 20
    assert load_preset("delay_patterns").delays == [
        DelaySpec(kind="constant", d=20),
        DelaySpec(kind="uniform", d_max=2 * 20),
        DelaySpec(kind="bursty", d_high=2 * 20, block_len=10),
    ]


def test_delay_sections_run_in_file_order_under_their_describe_labels(tmp_path):
    text = (MINIMAL.format(out=tmp_path / "pat")
            .replace("[delay]\nkind = constant\nd = 0\n",
                     "[delay.wide]\nkind = uniform\nd_max = 6\n"
                     "[delay]\nkind = constant\nsweep = 3,1\n"
                     "[delay.bursts]\nkind = bursty\nd_high = 4\nblock_len = 2\n")
            .replace("seeds = 0", "seeds = 0,1"))
    labels = ["uniform:0-6", "constant:3", "constant:1", "bursty:2x4"]
    cfg = parse_config(text)
    assert [spec.describe() for spec in cfg.delays] == labels
    result = run_experiment(cfg)
    assert [row.delay for row in result.summary] == labels
    assert sorted(os.listdir(tmp_path / "pat" / "runs")) == sorted(
        run_filename(("stale_omd", label, seed)) for label in labels for seed in (0, 1))
    # each cell is the cell of a config that lists its process alone
    for spec in cfg.delays:
        alone = run_experiment(dataclasses.replace(cfg, delays=[spec]), write=False)
        for seed in (0, 1):
            key = ("stale_omd", spec.describe(), seed)
            assert alone.runs[key].delay_hash == result.runs[key].delay_hash
            np.testing.assert_array_equal(alone.runs[key].columns["true_loss"],
                                          result.runs[key].columns["true_loss"])


def test_a_config_with_no_delay_process_fails_validation_before_running(tmp_path):
    # a programmatic config with no delay process used to run no cell and
    # write a header-only summary.csv
    cfg = dataclasses.replace(parse_config(MINIMAL.format(out=tmp_path / "out")), delays=[])
    with pytest.raises(ConfigError, match=r"^\[delay\] at least one delay process is required$"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_cli_seed_override_is_range_checked_and_unique(tmp_path, capsys):
    from delayopt.cli import main
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out"))
    for seeds, message in (("0,0", "[experiment] seeds must be unique; 0 is repeated"),
                           ("3,-1", "[experiment] seeds must be a non-empty list of seeds >= 0, got [3, -1]")):
        assert main(["run", "--config", str(cfg_path), "--seeds", seeds]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["run", "--preset", "hard_instance_floor", "--parallel", "-3"],
                                  ["stability", "--preset", "lqr_stability", "--parallel", "0"]],
                         ids=["run-negative", "stability-zero"])
def test_cli_parallel_below_one_exits_2_before_running(tmp_path, capsys, argv):
    # a worker count below one used to run serially and exit 0
    from delayopt.cli import main
    out = tmp_path / "out"
    assert main([*argv, "--seeds", "0", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: --parallel must be >= 1, got {argv[-1]}\n")
    assert not out.exists()
