"""Experiment orchestration: seeded runs over (algorithm x delay x seed),
CSV emission, summary tables, stability sweeps, and controlled comparisons.

All CSV numbers are formatted with 9 significant digits and every file header
carries the config hash and seed, so identical configurations produce
byte-identical files and any run can be traced back to its settings.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from delayopt.config import ConfigError, DelaySpec, ExperimentConfig
from delayopt.core import InvariantError
from delayopt.environments import RoundMemo, make_environment
from delayopt.metrics import (
    eta_max_search,
    improvement_pct,
    mean_sd,
    p_value_display,
    welch_t,
)
from delayopt.optimizers import AlgorithmConfig
from delayopt.runner import ROW_COLUMNS, RunResult, run_online

FMT = "%.9g"


def _fmt(x: float) -> str:
    if x != x:  # NaN
        return ""
    return FMT % x


def _cells(values: Iterable) -> list[str]:
    """CSV cells: text as is, an int by ``str``, a float by ``_fmt``."""
    return [v if isinstance(v, str) else str(v) if isinstance(v, int) else _fmt(v) for v in values]


def _write_table(path: str, kind: str, meta: str, columns: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    """Write a table in one go: the ``kind`` and ``meta`` header lines, the
    column names and every row of cells, creating its directory if needed."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    lines = [f"# delayopt {kind} v1", f"# {meta}", ",".join(columns), *map(",".join, rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_filename(key: tuple[str, str, int]) -> str:
    """The run CSV's file name for the cell key ``(algorithm, delay label, seed)``."""
    algorithm, delay, seed = key
    return f"{algorithm}__{delay.replace(':', '-')}__seed{seed}.csv"


def run_regret(columns: dict[str, np.ndarray]) -> float:
    """A run's cumulative regret, or NaN when its last row is diverged: a
    diverged run stops early, so its sum covers fewer rounds than the others."""
    return math.nan if columns["diverged"][-1] else float(np.sum(columns["regret_inc"]))


def run_one(
    cfg: ExperimentConfig,
    algo: AlgorithmConfig,
    delay_spec: DelaySpec,
    seed: int,
    rounds: Optional[int] = None,
    memo: Optional[RoundMemo] = None,
) -> RunResult:
    """One cell; ``memo`` is the round memo its seed's cells share, if any."""
    if cfg.env_sweep:
        raise ConfigError("[environment.sweep] is set: run each of the config's variants(), not the config")
    env = make_environment(cfg.environment, seed=seed, memo=memo, **cfg.env_args)
    return run_online(env, algo, delay_spec.schedule(seed), cfg.rounds if rounds is None else rounds)


def _run_cell(args) -> tuple[tuple[str, str, int], RunResult]:
    cfg, algo, delay_spec, seed, memo = args
    res = run_one(cfg, algo, delay_spec, seed, memo=memo)
    return (algo.name, delay_spec.describe(), seed), res


def _experiment_cells(cfg: ExperimentConfig, share: bool) -> Iterable:
    """Every cell, seed-major. With ``share`` the cells of one seed get one
    fresh round memo, released once the next seed's cells begin."""
    for seed in cfg.seeds:
        memo = RoundMemo() if share else None
        for algo in cfg.algorithms:
            for spec in cfg.delays:
                yield cfg, algo, spec, seed, memo


def _map_cells(fn: Callable, cells: Iterable, parallel: int) -> Iterable:
    """``fn`` over ``cells`` in order. With ``parallel > 1`` the cells run on
    that many spawned worker processes and the results come as a list;
    otherwise they run lazily in this process, each as it is consumed."""
    if parallel > 1:
        # imported here: the pool modules take tens of ms to load, and a
        # serial run needs none of them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, cells))
    return map(fn, cells)


def write_run_csv(path: str, cfg: ExperimentConfig, key: tuple[str, str, int], res: RunResult) -> None:
    algorithm, delay, seed = key
    meta = (f"config_hash={cfg.hash()} seed={seed} algorithm={algorithm} delay={delay} "
            f"delay_hash={res.delay_hash} cap_hits={res.poisson_cap_hits} comparator={res.comparator_note!r}")
    # formatted column by column, then zipped into rows
    cells = [[_fmt(x) for x in res.columns[c].tolist()] for c in ROW_COLUMNS]
    _write_table(path, "run", meta, ROW_COLUMNS, zip(*cells))


@dataclass
class SummaryRow:
    algorithm: str
    delay: str
    seeds: int
    regret_mean: float
    regret_sd: float
    gap_window_mean: float
    drift_sq_total: float
    step_sq_total: float
    ratio: float
    diverged: int


SUMMARY_COLUMNS = tuple(f.name for f in dataclasses.fields(SummaryRow))


def summarize_cell(algorithm: str, delay: str, runs: list[dict[str, np.ndarray]], window: int) -> SummaryRow:
    """One summary row from the per-round columns of each run of a cell."""
    regrets = [run_regret(cols) for cols in runs]
    gaps = [float(np.mean(cols["opt_gap"][-window:])) for cols in runs]
    drift_totals = [float(np.sum(cols["drift_sq"])) for cols in runs]
    step_totals = [float(np.sum(cols["step_sq_sum"])) for cols in runs]
    ratios = [d / s for d, s in zip(drift_totals, step_totals) if s > 0]
    rm, rs = mean_sd(regrets)
    return SummaryRow(
        algorithm=algorithm, delay=delay, seeds=len(runs),
        regret_mean=rm, regret_sd=rs,
        # environments without a path oracle log all-NaN gaps
        gap_window_mean=float(np.nanmean(gaps)) if not np.all(np.isnan(gaps)) else float("nan"),
        drift_sq_total=float(np.mean(drift_totals)),
        step_sq_total=float(np.mean(step_totals)),
        ratio=float(np.mean(ratios)) if ratios else float("nan"),
        # a run that diverged stops on its first diverged round
        diverged=sum(1 for cols in runs if cols["diverged"][-1]),
    )


def _summary(cfg: ExperimentConfig, columns_of: Callable[[tuple[str, str, int]], dict]) -> list[SummaryRow]:
    """One summary row per (algorithm, delay) cell, in config order;
    ``columns_of`` gives the per-round columns of the run a key names."""
    rows: list[SummaryRow] = []
    for algo in cfg.algorithms:
        for spec in cfg.delays:
            delay = spec.describe()
            runs = [columns_of((algo.name, delay, seed)) for seed in cfg.seeds]
            rows.append(summarize_cell(algo.name, delay, runs, cfg.summary_window))
    return rows


@dataclass
class ExperimentResult:
    summary: list[SummaryRow]
    runs: dict[tuple[str, str, int], RunResult]


def run_experiment(cfg: ExperimentConfig, parallel: int = 1, write: bool = True) -> ExperimentResult:
    """Run every (algorithm, delay, seed) cell; write per-run CSVs and the
    summary table. Serial cells of one seed share its round memo; on worker
    processes each cell works alone. Output is independent of both."""
    cfg.validate()
    cells = _experiment_cells(cfg, share=parallel <= 1)
    results: dict[tuple[str, str, int], RunResult] = dict(_map_cells(_run_cell, cells, parallel))
    summary = _summary(cfg, lambda key: results[key].columns)
    if write:
        for key, res in sorted(results.items()):
            write_run_csv(os.path.join(cfg.out_dir, "runs", run_filename(key)), cfg, key, res)
        _write_table(os.path.join(cfg.out_dir, "summary.csv"), "summary",
                     f"config_hash={cfg.hash()} seeds={','.join(map(str, cfg.seeds))}",
                     SUMMARY_COLUMNS, (_cells(dataclasses.astuple(row)) for row in summary))
    return ExperimentResult(summary=summary, runs=results)


def print_summary(rows: Iterable[SummaryRow]) -> None:
    header = f"{'algorithm':<22} {'delay':<14} {'regret':>12} {'+-sd':>10} {'gap':>9} {'ratio':>8} {'div':>4}"
    lines = [header, "-" * len(header)]
    for r in rows:
        gap = "" if np.isnan(r.gap_window_mean) else f"{r.gap_window_mean:.4g}"
        ratio = "" if np.isnan(r.ratio) else f"{r.ratio:.4g}"
        lines.append(
            f"{r.algorithm:<22} {r.delay:<14} {r.regret_mean:>12.4f} {r.regret_sd:>10.4f} "
            f"{gap:>9} {ratio:>8} {r.diverged:>4d}"
        )
    print("\n".join(lines))


# -- stability sweep ----------------------------------------------------------


def stability_probe(cfg: ExperimentConfig, algo: AlgorithmConfig, d: int, horizon: int):
    """Stable iff no seed diverges within the horizon at the candidate step."""
    spec = DelaySpec(kind="constant", d=d)

    def is_stable(eta: float) -> bool:
        probe = dataclasses.replace(algo, eta0=eta)
        for seed in cfg.seeds:
            res = run_one(cfg, probe, spec, seed, rounds=horizon)
            if res.diverged:
                return False
        return True

    return is_stable


def _stability_cell(args) -> float:
    cfg, algo, d = args
    st = cfg.stability
    return eta_max_search(stability_probe(cfg, algo, d, st.horizon), st.eta_lo, st.eta_hi, st.resolution)


def run_stability_sweep(cfg: ExperimentConfig, parallel: int = 1, write: bool = True) -> list[tuple[str, int, float]]:
    """Bisect ``eta_max`` for every (algorithm, delay) pair; print each and
    write ``stability.csv``. The bisections are independent, so output is
    independent of worker scheduling."""
    if cfg.stability is None:
        raise ConfigError("stability sweep needs a [stability] section")
    st = cfg.stability
    cells = [(cfg, algo, d) for algo in cfg.algorithms for d in st.delays]
    etas = _map_cells(_stability_cell, cells, parallel)  # serial: each line prints as its bisection ends
    rows: list[tuple[str, int, float]] = []
    for (_, algo, d), eta in zip(cells, etas):
        rows.append((algo.name, d, eta))
        print(f"eta_max[{algo.name}, d={d}] = {eta:.6g}")
    if write:
        _write_table(os.path.join(cfg.out_dir, "stability.csv"), "stability",
                     f"config_hash={cfg.hash()} horizon={st.horizon} resolution={_fmt(st.resolution)}",
                     ("algorithm", "delay", "eta_max"), map(_cells, rows))
    return rows


# -- controlled comparison ----------------------------------------------------


@dataclass
class CompareRow:
    delay: str
    treatment_mean: float
    treatment_sd: float
    control_mean: float
    control_sd: float
    improvement_pct: float
    t_stat: float
    p_value: float


def run_controlled_comparison(cfg: ExperimentConfig, parallel: int = 1, write: bool = True,
                              experiment: Optional[ExperimentResult] = None) -> list[CompareRow]:
    """Treatment vs control regret per delay with Welch p-values.

    Delay realizations are paired per seed (the delay stream is seeded
    independently of everything else), verified by checking each arm's
    realized delay hash against its seed's stream over the rounds it played.
    A diverged run stops early, and its regret counts as NaN.
    """
    if cfg.compare is None:
        raise ConfigError("controlled comparison needs a [compare] section")
    if len(cfg.seeds) < 2:
        raise ConfigError("[experiment] controlled comparison needs 2 or more seeds for a Welch test, "
                          f"got {len(cfg.seeds)}")
    result = experiment or run_experiment(cfg, parallel=parallel, write=write)
    rows: list[CompareRow] = []
    for spec in cfg.delays:
        delay = spec.describe()
        tr, ctl = [], []
        for seed in cfg.seeds:
            for arm, regrets in ((cfg.compare.treatment, tr), (cfg.compare.control, ctl)):
                run = result.runs[(arm, delay, seed)]
                expected = spec.stream_hash(seed, run.rounds_logged)
                if run.delay_hash != expected:
                    raise InvariantError(f"paired-delay violation at seed {seed}, delay {delay}: "
                                         f"{arm} saw {run.delay_hash}, the stream gives {expected}")
                regrets.append(run_regret(run.columns))
        w = welch_t(tr, ctl)
        rows.append(CompareRow(
            delay=delay,
            treatment_mean=w.mean_a, treatment_sd=w.sd_a,
            control_mean=w.mean_b, control_sd=w.sd_b,
            # no percentage of a control regret <= 0: the cell is left empty
            improvement_pct=improvement_pct(w.mean_a, w.mean_b) if w.mean_b > 0 else math.nan,
            t_stat=w.t_stat, p_value=w.p_value,
        ))
    if write:
        _write_table(os.path.join(cfg.out_dir, "compare.csv"), "compare",
                     f"config_hash={cfg.hash()} treatment={cfg.compare.treatment} control={cfg.compare.control}",
                     (f.name for f in dataclasses.fields(CompareRow)),
                     (_cells({**dataclasses.asdict(r), "p_value": p_value_display(r.p_value)}.values())
                      for r in rows))
    for r in rows:
        improvement = "n/a" if math.isnan(r.improvement_pct) else f"{r.improvement_pct:+6.2f}%"
        print(
            f"{r.delay:<14} treatment {r.treatment_mean:9.3f}+-{r.treatment_sd:7.3f}  "
            f"control {r.control_mean:9.3f}+-{r.control_sd:7.3f}  "
            f"improvement {improvement}  p={p_value_display(r.p_value)}"
        )
    return rows


# -- csv round-trip -------------------------------------------------------------


def read_run_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    data = {h: [] for h in header}
    for ln in lines[1:]:
        for h, tok in zip(header, ln.split(",")):
            data[h].append(float(tok) if tok != "" else float("nan"))
    return {h: np.asarray(v) for h, v in data.items()}


def recompute_summary(cfg: ExperimentConfig) -> list[SummaryRow]:
    """Rebuild the summary from the emitted run CSVs (round-trip check)."""
    runs_dir = os.path.join(cfg.out_dir, "runs")
    return _summary(cfg, lambda key: read_run_csv(os.path.join(runs_dir, run_filename(key))))
