"""Experiment orchestration: seeded runs over (algorithm x delay x seed),
CSV emission, summary tables, stability sweeps, and controlled comparisons.

All CSV numbers are formatted with 9 significant digits and every file header
carries the config hash and seed, so identical configurations produce
byte-identical files and any run can be traced back to its settings.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from delayopt.config import ConfigError, DelaySpec, ExperimentConfig
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
    if isinstance(x, float) and np.isnan(x):
        return ""
    return FMT % x


@dataclass
class RunKey:
    algorithm: str
    delay: str
    seed: int

    def filename(self) -> str:
        delay = self.delay.replace(":", "-")
        return f"{self.algorithm}__{delay}__seed{self.seed}.csv"


def run_one(
    cfg: ExperimentConfig,
    algo: AlgorithmConfig,
    delay_spec: DelaySpec,
    seed: int,
    rounds: Optional[int] = None,
    memo: Optional[RoundMemo] = None,
) -> RunResult:
    """One cell; ``memo`` is the round memo its seed's cells share, if any."""
    env = make_environment(cfg.environment, seed=seed, memo=memo, **cfg.env_args)
    schedule = delay_spec.schedule(seed)
    return run_online(env, algo, schedule, rounds or cfg.rounds)


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
        with ProcessPoolExecutor(max_workers=parallel, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, cells))
    return map(fn, cells)


def write_run_csv(path: str, cfg: ExperimentConfig, key: RunKey, res: RunResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# delayopt run v1\n")
        fh.write(
            f"# config_hash={cfg.hash()} seed={key.seed} algorithm={key.algorithm} "
            f"delay={key.delay} delay_hash={res.delay_hash} cap_hits={res.poisson_cap_hits} "
            f"comparator={res.comparator_note!r}\n"
        )
        fh.write(",".join(ROW_COLUMNS) + "\n")
        cols = res.columns
        for i in range(res.rounds_logged):
            fh.write(",".join(_fmt(float(cols[c][i])) for c in ROW_COLUMNS) + "\n")


SUMMARY_COLUMNS = (
    "algorithm", "delay", "seeds", "regret_mean", "regret_sd", "gap_window_mean",
    "drift_sq_total", "step_sq_total", "ratio", "diverged",
)


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

    def as_csv(self) -> str:
        return ",".join([
            self.algorithm, self.delay, str(self.seeds),
            _fmt(self.regret_mean), _fmt(self.regret_sd), _fmt(self.gap_window_mean),
            _fmt(self.drift_sq_total), _fmt(self.step_sq_total), _fmt(self.ratio),
            str(self.diverged),
        ])


def summarize_cell(algorithm: str, delay: str, runs: list[dict[str, np.ndarray]], window: int) -> SummaryRow:
    """One summary row from the per-round columns of each run of a cell."""
    regrets = [float(np.sum(cols["regret_inc"])) for cols in runs]
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


@dataclass
class ExperimentResult:
    summary: list[SummaryRow]
    runs: dict[tuple[str, str, int], RunResult]
    out_dir: str


def run_experiment(cfg: ExperimentConfig, parallel: int = 1, write: bool = True) -> ExperimentResult:
    """Run every (algorithm, delay, seed) cell; write per-run CSVs and the
    summary table. Serial cells of one seed share its round memo; on worker
    processes each cell works alone. Output is independent of both."""
    cfg.validate()
    cells = _experiment_cells(cfg, share=parallel <= 1)
    results: dict[tuple[str, str, int], RunResult] = dict(_map_cells(_run_cell, cells, parallel))

    summary: list[SummaryRow] = []
    for algo in cfg.algorithms:
        for spec in cfg.delays:
            delay = spec.describe()
            runs = [results[(algo.name, delay, s)].columns for s in cfg.seeds]
            summary.append(summarize_cell(algo.name, delay, runs, cfg.summary_window))

    if write:
        runs_dir = os.path.join(cfg.out_dir, "runs")
        os.makedirs(runs_dir, exist_ok=True)
        for (alg, delay, seed), res in sorted(results.items()):
            key = RunKey(alg, delay, seed)
            write_run_csv(os.path.join(runs_dir, key.filename()), cfg, key, res)
        with open(os.path.join(cfg.out_dir, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# delayopt summary v1\n")
            fh.write(f"# config_hash={cfg.hash()} seeds={','.join(map(str, cfg.seeds))}\n")
            fh.write(",".join(SUMMARY_COLUMNS) + "\n")
            for row in summary:
                fh.write(row.as_csv() + "\n")
    return ExperimentResult(summary=summary, runs=results, out_dir=cfg.out_dir)


def print_summary(rows: Iterable[SummaryRow]) -> str:
    header = f"{'algorithm':<22} {'delay':<14} {'regret':>12} {'+-sd':>10} {'gap':>9} {'ratio':>8} {'div':>4}"
    lines = [header, "-" * len(header)]
    for r in rows:
        gap = "" if np.isnan(r.gap_window_mean) else f"{r.gap_window_mean:.4g}"
        ratio = "" if np.isnan(r.ratio) else f"{r.ratio:.4g}"
        lines.append(
            f"{r.algorithm:<22} {r.delay:<14} {r.regret_mean:>12.4f} {r.regret_sd:>10.4f} "
            f"{gap:>9} {ratio:>8} {r.diverged:>4d}"
        )
    text = "\n".join(lines)
    print(text)
    return text


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
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "stability.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# delayopt stability v1\n")
            fh.write(f"# config_hash={cfg.hash()} horizon={st.horizon} resolution={_fmt(st.resolution)}\n")
            fh.write("algorithm,delay,eta_max\n")
            for name, d, eta in rows:
                fh.write(f"{name},{d},{_fmt(eta)}\n")
    return rows


# -- controlled comparison ----------------------------------------------------


@dataclass
class CompareRow:
    delay: str
    treatment_mean: float
    treatment_sd: float
    control_mean: float
    control_sd: float
    improvement: float
    t_stat: float
    p_value: float


def run_controlled_comparison(cfg: ExperimentConfig, parallel: int = 1, write: bool = True,
                              experiment: Optional[ExperimentResult] = None) -> list[CompareRow]:
    """Treatment vs control regret per delay with Welch p-values.

    Delay realizations are paired per seed (the delay stream is seeded
    independently of everything else), verified by comparing realized delay
    hashes between the two arms.
    """
    if cfg.compare is None:
        raise ConfigError("controlled comparison needs a [compare] section")
    result = experiment or run_experiment(cfg, parallel=parallel, write=write)
    rows: list[CompareRow] = []
    for spec in cfg.delays:
        delay = spec.describe()
        tr, ctl = [], []
        for seed in cfg.seeds:
            a = result.runs[(cfg.compare.treatment, delay, seed)]
            b = result.runs[(cfg.compare.control, delay, seed)]
            if a.delay_hash != b.delay_hash:
                raise AssertionError(
                    f"paired-delay violation at seed {seed}, delay {delay}: "
                    f"{a.delay_hash} != {b.delay_hash}"
                )
            tr.append(a.cumulative_regret)
            ctl.append(b.cumulative_regret)
        w = welch_t(tr, ctl)
        rows.append(CompareRow(
            delay=delay,
            treatment_mean=w.mean_a, treatment_sd=w.sd_a,
            control_mean=w.mean_b, control_sd=w.sd_b,
            improvement=improvement_pct(w.mean_a, w.mean_b),
            t_stat=w.t_stat, p_value=w.p_value,
        ))
    if write:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "compare.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# delayopt compare v1\n")
            fh.write(
                f"# config_hash={cfg.hash()} treatment={cfg.compare.treatment} "
                f"control={cfg.compare.control}\n"
            )
            fh.write("delay,treatment_mean,treatment_sd,control_mean,control_sd,improvement_pct,t_stat,p_value\n")
            for r in rows:
                fh.write(
                    f"{r.delay},{_fmt(r.treatment_mean)},{_fmt(r.treatment_sd)},"
                    f"{_fmt(r.control_mean)},{_fmt(r.control_sd)},{_fmt(r.improvement)},"
                    f"{_fmt(r.t_stat)},{p_value_display(r.p_value)}\n"
                )
    for r in rows:
        print(
            f"{r.delay:<14} treatment {r.treatment_mean:9.3f}+-{r.treatment_sd:7.3f}  "
            f"control {r.control_mean:9.3f}+-{r.control_sd:7.3f}  "
            f"improvement {r.improvement:+6.2f}%  p={p_value_display(r.p_value)}"
        )
    return rows


# -- auxiliary sweeps ----------------------------------------------------------


def run_k_sweep(cfg: ExperimentConfig, k_values: list[int], parallel: int = 1,
                write: bool = True) -> list[tuple[int, list[CompareRow]]]:
    """Inner-iteration sweep: repeat the controlled comparison while varying
    the environment's inner solver budget."""
    out: list[tuple[int, list[CompareRow]]] = []
    for k in k_values:
        sub = dataclasses.replace(
            cfg,
            env_args={**cfg.env_args, "inner_iterations": k},
            out_dir=os.path.join(cfg.out_dir, f"k{k}"),
        )
        sub.validate()
        print(f"-- inner iterations K={k}")
        out.append((k, run_controlled_comparison(sub, parallel=parallel, write=write)))
    return out


def run_delay_patterns(cfg: ExperimentConfig, parallel: int = 1, write: bool = True) -> ExperimentResult:
    """Compare delay patterns with matched mean queue length (constant,
    uniform, bursty). The base config's single constant delay d >= 1 sets
    the mean queue length."""
    if len(cfg.delays) != 1 or cfg.delays[0].kind != "constant" or cfg.delays[0].d < 1:
        raise ConfigError("[delay] delay-patterns needs a single constant delay with d >= 1, "
                          f"got {', '.join(spec.describe() for spec in cfg.delays)}")
    mean_queue = cfg.delays[0].d
    patterns = [
        DelaySpec(kind="constant", d=mean_queue),
        DelaySpec(kind="uniform", d_max=2 * mean_queue),
        DelaySpec(kind="bursty", d_high=2 * mean_queue, block_len=10),
    ]
    sub = dataclasses.replace(cfg, delays=patterns)
    result = run_experiment(sub, parallel=parallel, write=write)
    print_summary(result.summary)
    return result


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
    rows: list[SummaryRow] = []
    runs_dir = os.path.join(cfg.out_dir, "runs")
    for algo in cfg.algorithms:
        for spec in cfg.delays:
            delay = spec.describe()
            cell_runs = [read_run_csv(os.path.join(runs_dir, RunKey(algo.name, delay, seed).filename()))
                         for seed in cfg.seeds]
            rows.append(summarize_cell(algo.name, delay, cell_runs, cfg.summary_window))
    return rows
