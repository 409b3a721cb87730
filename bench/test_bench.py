"""Smoke tests of the benchmark at tiny size.

    python3 -m pytest bench -q

Every workload runs untraced and traced; each must report every metric named
in BENCHMARK.json with its unit, pass its output checks, and leave no wrapper
behind.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import instrument  # noqa: E402
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

REPORTED = ("setup_s", "rounds_per_s", "round_ms.p50", "round_ms.p99", "loss_per_round",
            "error_ratio", "arrival_skip_ratio", "peak_rss_mb")


def _class_state():
    """Attribute dicts of every class whose instances the tracer wraps."""
    from delayopt import delays, environments, optimizers

    classes = (environments.SinkhornProblem, environments.GridPathProblem,
               environments.LQRProblem, environments.HardQuadraticProblem,
               optimizers.TransportEngine, optimizers.StaleArrivalEngine, optimizers.TwoStageEngine,
               optimizers.PlainGD, optimizers.Adam, optimizers.LazyFTRL,
               delays.DelaySchedule, delays.DelayQueue)
    return {cls: dict(vars(cls)) for cls in classes}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    bindings, classes = instrument.module_bindings(), _class_state()
    out = measure.run(name, seed=0, seconds=0, trace=trace, size="tiny", setup_probes=1)

    after = instrument.module_bindings()
    assert all(after[k] is v for k, v in bindings.items()), "a module binding was not restored"
    assert _class_state() == classes, "a class attribute was changed"

    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out["report"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for metric in REPORTED:
        assert any(line.startswith(f"{metric} ") and " n=" in line for line in out["report"]), metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_mismatch_fails_the_runs_it_covers(name, tmp_path):
    workload = WORKLOADS[name]
    call = measure.run_call(workload, 0, "tiny", str(tmp_path))
    assert not call.failures
    reference = workload.observe(call.cfg, call.output, call.runs)
    measure.check_against(workload, call, reference)
    assert not call.failures
    shifted = {k: v + 0.01 * abs(v) + 2 * call.cfg.stability.resolution if call.cfg.stability else v * 1.01
               for k, v in reference.items()}
    measure.check_against(workload, call, shifted)
    assert len(call.failures) == len(reference)
    assert sum(f.runs for f in call.failures) == len(call.runs)


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "lqr_stability", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
