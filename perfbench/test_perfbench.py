"""Smoke tests of the benchmark itself, at the tiny input size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def run_tiny(workload: str, work_dir: Path, trace: bool = False, extra_options=None):
    result = run.run(workload, seed=3, seconds=0.5, trace=trace, work_dir=work_dir,
                     size="tiny", extra_options=extra_options)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    json.dumps(result)
    return result, {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, tmp_path):
    result, values = run_tiny(workload, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert values["ok_frac"] == 1.0
        assert all(value > 0 for value in values.values())


def _fault(kind, clear_after=None, retry=False):
    def extra(program):
        faults = program.faultinject
        spec = faults.FaultSpec(kind, benchmark="compress", part="dual_none",
                                clear_after=clear_after)
        options = {"fault_plan": faults.FaultPlan((spec,))}
        if retry:
            options["retry"] = program.retry.RetryPolicy(base_delay=0.0, jitter=0.0)
        return options

    return extra


def test_injected_trace_fault_is_counted_not_swallowed(tmp_path):
    result, values = run_tiny("table2_cold", tmp_path,
                              extra_options=_fault("truncate_trace"))
    assert not result["correct"]
    assert result["failed"] > 0
    assert values["ok_frac"] < 1.0


def test_retried_transient_fault_is_traced(tmp_path):
    # Dropped events stall the simulation (a transient error); the retry runs clean.
    result, values = run_tiny("table2_cold", tmp_path, trace=True,
                              extra_options=_fault("drop_events", 1, retry=True))
    assert result["correct"], result
    assert values["orchestration.retries"] == 1
    assert values["journal.records"] == 2


def test_traced_run_separates_the_layers(tmp_path):
    result, values = run_tiny("gym_sim", tmp_path, trace=True)
    assert result["correct"]
    assert values["compiler.compile_calls"] == 0
    assert values["cache.misses"] == 0 and values["cache.hits"] > 0
    assert values["gym.trial_calls"] > 0
    assert values["uarch.sim_instrs"] > 0


def test_tracer_records_a_call_that_raises():
    tracer = layertrace.LayerTracer()

    def fails():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: tracer.wrap("inner", fails)())
    with pytest.raises(ValueError):
        outer()
    inner, outer_span = tracer.collect()
    assert inner[2] == "inner" and inner[5] == {"error": "ValueError"}
    assert inner[1] == outer_span[0] and outer_span[5] == {"error": "ValueError"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
