#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2_cold --seed 7 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json);
``--trace 1`` runs the same timed loop untraced, then again with every
layer's entry points wrapped, and prints the per-layer metrics.  The
last line of standard output is always the result object; the exit code
is 0 only if every output checked out (1 if any part failed or
mismatched, 2 if the benchmark could not run at all).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import layertrace  # noqa: E402  (sibling module)
import loads  # noqa: E402

WORKLOADS = ("table2_cold", "gym_sim")
#: Set-up runs before the timed region and again after it, each time
#: until this many seconds are spent (and at least ``MIN_SETUPS`` times);
#: set-up time is the median of all of them.  The host's speed drifts
#: over tens of seconds, so the set-ups sample it at two times, not one.
SETUP_BUDGET_S = 3.0
MIN_SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kips": "kinstr/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "table2_err_pts": "pts",
}


def make_load(workload: str, seed: int, work_dir: Path, size: str = "full",
              extra_options=None):
    if workload == "gym_sim":
        return loads.GymLoad(size, seed)
    return loads.Table2Load(size, seed, work_dir, extra_options)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def set_up(load) -> tuple[object, list[float]]:
    """Set ``load`` up on freshly imported programs for ``SETUP_BUDGET_S``.

    Returns the last program and every set-up's duration.
    """
    times: list[float] = []
    while len(times) < MIN_SETUPS or sum(times) < SETUP_BUDGET_S:
        gc.collect()
        t0 = time.perf_counter()
        program = loads.import_program(SRC)
        load.setup(program)
        times.append(time.perf_counter() - t0)
    return program, times


def timed_loop(load, seconds: float, tracer=None) -> dict:
    """Run units while the next one fits in ``seconds`` (at least one); score each."""
    walls, cpus, kips, errs = [], [], [], []
    attempted = failed = 0
    spans = []
    journal_records = journal_bytes = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        result = load.run_unit()
        wall = time.perf_counter() - t0
        cpus.append(cpu_seconds() - cpu0)
        walls.append(wall)
        if tracer is not None:
            spans.extend(tracer.collect())
        records, size = load.journal_rows()
        journal_records += records
        journal_bytes += size
        score = load.score(result)
        kips.append(score.instrs / wall / 1000.0)
        errs.append(score.err_pts)
        attempted += score.attempted
        failed += score.failed
        problems.extend(score.problems)
        # Stop when another unit like this one would overrun ``seconds``.
        if time.perf_counter() - start + wall > seconds:
            break
    return {
        "walls": walls,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "sim_kips": statistics.median(kips),
        "table2_err_pts": statistics.median(errs),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "spans": spans,
        "journal_records": journal_records,
        "journal_bytes": journal_bytes,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        size: str = "full", extra_options=None) -> dict:
    """One benchmark run; returns the result object."""
    load = make_load(workload, seed, work_dir, size, extra_options)
    _, setups = set_up(load)
    plain = timed_loop(load, seconds)
    peak_rss_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    program, more = set_up(load)
    setups += more
    loops = [plain]
    if trace:
        tracer = layertrace.LayerTracer()
        layertrace.install(tracer, program)
        try:
            loops.append(timed_loop(load, seconds, tracer=tracer))
        finally:
            tracer.uninstall()
    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    problems = [p for loop in loops for p in loop["problems"]]

    if trace:
        traced = loops[1]
        metrics = layertrace.layer_metrics(
            traced["spans"],
            walls=traced["walls"],
            untraced_wall_s=plain["wall_s"],
            journal_records=traced["journal_records"],
            journal_bytes=traced["journal_bytes"],
        )
        unit_of = layertrace.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": plain["wall_s"],
            "sim_kips": plain["sim_kips"],
            "cpu_s": plain["cpu_s"],
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "table2_err_pts": plain["table2_err_pts"],
        }
        unit_of = END_TO_END
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=loads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="repeat the workload's unit while another one fits "
                             "in this many seconds (at least one unit)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = ROOT / ".perfbench" / f"run-{args.workload}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
