#!/usr/bin/env python3
"""Steadiness runs: every workload under several seeds, with quartile spreads.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads gym_sim]
        [--baseline perfbench/baseline.json --set first]

Runs the command of BENCHMARK.json once per (workload, seed), one
workload's runs back to back.  For each end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread — the distance between the quartiles as a share of the median —
next to the metric's bound.  ``--baseline`` records those figures as set
``--set`` of a JSON file, with the Python version and CPU count, keeping
the file's other sets; once it holds two sets it also records, for each
metric, how far the second set's median lies from the first's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--set", default="first",
                        help="name of this set of runs in the --baseline file")
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    run_s: dict[str, list[float]] = {w: [] for w in args.workloads}
    for workload in args.workloads:
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            start = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            run_s[workload].append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                print(f"steady: {workload} seed {seed} failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload:<13} seed {seed:<4} {run_s[workload][-1]:6.1f} s  " + "  ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {"runs": len(args.seeds),
                             "run_s_median": statistics.median(run_s[workload])}
        for name, series in metrics.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {
                "median": statistics.median(series), "q1": q1, "q3": q3, "spread": spread,
            }
            flag = "" if spread < bounds[name] / 3 else "  <-- not below a third of the bound"
            print(f"{workload:<13} {name:<15} median {statistics.median(series):10.4g}  "
                  f"q1 {q1:10.4g}  q3 {q3:10.4g}  spread {spread:.3f}  "
                  f"bound {bounds[name]}{flag}")
    if args.baseline:
        record = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        record.update({
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
        })
        record.setdefault("sets", {})[args.set] = summary
        sets = list(record["sets"].values())
        if len(sets) >= 2:
            record["second_vs_first"] = {
                workload: {
                    name: sets[1][workload][name]["median"] / figures["median"] - 1.0
                    for name, figures in metrics.items()
                    if isinstance(figures, dict) and figures["median"]
                }
                for workload, metrics in sets[0].items()
                if workload in sets[1]
            }
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
