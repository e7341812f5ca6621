"""Golden compile fingerprints for every Table 2 benchmark.

Each case compiles one benchmark for one register assignment, either as
the cluster-oblivious native binary or with the local scheduler, and
checks it against ``compile_golden.json``:

* the SHA-256 of ``machine.format()`` (the whole allocated listing);
* ``spill_loads`` / ``spill_stores`` and ``allocation.iterations``;
* ``partition_by_value``.

A second table pins the ``profile_count`` that
:func:`~repro.compiler.profiling.profile_analytically` writes for every
block of every benchmark.

Any behaviour change in the compiler (web construction, profiling,
partitioning, allocation, scheduling) shows here as a mismatch.  An
intended change is re-baselined with::

    PYTHONPATH=src python -m tests.compiler.test_compile_golden --write
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.compiler.pipeline import compile_program
from repro.compiler.profiling import profile_analytically
from repro.core.partition.local import LocalScheduler
from repro.core.registers import RegisterAssignment
from repro.workloads.spec92 import SPEC92, build_benchmark

GOLDEN_PATH = Path(__file__).with_name("compile_golden.json")

ASSIGNMENTS = {
    "even_odd_dual": RegisterAssignment.even_odd_dual,
    "round_robin3": lambda: RegisterAssignment.round_robin(3),
}
PARTITIONERS = ("native", "local")
CASES = [
    (bench, assignment, partitioner)
    for bench in sorted(SPEC92)
    for assignment in ASSIGNMENTS
    for partitioner in PARTITIONERS
]


def case_id(bench: str, assignment: str, partitioner: str) -> str:
    return f"{bench}/{assignment}/{partitioner}"


@lru_cache(maxsize=None)
def _program(bench: str):
    return build_benchmark(bench).program


def compile_fingerprint(bench: str, assignment: str, partitioner: str) -> dict:
    regs = ASSIGNMENTS[assignment]()
    scheduler = (
        LocalScheduler(num_clusters=regs.num_clusters) if partitioner == "local" else None
    )
    result = compile_program(_program(bench), regs, partitioner=scheduler)
    return {
        "machine_sha256": hashlib.sha256(result.machine.format().encode()).hexdigest(),
        "spill_loads": result.spill_loads,
        "spill_stores": result.spill_stores,
        "iterations": result.allocation.iterations,
        "partition_by_value": {
            str(vid): cluster for vid, cluster in sorted(result.partition_by_value.items())
        },
    }


def profile_counts(bench: str) -> dict[str, int]:
    program = copy.deepcopy(_program(bench))
    profile_analytically(program)
    return {label: program.cfg.block(label).profile_count for label in program.cfg.labels()}


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "bench,assignment,partitioner", CASES, ids=[case_id(*c) for c in CASES]
)
def test_compile_fingerprint_matches_golden(bench, assignment, partitioner):
    expected = _golden()["compile"][case_id(bench, assignment, partitioner)]
    assert compile_fingerprint(bench, assignment, partitioner) == expected


@pytest.mark.parametrize("bench", sorted(SPEC92))
def test_profile_counts_match_golden(bench):
    assert profile_counts(bench) == _golden()["profile_counts"][bench]


def write_golden() -> None:
    golden = {
        "compile": {case_id(*c): compile_fingerprint(*c) for c in CASES},
        "profile_counts": {bench: profile_counts(bench) for bench in sorted(SPEC92)},
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.compiler.test_compile_golden --write")
    write_golden()
