"""The benchmark's workloads: set-up, one unit of work, and its checks.

Each workload is a closed loop over one *unit* — a whole Table 2 sweep,
or one batch of gym design points — so the next unit starts only when
the previous one has finished, and all load comes from this one
process.  The program runs with its defaults (reference engine, serial
sweep); only the seeded inputs and the sizes below are chosen here.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: The seed at which outputs are checked against ``golden.json``.
DEFAULT_SEED = 7

ALL_BENCHMARKS = ("compress", "doduc", "gcc1", "ora", "su2cor", "tomcatv")
#: The gym batch leaves out gcc1: its native compile alone (~10 s) would
#: make the gym's set-up too long to repeat within a run, and gcc1's
#: compile is what the two table2 workloads measure.
GYM_BENCHMARKS = ("compress", "doduc", "ora", "su2cor", "tomcatv")
PARTS = ("single", "dual_none", "dual_local")

#: The modules whose functions the workloads call or the traced run wraps.
PROGRAM_MODULES = {
    "errors": "repro.errors",
    "harness": "repro.experiments.harness",
    "table2": "repro.experiments.table2",
    "spec92": "repro.workloads.spec92",
    "tracegen": "repro.workloads.tracegen",
    "pipeline": "repro.compiler.pipeline",
    "regalloc": "repro.compiler.regalloc",
    "local": "repro.core.partition.local",
    "cache": "repro.perf.cache",
    "fingerprint": "repro.perf.fingerprint",
    "fitness": "repro.gym.fitness",
    "space": "repro.gym.space",
    "faultinject": "repro.robustness.faultinject",
    "journal": "repro.robustness.journal",
    "retry": "repro.robustness.retry",
}


@dataclass(frozen=True)
class Size:
    table2_benchmarks: tuple[str, ...]
    table2_trace: int
    gym_benchmarks: tuple[str, ...]
    gym_trace: int


SIZES = {
    "full": Size(ALL_BENCHMARKS, 6000, GYM_BENCHMARKS, 1000),
    # Smoke-test size: seconds, not minutes; never checked against golden.
    "tiny": Size(("compress", "ora"), 400, ("ora",), 300),
}


def import_program(src: Path) -> SimpleNamespace:
    """Import the program afresh from ``src`` (part of every set-up)."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    program = SimpleNamespace(
        **{key: importlib.import_module(mod) for key, mod in PROGRAM_MODULES.items()}
    )
    origin = Path(program.harness.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"repro was imported from {origin}, not from {src}")
    return program


@dataclass
class Score:
    """What one unit did and how much of it was right."""

    instrs: int
    attempted: int
    failed: int
    err_pts: float
    problems: list[str]


def _load_golden(key: str, size_name: str, seed: int):
    if size_name != "full" or seed != DEFAULT_SEED or not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text())[key]


def part_signature(program, sim) -> dict:
    return {
        "cycles": sim.stats.cycles,
        "fingerprint": program.fingerprint.fingerprint(sim.stats.as_dict()),
    }


class Table2Load:
    """Serial ``run_table2`` over every benchmark and part, no shared cache.

    Every sweep gets a fresh journal run directory (the ``--resume``
    path), so each finished row is pickled and journaled with fsync
    before the sweep moves on, and each part runs through the program's
    retrying task runner.
    """

    def __init__(self, size_name: str, seed: int, work_dir: Path,
                 extra_options=None) -> None:
        size = SIZES[size_name]
        self.benchmarks = size.table2_benchmarks
        self.trace_length = size.table2_trace
        self.seed = seed
        self.work_dir = work_dir
        #: ``program -> {EvaluationOptions field: value}``, applied at every
        #: set-up (the benchmark's own tests inject faults this way).
        self.extra_options = extra_options
        self.golden = _load_golden("table2", size_name, seed)
        self.first: dict | None = None
        self.units = 0
        self.run_dir: Path | None = None

    def setup(self, program) -> None:
        self.program = program
        for name in self.benchmarks:
            program.spec92.SPEC92[name]()
        extra = self.extra_options(program) if self.extra_options else {}
        self.options = program.harness.EvaluationOptions(
            trace_length=self.trace_length, trace_seed=self.seed, **extra)

    def run_unit(self):
        self.units += 1
        self.run_dir = self.work_dir / f"journal-{self.units}"
        return self.program.table2.run_table2(
            self.benchmarks, self.options, str(self.run_dir))

    def journal_rows(self) -> tuple[int, int]:
        """Row records in the last sweep's journal, and their bytes."""
        records = size = 0
        with open(self.run_dir / "journal.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if self.program.journal.parse_journal_line(line)[0] == "row":
                    records += 1
                    size += len(line.encode())
        return records, size

    def score(self, result) -> Score:
        signatures = {
            row.benchmark: {
                part: part_signature(self.program, getattr(row.evaluation, part))
                for part in PARTS
            }
            for row in result.rows
        }
        if self.first is None:
            self.first = signatures
        failed, instrs, problems = 0, 0, []
        for failure in result.failures:
            failed += len(PARTS)
            problems.append(f"{failure.benchmark}: {failure.error_type}: {failure.message}")
        for row in result.rows:
            for part in PARTS:
                sim = getattr(row.evaluation, part)
                instrs += sim.stats.instructions
                where = f"{row.benchmark}/{part}"
                got = signatures[row.benchmark][part]
                if sim.stats.instructions != self.trace_length:
                    problems.append(f"{where} retired {sim.stats.instructions} "
                                    f"of {self.trace_length} instructions")
                elif self.golden and got != self.golden["rows"][row.benchmark][part]:
                    problems.append(f"{where} differs from golden.json: {got}")
                elif got != self.first.get(row.benchmark, {}).get(part):
                    problems.append(f"{where} differs between sweeps of one run")
                else:
                    continue
                failed += 1
        gaps = [
            gap
            for row in result.rows
            for gap in (abs(row.pct_none - row.paper_none),
                        abs(row.pct_local - row.paper_local))
        ]
        return Score(
            instrs=instrs,
            attempted=len(self.benchmarks) * len(PARTS),
            failed=failed,
            err_pts=sum(gaps) / len(gaps) if gaps else 0.0,
            problems=problems,
        )


class GymLoad:
    """A seeded batch of gym trials scored by ``evaluate_point``.

    Each trial scores one design point on one benchmark (``GymSettings``
    naming that benchmark alone).  Set-up computes each benchmark's 1x8
    baseline, which compiles and traces it into one shared
    ``ArtifactCache``; every trial after that is a cache hit for compile
    and trace, so the timed region is almost all simulation.

    Every benchmark is scored on the paper's 2x4 machine, on a sampled
    single-cluster point, and on ``POINTS_PER_STRATUM`` sampled 2-4
    cluster points for every (transfer-buffer size, dispatch-queue size)
    pair, the cluster counts dealt out evenly by the seeded RNG.  Those
    three axes set most of a trial's host cost (small buffers replay, and
    each replay scans the queues): a batch of a few plain samples let one
    seed cost half again as much as another, and one point per pair still
    left about 10% between seeds, so the batch is many one-benchmark
    trials, stratified on those axes, while every value of every axis is
    drawn.
    """

    POINTS_PER_STRATUM = 2

    def __init__(self, size_name: str, seed: int) -> None:
        size = SIZES[size_name]
        self.benchmarks = size.gym_benchmarks
        self.trace_length = size.gym_trace
        self.seed = seed
        self.golden = _load_golden("gym", size_name, seed)
        self.retired: list[int] = []

    def setup(self, program) -> None:
        self.program = program
        fitness, space = program.fitness, program.space
        self.settings = {
            name: fitness.GymSettings(benchmarks=(name,), trace_length=self.trace_length)
            for name in self.benchmarks
        }
        self.cache = program.cache.ArtifactCache()
        self.baselines = {
            name: fitness.compute_baseline(settings, self.cache)
            for name, settings in self.settings.items()
        }
        rng = random.Random(self.seed)
        full = space.DesignSpace()
        strata = list(itertools.product(full.buffer_entries, full.queue_entries))
        strata *= self.POINTS_PER_STRATUM
        self.trials = [(space.PAPER_DUAL_POINT, name) for name in self.benchmarks]
        for name in self.benchmarks:
            counts = [2, 3, 4] * -(-len(strata) // 3)
            rng.shuffle(counts)
            self.trials.append(
                (space.DesignSpace(min_clusters=1, max_clusters=1).sample(rng), name))
            self.trials += [
                (space.DesignSpace(min_clusters=n, max_clusters=n,
                                   buffer_entries=(entries,),
                                   queue_entries=(queue,)).sample(rng), name)
                for (entries, queue), n in zip(strata, counts)
            ]
        # Every simulation's retired-instruction count, for the check.
        harness = program.harness
        simulate = harness.simulate

        def observed(*args, **kwargs):
            result = simulate(*args, **kwargs)
            self.retired.append(result.stats.instructions)
            return result

        harness.simulate = observed

    def run_unit(self):
        self.retired = []
        results = []
        for point, name in self.trials:
            try:
                results.append(self.program.fitness.evaluate_point(
                    point, self.settings[name], self.baselines[name], self.cache))
            except self.program.errors.ReproError as error:
                results.append(error)
        return results

    def journal_rows(self) -> tuple[int, int]:
        return 0, 0

    def cycles(self, results) -> dict:
        """``slug@benchmark`` -> simulated cycles, as ``golden.json`` keeps them."""
        return {
            f"{point.slug}@{name}": result.cycles[name]
            for (point, name), result in zip(self.trials, results)
            if not isinstance(result, Exception)
        }

    def score(self, results) -> Score:
        failed, problems = 0, []
        cycles = self.cycles(results)
        for (point, name), result in zip(self.trials, results):
            key = f"{point.slug}@{name}"
            if isinstance(result, Exception):
                failed += 1
                problems.append(f"{key}: {type(result).__name__}: {result}")
            elif self.golden and cycles[key] != self.golden["trials"].get(key):
                failed += 1
                problems.append(f"{key} differs from golden.json: {cycles[key]}")
        short = [n for n in self.retired if n != self.trace_length]
        if short:
            failed += len(short)
            problems.append(f"{len(short)} simulations retired other than "
                            f"{self.trace_length} instructions: {short[:5]}")
        baseline = {name: b.cycles[name] for name, b in self.baselines.items()}
        if self.golden and baseline != self.golden["baseline"]:
            failed += len(self.benchmarks)
            problems.append(f"baseline differs from golden.json: {baseline}")
        # The paper's 2x4 point against Table 2's "none" column.
        dual = [
            (name, cycles.get(f"{self.trials[i][0].slug}@{name}"))
            for i, name in enumerate(self.benchmarks)
        ]
        gaps = [
            abs(100.0 - 100.0 * dual_cycles / baseline[name]
                - self.program.spec92.PAPER_TABLE2[name][0])
            for name, dual_cycles in dual
            if dual_cycles is not None
        ]
        return Score(
            instrs=sum(self.retired),
            attempted=len(self.trials),
            failed=failed,
            err_pts=sum(gaps) / len(gaps) if gaps else 0.0,
            problems=problems,
        )
