"""Experiment E10 and the DESIGN.md ablations.

The paper evaluated both 4-way and 8-way machines but printed only the
8-way results ("these more clearly show the important trends");
:func:`run_issue_width_ablation` reproduces the 4-way companion.  The
remaining sweeps probe the design choices DESIGN.md calls out: the local
scheduler's imbalance threshold, transfer-buffer depth, partitioner
choice, and the architectural-register-to-cluster map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.partition import (
    AffinityPartitioner,
    LocalScheduler,
    Partitioner,
    RandomPartitioner,
    RoundRobinPartitioner,
)
from repro.core.registers import RegisterAssignment
from repro.experiments.harness import (
    BenchmarkEvaluation,
    EvaluationOptions,
    evaluate_workload_retrying,
)
from repro.uarch.config import (
    dual_cluster_2way_config,
    dual_cluster_config,
    single_cluster_4way_config,
    with_buffer_entries,
)
from repro.workloads.generator import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.journal import RunJournal
    from repro.robustness.retry import RetryPolicy


@dataclass
class AblationPoint:
    label: str
    pct_none: float
    pct_local: float
    dual_fraction: float
    replays: int


@dataclass
class AblationResult:
    name: str
    points: list[AblationPoint] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"ablation: {self.name}",
            f"{'point':<22} {'none %':>8} {'local %':>8} {'dual %':>7} {'replays':>8}",
        ]
        for p in self.points:
            lines.append(
                f"{p.label:<22} {p.pct_none:+8.1f} {p.pct_local:+8.1f} "
                f"{100 * p.dual_fraction:>6.1f}% {p.replays:>8}"
            )
        return "\n".join(lines)


def _point_from(label: str, ev: BenchmarkEvaluation) -> AblationPoint:
    return AblationPoint(
        label=label,
        pct_none=ev.pct_none,
        pct_local=ev.pct_local,
        dual_fraction=ev.dual_local.stats.dual_fraction,
        replays=ev.dual_local.stats.replay_exceptions,
    )


def _point_task(item: tuple[Workload, EvaluationOptions]) -> BenchmarkEvaluation:
    """One labelled sweep point's full evaluation (worker-safe)."""
    from repro.perf.executor import _worker_cache

    workload, options = item
    return evaluate_workload_retrying(workload, options, cache=_worker_cache())


def _points(
    tasks: list[tuple[str, Workload, EvaluationOptions]],
    jobs: int,
    journal: Optional["RunJournal"] = None,
    sweep: str = "ablation",
) -> list[AblationPoint]:
    """Evaluate labelled sweep points, fanning out to workers for jobs != 1.

    Same bit-identity contract as the Table 2 sweep: every stage is
    seeded, so the parallel path returns exactly the serial points — and
    a journaled point reused by ``--resume`` *is* the original pickled
    evaluation, so resumed tables match uninterrupted ones bit for bit.
    Each point journals under ``{sweep}:{label}`` keyed by its own
    options fingerprint (ablation points deliberately differ in options,
    so a changed sweep parameter invalidates exactly the changed rows).
    """
    from repro.perf.parallel import journaled_map
    from repro.robustness.journal import options_fingerprint

    evaluations, _ = journaled_map(
        _point_task,
        [(workload, options) for _, workload, options in tasks],
        [
            (f"{sweep}:{label}", options_fingerprint(options))
            for label, _, options in tasks
        ],
        journal=journal,
        jobs=jobs,
    )
    return [
        _point_from(label, ev) for (label, _, _), ev in zip(tasks, evaluations)
    ]


def run_issue_width_ablation(
    build: Callable[[], Workload],
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult:
    """E10: 8-way single vs 2x4 dual, and 4-way single vs 2x2 dual."""
    tasks = [
        (
            "8-way vs 2x4-way",
            build(),
            EvaluationOptions(trace_length=trace_length, retry=retry),
        ),
        (
            "4-way vs 2x2-way",
            build(),
            EvaluationOptions(
                trace_length=trace_length,
                single_config=single_cluster_4way_config(),
                dual_config=dual_cluster_2way_config(),
                retry=retry,
            ),
        ),
    ]
    return AblationResult(
        "issue width (single vs clustered pair)",
        _points(tasks, jobs, journal, sweep="issue-width"),
    )


def run_threshold_ablation(
    build: Callable[[], Workload],
    thresholds: tuple[int, ...] = (0, 1, 2, 4, 8, 16),
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult:
    """Sweep the local scheduler's compile-time imbalance constant."""
    tasks = [
        (
            f"threshold={threshold}",
            build(),
            EvaluationOptions(
                trace_length=trace_length,
                partitioner=LocalScheduler(imbalance_threshold=threshold),
                retry=retry,
            ),
        )
        for threshold in thresholds
    ]
    return AblationResult(
        "local-scheduler imbalance threshold",
        _points(tasks, jobs, journal, sweep="threshold"),
    )


def run_buffer_depth_ablation(
    build: Callable[[], Workload],
    depths: tuple[int, ...] = (2, 4, 8, 16, 32),
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult:
    """Sweep the operand/result transfer-buffer depth (paper: 8 + 8)."""
    tasks = [
        (
            f"entries={depth}",
            build(),
            EvaluationOptions(
                trace_length=trace_length,
                dual_config=with_buffer_entries(dual_cluster_config(), depth),
                retry=retry,
            ),
        )
        for depth in depths
    ]
    return AblationResult(
        "transfer-buffer entries per cluster",
        _points(tasks, jobs, journal, sweep="buffer-depth"),
    )


def run_partitioner_ablation(
    build: Callable[[], Workload],
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult:
    """Local scheduler vs balance-blind baselines."""
    partitioners: list[Partitioner] = [
        LocalScheduler(),
        AffinityPartitioner(),
        RoundRobinPartitioner(),
        RandomPartitioner(seed=3),
    ]
    tasks = [
        (
            partitioner.name,
            build(),
            EvaluationOptions(
                trace_length=trace_length, partitioner=partitioner, retry=retry
            ),
        )
        for partitioner in partitioners
    ]
    return AblationResult(
        "partitioner (column 'local %' is the partitioned binary)",
        _points(tasks, jobs, journal, sweep="partitioner"),
    )


def _queue_size_task(item) -> "QueueSizePoint":
    """One single-cluster run at one dispatch-queue size (worker-safe)."""
    import dataclasses

    from repro.uarch.config import single_cluster_config
    from repro.uarch.processor import simulate

    entries, trace = item
    base = single_cluster_config(name=f"single-q{entries}")
    cluster = dataclasses.replace(base.clusters[0], dispatch_queue_entries=entries)
    config = dataclasses.replace(base, clusters=(cluster,))
    result = simulate(trace, config)
    return QueueSizePoint(
        entries=entries,
        cycles=result.cycles,
        branch_accuracy=result.stats.branch_accuracy,
        dcache_miss_rate=result.stats.dcache_miss_rate,
        issue_disorder=result.stats.issue_disorder,
    )


def run_queue_size_ablation(
    build: Callable[[], Workload],
    queue_sizes: tuple[int, ...] = (32, 64, 128, 256),
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
) -> "QueueSizeResult":
    """The paper's explanation for the compress anomaly, isolated.

    Section 4.2 attributes compress's *speedup* on the dual-cluster
    machine to the single cluster's larger dispatch queue: more in-flight
    branches between prediction and table update (stale predictor state)
    and more issue disorder (cache behaviour).  This sweep runs the same
    native binary on single-cluster machines that differ only in dispatch
    queue size, exposing how much queue depth costs or buys on a workload.
    """
    from repro.compiler.pipeline import compile_program
    from repro.perf.fingerprint import fingerprint
    from repro.perf.parallel import journaled_map
    from repro.workloads.tracegen import TraceGenerator

    workload = build()
    native = compile_program(workload.program, RegisterAssignment.single_cluster())
    trace = TraceGenerator(
        native.machine, workload.streams, workload.behaviors, seed=7
    ).generate(trace_length)

    points, _ = journaled_map(
        _queue_size_task,
        [(entries, trace) for entries in queue_sizes],
        [
            (
                f"queue-size:entries={n}",
                fingerprint(("queue-size/v1", workload.name, trace_length, n)),
            )
            for n in queue_sizes
        ],
        journal=journal,
        jobs=jobs,
    )
    return QueueSizeResult(workload.name, points)


@dataclass
class QueueSizePoint:
    entries: int
    cycles: int
    branch_accuracy: float
    dcache_miss_rate: float
    issue_disorder: float


@dataclass
class QueueSizeResult:
    benchmark: str
    points: list[QueueSizePoint]

    def format(self) -> str:
        lines = [
            f"ablation: single-cluster dispatch-queue size ({self.benchmark})",
            f"{'entries':>8} {'cycles':>9} {'br acc':>8} {'d$ miss':>8} {'disorder':>9}",
        ]
        for p in self.points:
            lines.append(
                f"{p.entries:>8} {p.cycles:>9} {100 * p.branch_accuracy:>7.2f}% "
                f"{100 * p.dcache_miss_rate:>7.2f}% {p.issue_disorder:>9.2f}"
            )
        return "\n".join(lines)


def run_imbalance_scope_ablation(
    build: Callable[[], Workload],
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult:
    """Whole-block vs prefix-only imbalance estimation in the local
    scheduler (the interpretation choice documented in
    :func:`repro.core.balance.imbalance_around`)."""
    tasks = [
        (
            f"scope={scope}",
            build(),
            EvaluationOptions(
                trace_length=trace_length,
                partitioner=LocalScheduler(imbalance_scope=scope),
                retry=retry,
            ),
        )
        for scope in ("block", "prefix")
    ]
    return AblationResult(
        "local-scheduler imbalance scope",
        _points(tasks, jobs, journal, sweep="imbalance-scope"),
    )


def run_unroll_ablation(
    build: Callable[[], Workload],
    factors: tuple[int, ...] = (1, 2, 4),
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult:
    """Section 6 future work: unroll inner loops before partitioning.

    "Loop unrolling could be used to generate a code schedule in which
    multiple iterations of a loop were interleaved, with each iteration
    scheduled to use a separate cluster."  Unrolled copies are mostly
    independent, so the local scheduler can spread them; the sweep
    measures whether that pays on this workload.
    """
    from repro.compiler.passes.unroll import unroll_program
    from repro.workloads.branch_models import LoopBranch

    tasks = []
    for factor in factors:
        workload = build()
        if factor > 1 and unroll_program(workload.program, factor):
            # Trip counts now describe unrolled trips: scale the loop
            # behaviours down so dynamic iteration counts stay comparable.
            for name, model in list(workload.behaviors.items()):
                if isinstance(model, LoopBranch):
                    workload.behaviors[name] = LoopBranch(
                        max(1, model.trip_count // factor), model.jitter
                    )
        tasks.append(
            (
                f"unroll x{factor}",
                workload,
                EvaluationOptions(trace_length=trace_length, retry=retry),
            )
        )
    return AblationResult(
        "loop unrolling factor (Section 6 future work)",
        _points(tasks, jobs, journal, sweep="unroll"),
    )


def run_global_widening_ablation(
    build: Callable[[], Workload],
    extra_global_registers: tuple[int, ...] = (0, 2, 4),
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult:
    """Section 6 future work: allocate key variables to global registers.

    "A second scheme is to allocate key variables to global registers so
    that the variables can be accessed from within each cluster without an
    inter-cluster data transfer."  Sweeps the number of extra architectural
    registers made global (beyond SP/GP); each consumes a physical register
    in every cluster, so the benefit trades against register pressure.
    """
    from repro.isa.registers import int_reg

    tasks = []
    for count in extra_global_registers:
        extras = tuple(int_reg(2 + i) for i in range(count))
        assignment = RegisterAssignment.even_odd_dual(extra_globals=extras)
        tasks.append(
            (
                f"extra globals={count}",
                build(),
                EvaluationOptions(
                    trace_length=trace_length,
                    dual_assignment=assignment,
                    retry=retry,
                ),
            )
        )
    return AblationResult(
        "extra global registers (Section 6 future work)",
        _points(tasks, jobs, journal, sweep="global-widening"),
    )


def run_assignment_ablation(
    build: Callable[[], Workload],
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult:
    """Even/odd (the paper's choice) vs low/high register-to-cluster maps."""
    tasks = [
        (
            label,
            build(),
            EvaluationOptions(
                trace_length=trace_length, dual_assignment=assignment, retry=retry
            ),
        )
        for label, assignment in (
            ("even/odd", RegisterAssignment.even_odd_dual()),
            ("low/high", RegisterAssignment.low_high_dual()),
        )
    ]
    return AblationResult(
        "register-to-cluster assignment",
        _points(tasks, jobs, journal, sweep="assignment"),
    )
