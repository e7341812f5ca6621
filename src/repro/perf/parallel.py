"""Sweep fan-out: the ``--jobs`` machinery and the Table 2 work unit.

The Section 4 methodology is independent across benchmarks *and* across
the three runs per benchmark, so a Table 2 sweep decomposes into
``len(benchmarks) * 3`` work units, :func:`_sweep_task`.  Each unit is
re-derived wherever it runs from ``(benchmark name, part, options)`` —
every stage is seeded and deterministic, so results are bit-identical
however they are scheduled, and nothing but small inputs and final
results crosses a process boundary.

Every other sweep — the ablations, the queue-size study, the Figure 6
threshold walk-through, the reassignment demo, and the design-space
gym — is a list of independent seeded points, and runs through one
function, :func:`journaled_map`: reuse each journaled point, compute
the rest (in-process or on a worker pool), and journal each result the
moment it lands.  Table 2 has one sweep loop, in
:func:`repro.experiments.table2.run_table2`: it runs :func:`_sweep_task`
on a :class:`~repro.perf.executor.SweepExecutor` — the in-process
:class:`~repro.perf.executor.SerialSweepExecutor` for ``--jobs 1`` —
for its failure-record, replay-bundle, heartbeat and span contract.

Design notes:

* Workers fork from the parent (where the platform supports it), so
  monkeypatched registries and installed fault injection are inherited —
  PR 1's robustness matrix exercises the pool exactly like the serial
  path, and a worker raising :class:`~repro.errors.ReproError` degrades
  into the same :class:`~repro.experiments.harness.BenchmarkFailure`
  record a serial sweep produces.
* Failures are converted to :class:`BenchmarkFailure` *inside* the
  worker: exception subclasses with mandatory context kwargs do not
  survive pickling faithfully, and the sweep needs the context intact.
* Each worker process holds one process-local
  :class:`~repro.perf.cache.ArtifactCache` (optionally disk-backed, in
  which case all workers share the directory); per-task counter deltas
  are shipped back and merged into the parent's cache stats so hit/miss
  accounting stays correct under ``--jobs N``.
* Retries run *inside* the worker (``options.retry``), so a transient
  fault costs one worker a re-run, not the whole sweep a round-trip.
* SIGINT/SIGTERM to the parent shuts the sweep down in order: pending
  work units are cancelled, in-flight ones drain (they are seconds-sized),
  every already-completed row has been delivered to the caller (and
  journaled, when a journal is attached), workers exit with the pool —
  no orphans — and the sweep raises
  :class:`~repro.errors.SweepInterrupted` (exit code 130) so a follow-up
  ``--resume`` picks up cleanly.  Workers ignore SIGINT themselves: the
  parent owns cancellation, so a Ctrl-C delivered to the process group
  cannot half-kill the pool.
* The fan-out machinery itself lives behind
  :class:`~repro.perf.executor.SweepExecutor`
  (:mod:`repro.perf.executor`): ``--executor pool`` is the trusting
  pool above; ``--executor supervised`` adds per-task deadlines,
  dead/wedged-worker detection, bounded re-dispatch, and a circuit
  breaker that finishes the sweep serially instead of hanging — the
  multi-host failure model from the ROADMAP, exercised single-host.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import ConfigError, ReproError, SweepInterrupted
from repro.experiments import harness
from repro.experiments.harness import BenchmarkFailure, EvaluationOptions
from repro.perf.cache import ArtifactCache
from repro.perf.executor import _pool, _task_cache, _worker_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.journal import RunJournal

#: Hard ceiling on explicit ``--jobs`` relative to the machine: beyond
#: this the request is a typo (e.g. ``--jobs 1200`` for ``--jobs 12``),
#: not a tuning choice — oversubscription past ~4x cores only thrashes.
MAX_JOBS_FACTOR = 4
MAX_JOBS_FLOOR = 64


def resolve_jobs(jobs: int) -> int:
    """Validate and resolve a ``--jobs`` request.

    ``0`` means one worker per CPU core (the documented auto mode).
    Negative values and absurd oversubscription (more than
    ``max(4 * cores, 64)``) are configuration errors, not values to
    silently clamp — a typo'd sweep should fail loudly before forking.
    """
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(
            f"--jobs must be >= 0 (0 = one worker per core), got {jobs}",
            jobs=jobs,
        )
    ceiling = max(MAX_JOBS_FACTOR * (os.cpu_count() or 1), MAX_JOBS_FLOOR)
    if jobs > ceiling:
        raise ConfigError(
            f"--jobs {jobs} exceeds the sanity ceiling of {ceiling} "
            f"(4x this machine's cores); this is almost certainly a typo",
            jobs=jobs,
            ceiling=ceiling,
        )
    return jobs


@contextmanager
def sweep_signals():
    """Deliver SIGTERM (and SIGINT) as ``KeyboardInterrupt`` to the sweep.

    SIGINT already raises ``KeyboardInterrupt``; SIGTERM — what service
    managers and CI runners send first — normally kills the process
    outright, orphaning workers and tearing the journal's final line.
    Inside this context both funnel into the sweep's orderly-shutdown
    path.  No-op outside the main thread (signal handlers are
    main-thread-only; nested sweeps keep the outer handler).
    """
    previous = {}
    def _interrupt(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _interrupt)
        except ValueError:  # not the main thread
            pass
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _sweep_interrupted(cause: str, cancelled: int) -> SweepInterrupted:
    """The error an orderly post-interrupt shutdown raises."""
    return SweepInterrupted(
        "sweep interrupted; completed rows are journaled and the run is "
        "resumable with --resume",
        cause=cause,
        cancelled_units=cancelled,
    )


def journaled_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    keys: Sequence[tuple[str, str]],
    *,
    journal: Optional["RunJournal"] = None,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
) -> tuple[list[Any], int]:
    """Ordered, journaled map of ``fn`` over ``items``.

    ``keys[i]`` is item ``i``'s ``(journal key, content fingerprint)``.
    A completed journal entry with a matching fingerprint is reused
    verbatim; every other item is computed — in-process for ``jobs <= 1``
    or a single missing item, otherwise on a worker pool — and journaled
    the moment it completes, so an interrupt loses at most the in-flight
    items.  JSON-native ``dict`` results are journaled inline as the
    entry's ``payload``; anything richer is pickled under ``artifacts/``.

    ``fn`` must be a module-level callable (workers import it by name).
    Tasks that need an artifact cache take it from
    :func:`repro.perf.executor._worker_cache`: in-process that is
    ``cache`` (a fresh one per item when ``None``), in a worker it is the
    worker's own cache over ``cache.cache_dir``.  Task errors propagate; an
    interrupt during a pool run raises
    :class:`~repro.errors.SweepInterrupted` after every finished item is
    journaled.

    Returns ``(results in item order, number reused from the journal)``.
    """
    jobs = resolve_jobs(jobs)
    results: list[Any] = [None] * len(items)
    pending = []
    for i, (key, fp) in enumerate(keys):
        if journal is not None:
            entry = journal.completed(key, fp)
            if entry is not None and entry.payload is not None:
                results[i] = entry.payload
            else:
                # None for a missing entry or a damaged artifact: recompute.
                results[i] = journal.load_artifact(entry)
        if results[i] is None:
            pending.append(i)

    def record(i: int, value: Any) -> None:
        results[i] = value
        if journal is not None:
            key, fp = keys[i]
            if isinstance(value, dict):
                journal.record_completed(key, fp, payload=value)
            else:
                journal.record_completed(key, fp, artifact_value=value)

    if jobs <= 1 or len(pending) <= 1:
        for i in pending:
            with _task_cache(cache):
                record(i, fn(items[i]))
        return results, len(items) - len(pending)
    cache_dir = cache.cache_dir if cache is not None else None
    with _pool(jobs, cache_dir) as pool, sweep_signals():
        index_of = {pool.submit(fn, items[i]): i for i in pending}
        waiting = set(index_of)
        try:
            while waiting:
                done, waiting = wait(waiting, return_when=FIRST_COMPLETED)
                for future in done:
                    record(index_of[future], future.result())
        except (KeyboardInterrupt, BrokenProcessPool) as error:
            cancelled = sum(future.cancel() for future in waiting)
            pool.shutdown(wait=True, cancel_futures=True)
            raise _sweep_interrupted(type(error).__name__, cancelled) from None
    return results, len(items) - len(pending)


# ------------------------------------------------------------- Table 2 sweep
def _sweep_task(item: tuple[str, str, EvaluationOptions]):
    """One Table 2 ``(benchmark, part)`` unit, on whichever executor slot
    runs it (a worker process, a remote host, or in-process).

    Returns ``(name, part, outcome_or_failure, attempts, stats_delta)``;
    the options' retry policy runs here, and a :class:`ReproError` that
    survives it becomes a :class:`BenchmarkFailure` here too, so context
    (including the failing part, attempt count, and failure class)
    survives the trip home.
    """
    from repro.workloads.spec92 import SPEC92

    name, part, options = item
    cache = _worker_cache()
    baseline = cache.stats.snapshot()
    try:
        workload = cache.workload(name, SPEC92[name])
        outcome, attempts = harness.evaluate_part_with_retry(
            workload, part, options, cache
        )
        return name, part, outcome, attempts, cache.stats.delta(baseline)
    except ReproError as error:
        failure = BenchmarkFailure.from_error(name, error)
        attempts = error.context.get("attempts", 1)
        return name, part, failure, attempts, cache.stats.delta(baseline)
