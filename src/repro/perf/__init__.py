"""Performance layer: parallel sweep engine + compile/trace artifact cache.

The Section 4 methodology is embarrassingly parallel — benchmarks are
independent, and the three simulations per benchmark (single-cluster
baseline, dual-cluster "none", dual-cluster "local") share nothing but
deterministically reproducible inputs.  This package exploits both axes:

* :mod:`repro.perf.fingerprint` — deterministic content hashes usable as
  cache keys across processes and runs (``hash()`` is randomized per
  process and ``repr`` of arbitrary objects embeds addresses; neither
  can key a shared cache);
* :mod:`repro.perf.cache` — the content-keyed artifact cache for
  compilation results and generated traces, with in-memory and on-disk
  tiers plus hit/miss counters;
* :mod:`repro.perf.parallel` — the process-pool sweep engine behind
  ``--jobs N``: Table 2's executor-based sweep, and ``journaled_map``,
  the one reuse/fan-out/journal loop every other sweep (ablations,
  Figure 6, reassignment, the gym) runs through;
* :mod:`repro.perf.executor` — the ``SweepExecutor`` interface under
  the sweep engine: the trusting process pool plus the supervised pool
  (per-task deadlines, re-dispatch of lost tasks, circuit breaker);
* :mod:`repro.perf.bench` — the ``repro bench`` harness that times
  serial vs parallel vs cached sweeps and records ``BENCH_table2.json``.

Submodules are imported lazily: :mod:`repro.perf.cache` is imported by
the experiment harness, while :mod:`repro.perf.parallel` imports the
harness — eager re-exports here would create an import cycle.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "fingerprint": "repro.perf.fingerprint",
    "ArtifactCache": "repro.perf.cache",
    "CacheStats": "repro.perf.cache",
    "default_cache_dir": "repro.perf.cache",
    "compile_key": "repro.perf.cache",
    "trace_key": "repro.perf.cache",
    "journaled_map": "repro.perf.parallel",
    "resolve_jobs": "repro.perf.parallel",
    "run_table2_parallel": "repro.perf.parallel",
    "EXECUTOR_KINDS": "repro.perf.executor",
    "ExecutorDegradation": "repro.perf.executor",
    "PoolSweepExecutor": "repro.perf.executor",
    "SupervisedPoolExecutor": "repro.perf.executor",
    "SweepExecutor": "repro.perf.executor",
    "SweepTask": "repro.perf.executor",
    "TaskResult": "repro.perf.executor",
    "default_task_timeout": "repro.perf.executor",
    "make_sweep_executor": "repro.perf.executor",
    "run_bench": "repro.perf.bench",
    "BenchReport": "repro.perf.bench",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
