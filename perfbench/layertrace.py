"""Layer spans recorded from outside the program, for the traced run.

A :class:`LayerTracer` replaces the entry points of each layer — where
the calling module has bound them — with wrappers that time the call and
record a span ``[span_id, parent_id, name, start, end, attrs]`` in
memory.  A call that raises is recorded too, with an ``error`` attribute.

:func:`layer_metrics` turns the spans of the traced timed region into
the benchmark's per-layer metrics.  A span's self time is its duration
minus the durations of its children (the calls run in one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import statistics
import time


class LayerTracer:
    """In-memory span recorder around the program's layer entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None, before=None):
        """``fn`` recorded as span ``name``.

        ``after(state, args, kwargs, result)`` returns attributes to attach
        to the span of a call that returned (counts measured where the
        work is done); ``state`` is what ``before(args, kwargs)`` returned
        ahead of the call.  A call that raised gets ``error`` (the
        exception's type) and, if the program's retry loop gave up on it,
        ``retries``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1] if self._stack else None
            state = before(args, kwargs) if before else None
            self._stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if error is None:
                    attrs = after(state, args, kwargs, result) if after else {}
                else:
                    attrs = {"error": type(error).__name__}
                    attempts = getattr(error, "context", {}).get("attempts")
                    if attempts:
                        attrs["retries"] = attempts - 1
                self.spans.append([span_id, parent, name, start, end, attrs])
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace ``owner.attr`` with its traced form until :meth:`uninstall`."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after, before))

    def patch_item(self, mapping: dict, key: str, name: str) -> None:
        original = mapping[key]
        self._restore.append((mapping, key, original))
        mapping[key] = self.wrap(name, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def collect(self) -> list[list]:
        """The spans recorded so far; starts a new list."""
        spans, self.spans = self.spans, []
        return spans


def _compile_attrs(state, args, kwargs, result):
    return {
        "machine_instrs": result.machine.instruction_count(),
        "spill_ops": result.spill_loads + result.spill_stores,
    }


def _sim_attrs(state, args, kwargs, result):
    return {"cycles": result.stats.cycles, "instrs": result.stats.instructions}


def _task_attrs(state, args, kwargs, result):
    _outcome, attempts = result
    return {"retries": attempts - 1}


def _part_cache(args, kwargs):
    cache = args[3] if len(args) > 3 else kwargs.get("cache")
    return cache, (cache.stats.snapshot() if cache is not None else None)


def _part_attrs(state, args, kwargs, result):
    cache, baseline = state
    if cache is None:
        return {}
    delta = cache.stats.delta(baseline)
    return {"hits": delta.hits, "misses": delta.misses}


def install(tracer: LayerTracer, program) -> None:
    """Wrap every layer entry point of ``program`` (the imported modules)."""
    harness = program.harness
    for name in list(program.spec92.SPEC92):
        tracer.patch_item(program.spec92.SPEC92, name, "workloads.build")
    tracer.patch(program.tracegen.TraceGenerator, "generate", "workloads.tracegen")
    tracer.patch(harness, "compile_program", "compiler.compile",
                 _compile_attrs)
    tracer.patch(program.pipeline, "build_live_ranges", "compiler.webs")
    tracer.patch(program.regalloc, "build_live_ranges", "compiler.webs")
    tracer.patch(program.pipeline, "allocate_registers", "compiler.regalloc")
    tracer.patch(program.local.LocalScheduler, "partition", "compiler.partition")
    tracer.patch(harness, "validate_run", "validate")
    tracer.patch(harness, "simulate", "uarch.simulate", _sim_attrs)
    tracer.patch(harness, "make_processor", "uarch.make_processor")
    for owner in (harness, program.fitness):
        tracer.patch(owner, "evaluate_workload_part", "experiments.part",
                     _part_attrs, _part_cache)
    tracer.patch(harness, "evaluate_part_with_retry", "orchestration.task", _task_attrs)
    tracer.patch(program.fitness, "evaluate_point", "gym.trial")


#: Every per-layer metric, with its unit, in BENCHMARK.json order.
LAYER_METRICS = {
    "workloads.build_s": "s",
    "workloads.tracegen_s": "s",
    "workloads.tracegen_calls": "count",
    "compiler.compile_s": "s",
    "compiler.compile_calls": "count",
    "compiler.compile_max_s": "s",
    "compiler.webs_s": "s",
    "compiler.webs_calls": "count",
    "compiler.regalloc_s": "s",
    "compiler.partition_s": "s",
    "compiler.self_s": "s",
    "compiler.machine_instrs": "count",
    "compiler.spill_ops": "count",
    "compiler.wall_share": "frac",
    "validate.validate_s": "s",
    "validate.calls": "count",
    "uarch.simulate_s": "s",
    "uarch.sim_calls": "count",
    "uarch.sim_cycles": "count",
    "uarch.sim_instrs": "count",
    "uarch.host_us_per_cycle": "us/cycle",
    "uarch.wall_share": "frac",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_rate": "frac",
    "experiments.self_s": "s",
    "orchestration.task_s_sum": "s",
    "orchestration.task_max_s": "s",
    "orchestration.critical_path_share": "frac",
    "orchestration.busy_frac": "frac",
    "orchestration.retries": "count",
    "journal.records": "count",
    "journal.bytes": "bytes",
    "gym.trial_calls": "count",
    "gym.trial_p50_s": "s",
    "gym.trial_max_s": "s",
    "trace.self_coverage": "frac",
    "trace_overhead_frac": "frac",
}


def self_times(spans: list[list]) -> dict:
    """Span id -> self time (duration minus its children's durations)."""
    own = {span[0]: span[4] - span[3] for span in spans}
    for span_id, parent, _name, start, end, _attrs in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


def layer_metrics(
    spans: list[list],
    *,
    walls: list[float],
    untraced_wall_s: float,
    journal_records: int,
    journal_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics, per unit of work, from the traced region's spans.

    ``walls`` are the traced units' wall times and ``untraced_wall_s`` the
    untraced loop's median.
    """
    units = len(walls)
    wall_s = sum(walls) / units
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
    own = self_times(spans)

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name.get(name, ())) / units

    def calls(name: str) -> float:
        return len(by_name.get(name, ())) / units

    def longest(name: str) -> float:
        return max((s[4] - s[3] for s in by_name.get(name, ())), default=0.0)

    def attr(name: str, key: str) -> float:
        return sum(s[5].get(key, 0) for s in by_name.get(name, ())) / units

    def self_of(name: str) -> float:
        return sum(own[s[0]] for s in by_name.get(name, ())) / units

    simulate_s = total("uarch.simulate") + total("uarch.make_processor")
    cycles = attr("uarch.simulate", "cycles")
    hits = attr("experiments.part", "hits")
    misses = attr("experiments.part", "misses")
    task_s = total("orchestration.task")
    trials = [s[4] - s[3] for s in by_name.get("gym.trial", ())]
    return {
        "workloads.build_s": total("workloads.build"),
        "workloads.tracegen_s": total("workloads.tracegen"),
        "workloads.tracegen_calls": calls("workloads.tracegen"),
        "compiler.compile_s": total("compiler.compile"),
        "compiler.compile_calls": calls("compiler.compile"),
        "compiler.compile_max_s": longest("compiler.compile"),
        "compiler.webs_s": total("compiler.webs"),
        "compiler.webs_calls": calls("compiler.webs"),
        "compiler.regalloc_s": total("compiler.regalloc"),
        "compiler.partition_s": total("compiler.partition"),
        "compiler.self_s": self_of("compiler.compile"),
        "compiler.machine_instrs": attr("compiler.compile", "machine_instrs"),
        "compiler.spill_ops": attr("compiler.compile", "spill_ops"),
        "compiler.wall_share": total("compiler.compile") / wall_s,
        "validate.validate_s": total("validate"),
        "validate.calls": calls("validate"),
        "uarch.simulate_s": simulate_s,
        "uarch.sim_calls": calls("uarch.simulate"),
        "uarch.sim_cycles": cycles,
        "uarch.sim_instrs": attr("uarch.simulate", "instrs"),
        "uarch.host_us_per_cycle": 1e6 * simulate_s / cycles if cycles else 0.0,
        "uarch.wall_share": simulate_s / wall_s,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "experiments.self_s": self_of("experiments.part"),
        "orchestration.task_s_sum": task_s,
        "orchestration.task_max_s": longest("orchestration.task"),
        "orchestration.critical_path_share": longest("orchestration.task") / wall_s,
        "orchestration.busy_frac": task_s / wall_s,
        "orchestration.retries": attr("orchestration.task", "retries"),
        "journal.records": journal_records / units,
        "journal.bytes": journal_bytes / units,
        "gym.trial_calls": len(trials) / units,
        "gym.trial_p50_s": statistics.median(trials) if trials else 0.0,
        "gym.trial_max_s": max(trials, default=0.0),
        "trace.self_coverage": sum(own.values()) / units / wall_s,
        "trace_overhead_frac": statistics.median(walls) / untraced_wall_s - 1.0,
    }
