"""Content-keyed artifact cache for compilation results and traces.

The experiment stack recomputes two expensive, fully deterministic
artifacts over and over: :func:`repro.compiler.pipeline.compile_program`
outputs and :meth:`repro.workloads.tracegen.TraceGenerator.generate`
outputs.  Both are pure functions of their inputs, so a sweep only needs
to pay for what changed (the gem5-style flow).  Keys are built from
:func:`repro.perf.fingerprint.fingerprint` over every input that can
change the artifact:

* **compile key** — workload name, IL program content (including trace
  annotations), register assignment ownership map, partitioner token,
  and :class:`~repro.compiler.pipeline.CompilerOptions`;
* **trace key** — the compile key (the trace is generated from the
  compiled binary), address-stream tokens, branch-behaviour tokens, the
  trace seed, the trace length, and the loop-restart flag.

Two tiers:

* **memory** — a per-process dict, always on; within one process a
  repeated (compile, trace) pair is returned by reference, exactly as
  the pre-cache serial code shared them.
* **disk** — optional, enabled by constructing with a directory
  (``~/.cache/repro`` by default via :func:`default_cache_dir`, or the
  CLI's ``--cache-dir``).  Artifacts are pickled atomically
  (write-to-temp + rename), so concurrent sweep workers can share one
  directory; a corrupt or unreadable entry degrades to a miss, never an
  error.

All traffic is counted in :attr:`ArtifactCache.stats` so experiments can
surface hit/miss behaviour, and sweeps can prove a warm cache skipped
recompilation.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Optional

from repro.perf.fingerprint import fingerprint

#: Artifact kinds tracked by distinct hit/miss counters.
KINDS = ("compile", "trace")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    """Hit/miss counters, by artifact kind and by tier."""

    compile_hits: int = 0
    compile_misses: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    #: Hits served by unpickling a disk entry (also counted in the
    #: per-kind hit counter).
    disk_hits: int = 0
    disk_writes: int = 0
    invalidations: int = 0

    @property
    def hits(self) -> int:
        return self.compile_hits + self.trace_hits

    @property
    def misses(self) -> int:
        return self.compile_misses + self.trace_misses

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def delta(self, baseline: "CacheStats") -> "CacheStats":
        """Counter-wise ``self - baseline`` (for per-task accounting)."""
        return CacheStats(
            **{
                f.name: getattr(self, f.name) - getattr(baseline, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "CacheStats") -> None:
        """Counter-wise accumulate ``other`` into ``self``."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        out: dict = {f.name: getattr(self, f.name) for f in fields(self)}
        out["hits"] = self.hits
        out["misses"] = self.misses
        out["hit_rate"] = round(self.hit_rate, 6)
        return out

    def format(self) -> str:
        return (
            f"artifact cache: compile {self.compile_hits} hit"
            f"/{self.compile_misses} miss, "
            f"trace {self.trace_hits} hit/{self.trace_misses} miss, "
            f"disk {self.disk_hits} read/{self.disk_writes} write"
        )


class ArtifactCache:
    """Two-tier (memory + optional disk) content-keyed artifact store."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None) -> None:
        """
        Args:
            cache_dir: directory for the persistent tier; ``None`` keeps
                the cache in-memory only.  Created on first write.
        """
        self._memory: dict[str, Any] = {}
        self._workloads: dict[str, Any] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()

    def workload(self, name: str, build: Callable[[], Any]) -> Any:
        """``build()`` for workload ``name``, once per cache.

        Memory-only and uncounted: building is cheap, but the parts of
        one benchmark evaluated in one process share the workload by
        reference — as they share its compile and trace — so the
        evaluation they assemble pickles exactly as one built from a
        single workload object.
        """
        if name not in self._workloads:
            self._workloads[name] = build()
        return self._workloads[name]

    # ------------------------------------------------------------- internals
    def _path(self, kind: str, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{kind}-{key}.pkl"

    def _count(self, kind: str, hit: bool) -> None:
        field = f"{kind}_{'hits' if hit else 'misses'}"
        setattr(self.stats, field, getattr(self.stats, field) + 1)

    # ----------------------------------------------------------------- API
    def get(self, kind: str, key: str) -> Optional[Any]:
        """Return the cached artifact, or ``None`` on a miss."""
        memory_key = f"{kind}:{key}"
        if memory_key in self._memory:
            self._count(kind, hit=True)
            return self._memory[memory_key]
        if self.cache_dir is not None:
            path = self._path(kind, key)
            try:
                with path.open("rb") as fh:
                    value = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
                pass  # absent or corrupt entry: a miss, never an error
            else:
                self._memory[memory_key] = value
                self._count(kind, hit=True)
                self.stats.disk_hits += 1
                return value
        self._count(kind, hit=False)
        return None

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store an artifact in both tiers (atomic on disk)."""
        self._memory[f"{kind}:{key}"] = value
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(kind, key)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.cache_dir, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return  # a full/read-only disk degrades to memory-only
        self.stats.disk_writes += 1

    def invalidate(
        self, kind: Optional[str] = None, key: Optional[str] = None
    ) -> int:
        """Explicitly drop entries from both tiers.

        Args:
            kind: restrict to one artifact kind (``None`` = all).
            key: restrict to one key (requires ``kind``).

        Returns:
            The number of memory entries dropped.
        """
        if key is not None and kind is None:
            raise ValueError("invalidate(key=...) requires kind=...")
        if kind is not None and kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}; valid: {KINDS}")
        prefix = f"{kind}:{key}" if key is not None else (
            f"{kind}:" if kind is not None else ""
        )
        victims = [k for k in self._memory if k.startswith(prefix)]
        for memory_key in victims:
            del self._memory[memory_key]
        if self.cache_dir is not None and self.cache_dir.is_dir():
            if key is not None:
                patterns = [f"{kind}-{key}.pkl"]
            elif kind is not None:
                patterns = [f"{kind}-*.pkl"]
            else:
                patterns = [f"{k}-*.pkl" for k in KINDS]
            for pattern in patterns:
                for path in self.cache_dir.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
        self.stats.invalidations += 1
        return len(victims)

    def __len__(self) -> int:
        return len(self._memory)


# ------------------------------------------------------------------ keys
def compile_key(workload_name, program, assignment, partitioner, options) -> str:
    """Cache key for one :func:`compile_program` invocation."""
    return fingerprint(
        (
            "compile/v1",
            workload_name,
            program,
            assignment,
            partitioner if partitioner is not None else "partitioner:none",
            options,
        )
    )


def trace_key(
    compile_fingerprint: str,
    streams,
    behaviors,
    seed: int,
    length: int,
    loop_program: bool = True,
) -> str:
    """Cache key for one ``TraceGenerator.generate`` invocation.

    The compiled binary is identified by its compile key: anything that
    changes the binary changes the trace.
    """
    return fingerprint(
        ("trace/v1", compile_fingerprint, streams, behaviors, seed, length, loop_program)
    )
