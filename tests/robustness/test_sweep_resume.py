"""Journal + --resume for every sweep outside Table 2.

The ablations, the queue-size study, the Figure 6 threshold sweep, the
reassignment demo, and the design-space gym all journal through
:func:`repro.perf.parallel.journaled_map`.  For each family: a point
that finished before an interrupt is already journaled, a partial
journal resumes to exactly the uninterrupted result, journaled points
are never recomputed, and a damaged ``artifacts/*.pkl`` sidecar is
recomputed instead of aborting the resume.
"""

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.experiments import ablations, figure6, reassignment
from repro.gym import drivers
from repro.gym.drivers import SearchSpec, run_search
from repro.gym.fitness import GymSettings
from repro.gym.space import DesignSpace
from repro.robustness.journal import RunJournal
from repro.workloads.spec92 import SPEC92

TRACE_LENGTH = 600

GYM_SETTINGS = GymSettings(benchmarks=("compress",), trace_length=TRACE_LENGTH)
GYM_SPACE = DesignSpace(
    max_clusters=3,
    widths=(2, 4),
    queue_entries=(32, 64),
    registers=(64,),
    buffer_entries=(4, 8),
    extra_globals=(0, 2),
)


def _gym_run(journal):
    result = run_search(
        SearchSpec(driver="random", seed=42, budget=4),
        GYM_SPACE,
        GYM_SETTINGS,
        journal=journal,
    )
    return result.trials, result.frontier, result.fitness_series


@dataclass(frozen=True)
class Family:
    #: Module holding the sweep's task function, and that function's name.
    module: Any
    task: str
    #: Run the whole sweep against a journal (or ``None``).
    run: Callable[[Any], Any]
    #: Number of journaled points, in item order.
    points: int


FAMILIES = {
    "ablation": Family(
        ablations,
        "_point_task",
        lambda journal: ablations.run_threshold_ablation(
            SPEC92["ora"], thresholds=(0, 2, 8), trace_length=TRACE_LENGTH,
            journal=journal,
        ),
        3,
    ),
    "queue-size": Family(
        ablations,
        "_queue_size_task",
        lambda journal: ablations.run_queue_size_ablation(
            SPEC92["ora"], queue_sizes=(32, 64, 128), trace_length=TRACE_LENGTH,
            journal=journal,
        ),
        3,
    ),
    "figure6": Family(
        figure6,
        "run_figure6",
        lambda journal: figure6.run_figure6_sweep(
            thresholds=(0, 1, 2, 4, 8), journal=journal
        ),
        5,
    ),
    "reassignment": Family(
        reassignment,
        "_reassignment_task",
        lambda journal: reassignment.run_reassignment_demo(400, journal=journal),
        3,
    ),
    "gym": Family(drivers, "_trial_task", _gym_run, 4),
}

#: Families whose points are pickled artifacts (the gym journals inline
#: payloads and has its own resume tests in tests/gym/test_drivers.py).
ARTIFACT_FAMILIES = ["ablation", "queue-size", "figure6", "reassignment"]


@pytest.fixture(scope="module")
def reference():
    """Each family's uninterrupted, unjournaled result (lazily)."""
    cache: dict[str, Any] = {}

    def get(name):
        if name not in cache:
            cache[name] = FAMILIES[name].run(None)
        return cache[name]

    return get


def count_calls(monkeypatch, family, interrupt_at=None):
    """Wrap the family's task; the ``interrupt_at``-th call (1-based)
    raises ``KeyboardInterrupt``.  Returns the live call counter."""
    original = getattr(family.module, family.task)
    calls = []

    def task(item):
        calls.append(item)
        if len(calls) == interrupt_at:
            raise KeyboardInterrupt("simulated Ctrl-C")
        return original(item)

    monkeypatch.setattr(family.module, family.task, task)
    return calls


def point_rows(run_dir):
    """Journaled point rows in journal order (gym baselines excluded)."""
    with RunJournal(run_dir) as journal:
        return [
            entry for entry in journal.entries()
            if not entry.key.startswith("gym:baseline:")
        ]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_interrupt_keeps_finished_points(name, tmp_path, monkeypatch, reference):
    family = FAMILIES[name]
    run_dir = tmp_path / "run"
    k = 3
    with monkeypatch.context() as patch:
        count_calls(patch, family, interrupt_at=k)
        with RunJournal(run_dir) as journal, pytest.raises(KeyboardInterrupt):
            family.run(journal)
    assert len(point_rows(run_dir)) == k - 1

    calls = count_calls(monkeypatch, family)
    with RunJournal(run_dir) as journal:
        resumed = family.run(journal)
    assert len(calls) == family.points - (k - 1)
    assert resumed == reference(name)


@pytest.mark.parametrize("name", ARTIFACT_FAMILIES)
class TestResume:
    def complete_journal(self, name, run_dir):
        with RunJournal(run_dir) as journal:
            FAMILIES[name].run(journal)
        return point_rows(run_dir)

    def test_partial_journal_then_resume(self, name, tmp_path, monkeypatch, reference):
        run_dir = tmp_path / "run"
        self.complete_journal(name, run_dir)
        # A crash after the first row: only that line survives.
        path = run_dir / "journal.jsonl"
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        calls = count_calls(monkeypatch, FAMILIES[name])
        with RunJournal(run_dir) as journal:
            resumed = FAMILIES[name].run(journal)
        assert len(calls) == FAMILIES[name].points - 1
        assert resumed == reference(name)

    def test_journaled_points_are_not_recomputed(
        self, name, tmp_path, monkeypatch, reference
    ):
        run_dir = tmp_path / "run"
        rows = self.complete_journal(name, run_dir)
        assert len(rows) == FAMILIES[name].points
        assert all(row.artifact and row.payload is None for row in rows)
        calls = count_calls(monkeypatch, FAMILIES[name])
        with RunJournal(run_dir) as journal:
            resumed = FAMILIES[name].run(journal)
        assert calls == []
        assert resumed == reference(name)

    def test_damaged_artifact_is_recomputed(
        self, name, tmp_path, monkeypatch, reference
    ):
        run_dir = tmp_path / "run"
        rows = self.complete_journal(name, run_dir)
        (run_dir / rows[-1].artifact).write_bytes(b"\x80not a pickle")
        calls = count_calls(monkeypatch, FAMILIES[name])
        with RunJournal(run_dir) as journal:
            resumed = FAMILIES[name].run(journal)
        assert len(calls) == 1
        assert resumed == reference(name)
