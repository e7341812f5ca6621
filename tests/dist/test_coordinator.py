"""DistributedExecutor: leases, host loss, dedup, cascade, bit identity."""

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.dist.coordinator import (
    DistributedExecutor,
    task_fingerprint,
    task_row_key,
)
from repro.dist.protocol import recv_message, send_message
from repro.dist.worker import WorkerDaemon, echo_task
from repro.errors import ConfigError
from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.perf.executor import SweepTask
from repro.perf.fingerprint import fingerprint
from repro.robustness.faultinject import FaultPlan, FaultSpec
from repro.robustness.journal import RunJournal, merge_journals

TL = 600
SRC_DIR = Path(repro.__file__).resolve().parent.parent


def _tasks(n=3):
    return [SweepTask(benchmark=f"b{i}", part="single") for i in range(n)]


def _run_all(executor, tasks):
    with executor:
        for task in tasks:
            executor.submit(task)
        out = {}
        while executor.outstanding:
            for result in executor.poll():
                out[result.task.token] = result
    return out


def _thread_worker(port, host, **kwargs):
    daemon = WorkerDaemon(f"127.0.0.1:{port}", host=host, **kwargs)
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    return thread


def _spawn_worker(port, host, run_dir=None, plan_file=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro", "worker", "serve",
        "--connect", f"127.0.0.1:{port}", "--host", host,
        "--connect-retries", "120", "--quiet",
    ]
    if run_dir is not None:
        cmd += ["--run-dir", str(run_dir)]
    if plan_file is not None:
        cmd += ["--fault-plan", str(plan_file)]
    return subprocess.Popen(cmd, env=env)


def _reap(workers):
    for proc in workers:
        if proc.poll() is None:
            proc.kill()
    for proc in workers:
        proc.wait(timeout=10.0)


def _write_plan(tmp_path, *specs):
    plan = FaultPlan(specs=tuple(specs))
    plan_file = tmp_path / "host-fault-plan.json"
    plan_file.write_text(json.dumps(plan.as_dict()), encoding="utf-8")
    return plan_file


class TestRowKeys:
    def test_row_key_is_part_scoped(self):
        assert task_row_key(_tasks(1)[0]) == "part:b0:single"

    def test_fingerprint_is_deterministic_and_options_sensitive(self):
        plain = SweepTask(benchmark="b0", part="single")
        assert task_fingerprint(plain) == task_fingerprint(
            SweepTask(benchmark="b0", part="single")
        )
        sized = SweepTask(
            benchmark="b0",
            part="single",
            options=EvaluationOptions(trace_length=123),
        )
        assert task_fingerprint(plain) != task_fingerprint(sized)


class TestConfigValidation:
    def test_bad_knobs_rejected(self):
        for kwargs in (
            {"min_hosts": 0},
            {"task_timeout": 0.0},
            {"redispatch_budget": -1},
            {"fallback": "threads"},
        ):
            with pytest.raises(ConfigError):
                DistributedExecutor(echo_task, jobs=1, **kwargs)

    def test_unbindable_port_is_typed(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ConfigError, match="bind"):
                DistributedExecutor(echo_task, jobs=1, port=port)
        finally:
            blocker.close()


class TestHappyPath:
    def test_two_hosts_deliver_every_task_once(self):
        ex = DistributedExecutor(
            echo_task, jobs=2, min_hosts=2, wait_for_hosts_s=30.0
        )
        port = ex.address[1]
        _thread_worker(port, "h0")
        _thread_worker(port, "h1")
        results = _run_all(ex, _tasks(6))
        assert len(results) == 6
        assert all(r.dispatches == 1 for r in results.values())
        assert ex.degradations == []
        assert ex.host_losses == 0
        snapshot = ex.metrics.snapshot()
        assert snapshot["dist_tasks_completed"] == 6
        assert snapshot["dist_hosts_registered"] == 2

    def test_results_echo_their_payloads(self):
        ex = DistributedExecutor(
            echo_task, jobs=1, min_hosts=1, wait_for_hosts_s=30.0
        )
        _thread_worker(ex.address[1], "h0")
        results = _run_all(ex, _tasks(2))
        assert results["b1:single"].value == ("b1", "single", None)


class TestVersionSkew:
    def test_skewed_worker_gets_goodbye(self):
        ex = DistributedExecutor(
            echo_task, jobs=1, min_hosts=1, wait_for_hosts_s=30.0
        )
        rogue = socket.create_connection(ex.address, timeout=10.0)
        rogue.settimeout(10.0)
        send_message(rogue, "register", host="rogue", pid=0, version=999)
        _thread_worker(ex.address[1], "h0")
        try:
            results = _run_all(ex, _tasks(2))
            assert len(results) == 2
            kind, data = recv_message(rogue)
            assert kind == "goodbye"
            assert "version" in data["reason"]
        finally:
            rogue.close()


class TestDegradationCascade:
    def test_no_hosts_falls_back_to_supervised(self):
        ex = DistributedExecutor(
            echo_task, jobs=2, min_hosts=1, wait_for_hosts_s=0.2
        )
        results = _run_all(ex, _tasks(4))
        assert len(results) == 4
        reasons = [d.reason for d in ex.degradations]
        assert reasons == ["no-hosts"]

    def test_no_hosts_serial_fallback(self):
        ex = DistributedExecutor(
            echo_task, jobs=2, min_hosts=1, wait_for_hosts_s=0.2,
            fallback="serial",
        )
        results = _run_all(ex, _tasks(3))
        assert len(results) == 3
        assert [d.reason for d in ex.degradations] == ["no-hosts"]
        assert all(r.dispatches == 1 for r in results.values())
        assert ex.metrics.snapshot()["dist_tasks_completed"] == 3


class TestHostFaults:
    """Each host fault kind, deterministically, with real subprocesses."""

    def test_host_kill_is_survived(self, tmp_path):
        plan_file = _write_plan(
            tmp_path,
            FaultSpec(kind="host_kill", benchmark="b0", clear_after=1),
        )
        ex = DistributedExecutor(
            echo_task, jobs=2, min_hosts=2, wait_for_hosts_s=60.0,
            task_timeout=60.0,
        )
        workers = [
            _spawn_worker(ex.address[1], f"h{i}", plan_file=plan_file)
            for i in range(2)
        ]
        try:
            results = _run_all(ex, _tasks(4))
        finally:
            _reap(workers)
        assert len(results) == 4
        assert results["b0:single"].dispatches == 2
        assert ex.host_losses >= 1
        assert ex.degradations == []

    def test_host_stall_hits_task_deadline(self, tmp_path):
        plan_file = _write_plan(
            tmp_path,
            FaultSpec(kind="host_stall", benchmark="b0", clear_after=1),
        )
        ex = DistributedExecutor(
            echo_task, jobs=2, min_hosts=2, wait_for_hosts_s=60.0,
            task_timeout=1.5,
        )
        workers = [
            _spawn_worker(ex.address[1], f"h{i}", plan_file=plan_file)
            for i in range(2)
        ]
        try:
            results = _run_all(ex, _tasks(4))
        finally:
            _reap(workers)  # the stalled host is wedged by design
        assert len(results) == 4
        assert results["b0:single"].dispatches == 2
        assert ex.host_losses >= 1
        assert ex.degradations == []

    def test_host_partition_journals_before_dropping(self, tmp_path):
        # The partitioned host completes AND journals the row, then
        # drops the socket: the re-dispatch duplicates the work, and the
        # shard merge must fold both copies into one row.
        plan_file = _write_plan(
            tmp_path,
            FaultSpec(kind="host_partition", benchmark="b0", clear_after=1),
        )
        ex = DistributedExecutor(
            echo_task, jobs=2, min_hosts=2, wait_for_hosts_s=60.0,
            task_timeout=60.0,
        )
        workers = [
            _spawn_worker(
                ex.address[1], f"h{i}", run_dir=tmp_path, plan_file=plan_file
            )
            for i in range(2)
        ]
        try:
            results = _run_all(ex, _tasks(3))
        finally:
            _reap(workers)
        assert len(results) == 3
        assert results["b0:single"].dispatches == 2
        assert ex.host_losses >= 1
        # Both hosts journaled the partitioned row; the merge dedups it.
        shard_rows = []
        for shard_file in tmp_path.glob("journal-h*.jsonl"):
            shard = RunJournal(tmp_path, shard=shard_file.stem.split("-", 1)[1])
            shard_rows.extend(
                entry.key for entry in shard.entries() if entry.completed
            )
            shard.close()
        assert shard_rows.count("part:b0:single") == 2
        report = merge_journals([tmp_path], tmp_path / "merged")
        assert report.duplicates_dropped == 1
        merged = RunJournal(tmp_path / "merged")
        try:
            assert merged.entry("part:b0:single").completed
        finally:
            merged.close()

    def test_persistent_fault_exhausts_hosts_then_falls_back(self, tmp_path):
        # clear_after=None: b0 takes down every host that leases it.
        # With two hosts the coordinator must reach all-hosts-lost and
        # still deliver everything through the local fallback.
        plan_file = _write_plan(
            tmp_path, FaultSpec(kind="host_kill", benchmark="b0")
        )
        ex = DistributedExecutor(
            echo_task, jobs=2, min_hosts=2, wait_for_hosts_s=60.0,
            task_timeout=60.0,
        )
        workers = [
            _spawn_worker(ex.address[1], f"h{i}", plan_file=plan_file)
            for i in range(2)
        ]
        try:
            results = _run_all(ex, _tasks(3))
        finally:
            _reap(workers)
        assert len(results) == 3
        assert ex.host_losses == 2
        reasons = [d.reason for d in ex.degradations]
        assert reasons and reasons[0] in (
            "all-hosts-lost", "host-circuit-breaker"
        )


class TestAcceptanceDistributed:
    def test_table2_survives_kill_and_partition_bit_identically(self, tmp_path):
        """ISSUE 8 acceptance: a Table 2 sweep across two localhost
        workers — one SIGKILLed, one partitioned mid-run — produces a
        merged journal and stats bit-identical to the serial run."""
        serial = run_table2(["compress"], EvaluationOptions(trace_length=TL))
        plan_file = _write_plan(
            tmp_path,
            FaultSpec(kind="host_kill", benchmark="compress",
                      part="single", clear_after=1),
            FaultSpec(kind="host_partition", benchmark="compress",
                      part="dual_none", clear_after=1),
        )
        ex_port = _free_port()
        workers = [
            _spawn_worker(ex_port, f"h{i}", run_dir=tmp_path,
                          plan_file=plan_file)
            for i in range(2)
        ]
        journal = RunJournal(tmp_path, shard="coord")
        try:
            survived = run_table2(
                ["compress"],
                EvaluationOptions(
                    trace_length=TL,
                    jobs=2,
                    executor="distributed",
                    task_timeout=60.0,
                    dist_port=ex_port,
                    dist_min_hosts=2,
                    dist_wait_s=60.0,
                ),
                journal=journal,
            )
        finally:
            journal.close()
            _reap(workers)
        assert survived.failures == []
        row_s, row_d = serial.rows[0], survived.rows[0]
        for part in ("single", "dual_none", "dual_local"):
            want = fingerprint(getattr(row_s.evaluation, part).stats.as_dict())
            got = fingerprint(getattr(row_d.evaluation, part).stats.as_dict())
            assert got == want, f"compress/{part} diverged"
        merge_journals([tmp_path], tmp_path / "merged")
        merged = RunJournal(tmp_path / "merged")
        try:
            entry = merged.entry("table2:compress")
            assert entry is not None and entry.completed
            assert merged.load_artifact(entry) is not None
        finally:
            merged.close()


def _free_port():
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
