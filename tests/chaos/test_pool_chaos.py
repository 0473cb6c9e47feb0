"""Fabric hardening under injected faults: every chaos kind recovers.

Each test arms one explicit fault against a real :class:`WorkerPool`
and asserts three things: the run completes, the results are the ones
a clean run produces, and the recovery is visible in the pool's
accounting (counters, ``TaskResult`` provenance, incidents).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

import repro.parallel.pool as pool_module
from repro.chaos import ChaosAction, ChaosPlan
from repro.interp.trace import ColumnarTrace, TraceEntry
from repro.ir.instruction import Instruction, Opcode
from repro.ir.types import gen_reg, pred_reg
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    PoolTask,
    TransientTaskError,
    WorkerPool,
)

pytestmark = pytest.mark.chaos_smoke


def echo(payload):
    return {"pid": os.getpid(), "value": payload["x"]}


def make_trace(events: int = 1500) -> ColumnarTrace:
    r0, r1 = gen_reg(0), gen_reg(1)
    add = Instruction(Opcode.ADD, dest=r0, srcs=[r0, r1])
    load = Instruction(Opcode.LOAD, dest=r1, srcs=[r0], region="arr")
    br = Instruction(Opcode.BR, srcs=[pred_reg(0)], targets=["a", "b"])
    trace = ColumnarTrace()
    for i in range(events):
        trace.append_entry(TraceEntry(add, block="body"))
        trace.append_entry(TraceEntry(load, addr=i * 8, block="body"))
        trace.append_entry(TraceEntry(br, taken=bool(i & 1), block="body"))
    return trace


def big_trace_task(payload):
    return {"index": payload["index"], "trace": make_trace()}


def flaky_in_worker(payload):
    """Raises TransientTaskError from the *task function itself* (no
    chaos plan) until a marker directory holds enough failure stamps."""
    if multiprocessing.parent_process() is None:
        return {"value": payload["x"], "where": "driver"}
    stamp = os.path.join(payload["dir"], f"flake-{payload['x']}")
    count = 0
    if os.path.exists(stamp):
        with open(stamp, encoding="utf-8") as fh:
            count = int(fh.read() or 0)
    if count < payload["failures"]:
        with open(stamp, "w", encoding="utf-8") as fh:
            fh.write(str(count + 1))
        raise TransientTaskError(f"flake {count + 1} of {payload['x']}")
    return {"value": payload["x"], "where": "worker"}


def sleep_in_worker(payload):
    """Hangs in a worker; returns instantly in the driver (so the
    fallback path stays fast when a test exhausts worker attempts)."""
    if multiprocessing.parent_process() is not None:
        time.sleep(payload["seconds"])
    return {"value": payload["x"], "pid": os.getpid()}


def ignore_sigterm_and_sleep(payload):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    with open(payload["marker"], "w", encoding="utf-8") as fh:
        fh.write("armed\n")
    time.sleep(60)
    return {"x": payload["x"]}


def tasks(n, timeout=None):
    return [PoolTask(f"t{i}", echo, {"x": i}, timeout=timeout)
            for i in range(n)]


class TestKill:
    def test_killed_worker_task_is_retried_clean(self):
        plan = ChaosPlan.explicit({"t1": ChaosAction("kill")})
        with WorkerPool(2, chaos=plan) as pool:
            results = pool.run(tasks(4))
        assert [r.value["value"] for r in results] == [0, 1, 2, 3]
        assert pool.crashes == 1
        assert pool.fallbacks == 0
        by_id = {r.task.id: r for r in results}
        assert by_id["t1"].attempts == 2
        assert not by_id["t1"].degraded
        assert any(i.kind == "worker-crash" for i in pool.incidents)

    def test_kill_after_run_is_retried_clean(self):
        """A worker that dies after running a task, with its result
        pickled but never sent: the rerouted task's result must be
        byte-identical to a clean run's."""
        with WorkerPool(2) as clean_pool:
            expect = {r.task.id: r.value for r in clean_pool.run([
                PoolTask(f"t{i}", big_trace_task, {"index": i})
                for i in range(4)
            ])}
        plan = ChaosPlan.explicit({
            "t0": ChaosAction("kill-after-run"),
            "t2": ChaosAction("kill-after-run"),
        })
        with WorkerPool(2, chaos=plan) as pool:
            results = pool.run([
                PoolTask(f"t{i}", big_trace_task, {"index": i})
                for i in range(4)
            ])
        assert pool.crashes == 2
        assert pool.fallbacks == 0
        by_id = {r.task.id: r.value for r in results}
        for tid, value in expect.items():
            assert by_id[tid]["index"] == value["index"]
            assert by_id[tid]["trace"].column_bytes() == \
                value["trace"].column_bytes()


class TestHangAndDeadlines:
    def test_hung_worker_is_reaped_and_task_rerouted(self):
        plan = ChaosPlan.explicit(
            {"t0": ChaosAction("hang", seconds=30.0)})
        start = time.monotonic()
        with WorkerPool(2, chaos=plan) as pool:
            results = pool.run(tasks(4, timeout=0.5))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0  # nowhere near the 30s sleep
        assert [r.value["value"] for r in results] == [0, 1, 2, 3]
        by_id = {r.task.id: r for r in results}
        assert by_id["t0"].timed_out
        assert by_id["t0"].attempts == 2
        assert not by_id["t0"].degraded
        assert pool.timeouts == 1
        assert pool.workers_reaped == 1
        assert any(i.kind == "worker-hang" for i in pool.incidents)

    def test_repeated_hangs_degrade_to_driver_execution(self):
        # The task sleeps past its deadline in *every* worker attempt;
        # the driver fallback (deadline-free by design) completes it.
        with WorkerPool(2, max_worker_attempts=2) as pool:
            results = pool.run([
                PoolTask("h0", sleep_in_worker, {"x": 0, "seconds": 30.0},
                         timeout=0.3),
                PoolTask("h1", echo, {"x": 1}),
            ])
        by_id = {r.task.id: r for r in results}
        assert by_id["h0"].value["value"] == 0
        assert by_id["h0"].value["pid"] == os.getpid()
        assert by_id["h0"].degraded and by_id["h0"].timed_out
        assert by_id["h1"].value["value"] == 1
        assert pool.timeouts == 2
        assert pool.fallbacks == 1

    def test_slow_but_within_deadline_is_untouched(self):
        plan = ChaosPlan.explicit(
            {"t0": ChaosAction("slow", seconds=0.1)})
        with WorkerPool(2, chaos=plan) as pool:
            results = pool.run(tasks(4, timeout=30.0))
        assert [r.value["value"] for r in results] == [0, 1, 2, 3]
        assert pool.timeouts == 0
        assert pool.crashes == 0
        assert all(not r.timed_out for r in results)

    def test_no_deadline_means_no_watchdog(self):
        with WorkerPool(2) as pool:
            results = pool.run(tasks(4, timeout=None))
        assert pool.timeouts == 0
        assert [r.value["value"] for r in results] == [0, 1, 2, 3]


class TestTransientRetry:
    def test_chaos_flake_is_absorbed_by_backoff_retry(self):
        plan = ChaosPlan.explicit(
            {"t2": ChaosAction("flaky", attempts=2)})
        with WorkerPool(2, chaos=plan, retry_base=0.01) as pool:
            results = pool.run(tasks(4))
        by_id = {r.task.id: r for r in results}
        assert by_id["t2"].value["value"] == 2
        assert by_id["t2"].retries == 2
        assert not by_id["t2"].degraded
        assert pool.retries == 2
        assert pool.crashes == 0  # transient != crash
        assert sum(1 for i in pool.incidents
                   if i.kind == "task-transient") == 2

    def test_task_raised_transient_error_retries_without_chaos(self, tmp_path):
        task = PoolTask("f0", flaky_in_worker,
                        {"x": 5, "dir": str(tmp_path), "failures": 2})
        with WorkerPool(2, retry_base=0.01) as pool:
            results = pool.run([task])
        assert results[0].value == {"value": 5, "where": "worker"}
        assert results[0].retries == 2
        assert not results[0].degraded

    def test_exhausted_retries_fall_back_to_driver(self):
        plan = ChaosPlan.explicit(
            {"t0": ChaosAction("flaky", attempts=99)})
        with WorkerPool(2, chaos=plan, max_task_retries=2,
                        retry_base=0.01) as pool:
            results = pool.run(tasks(2))
        by_id = {r.task.id: r for r in results}
        # Chaos only lives in workers: the driver fallback ran clean.
        assert by_id["t0"].value["value"] == 0
        assert by_id["t0"].value["pid"] == os.getpid()
        assert by_id["t0"].degraded
        assert by_id["t0"].retries == 2
        assert pool.fallbacks == 1

    def test_backoff_delays_are_deterministic(self):
        pool = WorkerPool(1, retry_base=0.05, retry_cap=2.0)
        flight = pool_module._Flight(PoolTask("x", echo, {}), retries=1)
        first = pool._backoff_delay(flight)
        assert first == pool._backoff_delay(flight)
        flight.retries = 4
        later = pool._backoff_delay(flight)
        assert later > first
        assert later <= pool.retry_cap
        pool.close()


class TestCacheCorruption:
    def test_cache_corrupt_is_recovered_as_a_miss(self, tmp_path):
        from repro.incr.store import ArtifactStore

        store = ArtifactStore(persist_dir=str(tmp_path))
        store.put_artifact("key1", {"payload": 123})
        store.pin("plan", [], ["key1"])
        assert store.get_artifact("key1") == {"payload": 123}

        # The store keeps entries under shard-<i>/; the pin file beside
        # them is never the victim.
        ChaosAction("cache-corrupt", cache_dir=str(tmp_path)).apply_before()
        fresh = ArtifactStore(persist_dir=str(tmp_path))
        # Corrupt entry -> counted miss, not an error; recompute works.
        assert fresh.get_artifact("key1") is None
        assert fresh.stats().get("corrupt_evictions", 0) == 1
        fresh.put_artifact("key1", {"payload": 123})
        assert fresh.get_artifact("key1") == {"payload": 123}


class TestCloseEscalation:
    def test_close_kills_workers_that_ignore_sigterm(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(pool_module, "JOIN_TIMEOUT", 0.3)
        registry = MetricsRegistry()
        pool = WorkerPool(2, metrics=registry)
        pool.run(tasks(2))  # fork the workers
        victim = pool._workers[0]
        marker = str(tmp_path / "sigterm-armed")
        victim.inbox.put(
            ("stuck", ignore_sigterm_and_sleep, {"x": 0, "marker": marker}, 1))
        deadline = time.monotonic() + 10.0
        # Wait until the worker has masked SIGTERM before closing.
        while not os.path.exists(marker):
            assert time.monotonic() < deadline, "worker never armed"
            time.sleep(0.02)
        pool.close()
        assert not victim.process.is_alive()
        assert pool.workers_killed >= 1
        assert registry.snapshot()["pool.workers_killed"] >= 1
        assert any(i.kind == "worker-kill" for i in pool.incidents)

    def test_clean_close_kills_nothing(self):
        registry = MetricsRegistry()
        pool = WorkerPool(2, metrics=registry)
        pool.run(tasks(4))
        pool.close()
        assert pool.workers_killed == 0
        assert registry.snapshot().get("pool.workers_killed", 0) == 0


class TestMetricsAccounting:
    def test_counters_record_per_run_deltas_not_totals(self):
        # Two chaotic runs against one registry: the counter must equal
        # the sum of per-run deltas, not double-count earlier runs.
        plan = ChaosPlan.explicit({"t1": ChaosAction("kill")})
        registry = MetricsRegistry()
        with WorkerPool(2, metrics=registry, chaos=plan) as pool:
            pool.run(tasks(3))
            pool.run(tasks(3))  # t1 killed again (fresh run, dispatch 1)
        snapshot = registry.snapshot()
        assert pool.crashes == 2
        assert snapshot["pool.crashes"] == 2

    def test_retry_and_timeout_metrics_are_per_worker(self):
        plan = ChaosPlan.explicit(
            {"t0": ChaosAction("flaky", attempts=1),
             "t1": ChaosAction("hang", seconds=30.0)})
        registry = MetricsRegistry()
        with WorkerPool(2, metrics=registry, chaos=plan,
                        retry_base=0.01) as pool:
            pool.run(tasks(4, timeout=0.5))
        snapshot = registry.snapshot()
        retries = sum(v for k, v in snapshot.items()
                      if k.startswith("pool.retries{"))
        timeouts = sum(v for k, v in snapshot.items()
                       if k.startswith("pool.timeouts{"))
        assert retries == 1
        assert timeouts == 1
        assert snapshot["pool.retries"] == 1
        assert snapshot["pool.timeouts"] == 1
        assert snapshot["pool.workers_reaped"] == 1
