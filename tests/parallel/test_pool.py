"""Worker-pool semantics: parity, crash recovery, accounting.

Everything here must hold on a 1-core container: the pool's guarantees
are about *correctness* (bit-identical results, exact accounting,
always-completes), not about observed wall-clock speedups.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.interp.trace import ColumnarTrace, TraceEntry
from repro.ir.instruction import Instruction, Opcode
from repro.ir.types import gen_reg, pred_reg
from repro.obs.metrics import MetricsRegistry, parse_metric_key
from repro.parallel import PoolTask, TaskFailed, WorkerPool, worker_arena

pytestmark = pytest.mark.parallel_smoke


def square(payload):
    return {"pid": os.getpid(), "value": payload["x"] * payload["x"]}


def arena_counter(payload):
    arena = worker_arena()
    arena["calls"] = arena.get("calls", 0) + 1
    return {"pid": os.getpid(), "calls": arena["calls"]}


def explode(payload):
    raise ValueError(f"bad payload {payload['x']}")


def crash_once(payload):
    marker = os.path.join(payload["dir"], f"crashed-{payload['x']}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("x\n")
        os._exit(13)
    return {"value": payload["x"]}


def crash_always(payload):
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return {"value": payload["x"], "pid": os.getpid()}


def unpicklable(payload):
    return {"lock": threading.Lock()}


def unpickles_badly(payload):
    # Pickles fine; on load its constructor gets only ``args`` and
    # misses ``detail``.
    return TaskFailed("inner", "detail")


def echo_trace(payload):
    return {"trace": payload["trace"]}


def make_trace(entries: int = 2000) -> ColumnarTrace:
    r0, r1 = gen_reg(0), gen_reg(1)
    add = Instruction(Opcode.ADD, dest=r0, srcs=[r0, r1])
    load = Instruction(Opcode.LOAD, dest=r1, srcs=[r0], region="arr")
    br = Instruction(Opcode.BR, srcs=[pred_reg(0)], targets=["a", "b"])
    trace = ColumnarTrace()
    for i in range(entries):
        trace.append_entry(TraceEntry(add, block="body"))
        trace.append_entry(TraceEntry(load, addr=1000 + i, block="body"))
        trace.append_entry(TraceEntry(br, taken=i % 3 == 0, block="body"))
    # An address outside int64 lives in the overflow side table.
    trace.append_entry(TraceEntry(load, addr=1 << 70, block="body"))
    return trace


def _statics(trace: ColumnarTrace) -> list[tuple]:
    return [(s.sid, s.block, s.root_uid, s.inst.render())
            for s in trace.statics]


def _tasks(n):
    return [PoolTask(f"t{i}", square, {"x": i}, cost=float(i + 1))
            for i in range(n)]


class TestParity:
    def test_parallel_matches_serial_bit_for_bit(self):
        with WorkerPool(1) as serial, WorkerPool(3) as parallel:
            expect = [r.value["value"] for r in serial.run(_tasks(16))]
            got = [r.value["value"] for r in parallel.run(_tasks(16))]
        assert got == expect

    def test_results_come_back_in_task_order(self):
        # Costs descend, so execution order differs from submission
        # order; the returned list must not.
        tasks = list(reversed(_tasks(9)))
        with WorkerPool(2) as pool:
            results = pool.run(tasks)
        assert [r.task.id for r in results] == [t.id for t in tasks]

    def test_work_is_actually_distributed(self):
        with WorkerPool(3) as pool:
            results = pool.run(_tasks(12))
            pids = {r.value["pid"] for r in results}
        assert len(pids) == 3
        assert os.getpid() not in pids

    def test_serial_runs_in_process(self):
        with WorkerPool(1) as pool:
            results = pool.run(_tasks(4))
        assert {r.value["pid"] for r in results} == {os.getpid()}
        assert pool.jobs == 1

    def test_duplicate_task_ids_rejected(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="unique"):
                pool.run([PoolTask("a", square, {"x": 1}),
                          PoolTask("a", square, {"x": 2})])


class TestWarmth:
    def test_workers_stay_warm_across_runs(self):
        # The arena persists for the worker's lifetime: a second
        # pool.run() sees the counts left by the first.
        with WorkerPool(2) as pool:
            first = pool.run([PoolTask(f"a{i}", arena_counter, {})
                              for i in range(4)])
            second = pool.run([PoolTask(f"b{i}", arena_counter, {})
                               for i in range(4)])
        by_pid_max = {}
        for r in first + second:
            pid = r.value["pid"]
            by_pid_max[pid] = max(by_pid_max.get(pid, 0), r.value["calls"])
        # Each worker accumulated across both runs (4 tasks/run over 2
        # workers -> someone reached at least 3 calls).
        assert max(by_pid_max.values()) >= 3

    def test_serial_lane_gets_a_fresh_arena_per_run(self):
        with WorkerPool(1) as pool:
            first = pool.run([PoolTask("a", arena_counter, {})])
            second = pool.run([PoolTask("b", arena_counter, {})])
        assert first[0].value["calls"] == 1
        assert second[0].value["calls"] == 1
        assert "calls" not in worker_arena()


class TestFailures:
    def test_task_exception_raises_task_failed(self):
        with WorkerPool(2) as pool:
            with pytest.raises(TaskFailed, match="bad payload 3"):
                pool.run([PoolTask("t", explode, {"x": 3})])
            # The pool survives a failed run.
            ok = pool.run([PoolTask("t2", square, {"x": 2})])
        assert ok[0].value["value"] == 4

    def test_serial_task_exception_raises_task_failed(self):
        with WorkerPool(1) as pool:
            with pytest.raises(TaskFailed, match="bad payload 9"):
                pool.run([PoolTask("t", explode, {"x": 9})])

    def test_crash_once_is_retried_on_a_fresh_worker(self, tmp_path):
        tasks = [PoolTask(f"c{i}", crash_once, {"x": i, "dir": str(tmp_path)})
                 for i in range(4)]
        with WorkerPool(2) as pool:
            results = pool.run(tasks)
            assert [r.value["value"] for r in results] == [0, 1, 2, 3]
            assert pool.crashes == 4
            assert pool.fallbacks == 0
            assert all(r.attempts == 2 for r in results)
            assert not any(r.degraded for r in results)
            # Respawned workers keep serving.
            again = pool.run([PoolTask("z", square, {"x": 6})])
        assert again[0].value["value"] == 36

    def test_repeated_crashes_degrade_to_driver_execution(self):
        tasks = [PoolTask(f"a{i}", crash_always, {"x": i}) for i in range(3)]
        with WorkerPool(2) as pool:
            results = pool.run(tasks)
        assert [r.value["value"] for r in results] == [0, 1, 2]
        assert all(r.degraded for r in results)
        assert all(r.worker == -1 for r in results)
        # Degraded tasks ran in the driver process itself.
        assert {r.value["pid"] for r in results} == {os.getpid()}
        assert pool.fallbacks == 3

    def test_cancel_stops_handing_out_work(self):
        seen = []

        def cancel(result):
            seen.append(result.task.id)
            return len(seen) >= 3

        with WorkerPool(2) as pool:
            results = pool.run(_tasks(20), cancel=cancel)
        assert 3 <= len(results) < 20


class TestTransport:
    """Results travel pickled over each worker's own pipe."""

    def test_unpicklable_result_raises_task_failed(self):
        with WorkerPool(2) as pool:
            with pytest.raises(TaskFailed, match="pickle"):
                pool.run([PoolTask("t", unpicklable, {})])
            # A task error, not a worker crash or a driver fallback.
            assert pool.crashes == 0
            assert pool.fallbacks == 0

    def test_result_that_fails_to_unpickle_raises_task_failed(self):
        with WorkerPool(2) as pool:
            with pytest.raises(TaskFailed, match="detail"):
                pool.run([PoolTask("t", unpickles_badly, {})])
            assert pool.fallbacks == 0
            # The pool survives a failed run.
            ok = pool.run([PoolTask("t2", square, {"x": 3})])
        assert ok[0].value["value"] == 9

    def test_columnar_trace_round_trips_through_the_pipe(self):
        trace = make_trace()
        with WorkerPool(2) as pool:
            results = pool.run([PoolTask(f"t{i}", echo_trace,
                                         {"trace": trace})
                                for i in range(2)])
        assert {r.worker for r in results} <= {0, 1}
        for result in results:
            got = result.value["trace"]
            assert got.column_bytes() == trace.column_bytes()
            assert _statics(got) == _statics(trace)
            assert got.addr_at(len(got) - 1) == 1 << 70


class TestTelemetry:
    def test_pool_metrics_account_for_every_task(self):
        registry = MetricsRegistry()
        with WorkerPool(2, metrics=registry) as pool:
            pool.run(_tasks(10))
        snapshot = registry.snapshot()
        tasks_per_worker = {}
        for key, value in snapshot.items():
            name, labels = parse_metric_key(key)
            if name == "pool.tasks":
                tasks_per_worker[int(labels["worker"])] = value
        assert sum(tasks_per_worker.values()) == 10
        assert snapshot["pool.workers"] == 2
        assert snapshot["pool.crashes"] == 0
        assert snapshot["pool.fallback_tasks"] == 0
        assert snapshot["pool.wall_seconds"] > 0
        for worker in (0, 1):
            util = snapshot[f"pool.utilization{{worker={worker}}}"]
            assert 0.0 <= util <= 1.0

    def test_serial_lane_records_the_same_metric_names(self):
        registry = MetricsRegistry()
        with WorkerPool(1, metrics=registry) as pool:
            pool.run(_tasks(5))
        snapshot = registry.snapshot()
        assert snapshot["pool.tasks{worker=0}"] == 5
        assert snapshot["pool.workers"] == 1
