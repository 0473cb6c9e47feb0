"""Persistent warm worker pool with crash, hang and flake recovery.

The pool is the execution half of the fabric (scheduling lives in
:mod:`repro.parallel.scheduler`).  Design points:

* **Warm workers.**  Workers are forked once and live for the pool's
  lifetime.  Each keeps a process-local *arena* (:func:`worker_arena`)
  where task functions park expensive state -- built cases, an open
  :class:`~repro.incr.store.ArtifactStore` handle -- so repeated
  tasks on the same workload never rebuild or re-decode them.
* **Pull dispatch.**  The driver hands each idle worker exactly one
  task; completion triggers the next dispatch.  All scheduling
  decisions (affinity, longest-first order, stealing) happen in the
  driver, so accounting is exact.
* **Lock-free result channels.**  Each worker incarnation reports
  results over its own single-writer pipe; the driver multiplexes them
  with :func:`multiprocessing.connection.wait`.  A shared queue would
  reintroduce the classic fork hazard this design exists to avoid: a
  worker dying inside the queue's locked critical section (its feeder
  thread mid-``send``) leaves the shared lock held forever and
  deadlocks every surviving worker.  With per-incarnation pipes a
  crash can only ever damage the dead worker's own channel.  A worker
  pickles each result itself, inside the task's error handling, so a
  result that cannot be pickled surfaces as :class:`TaskFailed` rather
  than as a worker crash.
* **Crash recovery.**  A worker that dies mid-task (OOM kill, induced
  crash in tests) is detected by liveness polling; its pipe is drained
  first -- a fully sent result is still honoured -- then the task is
  retried on a fresh incarnation, and a task that kills its worker
  twice runs *in the driver process* with the result marked
  ``degraded``.  The sweep always completes, and the caller can report
  exactly which results took the fallback path.  Deterministic task
  exceptions are not retried: they surface as :class:`TaskFailed`.
* **Hang recovery.**  A task may carry a deadline
  (:attr:`~repro.parallel.scheduler.PoolTask.timeout`); a worker that
  blows it is *reaped* -- ``terminate()``, escalating to ``kill()``
  when it ignores the signal -- and the task is rerouted exactly like
  a crash.  Its pipe is drained first, so a result that was fully sent
  moments before the deadline is still honoured.
* **Transient retry.**  A task that raises :class:`TransientTaskError`
  is redispatched to the same worker after a jittered exponential
  backoff, up to ``max_task_retries`` times, before the in-driver
  fallback.  Deterministic failures stay fail-fast.
* **Forensics.**  Every crash, reap, transient retry and driver
  fallback appends an :class:`~repro.resilience.incident.IncidentReport`
  (``domain="pool"``) to :attr:`WorkerPool.incidents`, so a degraded
  sweep is diagnosable from artifacts alone.
* **Serial fallback.**  ``jobs <= 1`` -- or a platform that cannot
  fork -- runs every task in-process in the same scheduled order, so
  callers never need a second code path and results are bit-identical
  by construction.
* **Chaos injection.**  ``WorkerPool(chaos=plan)`` arms a
  :class:`~repro.chaos.ChaosPlan`: workers consult it before and after
  each task attempt and deterministically kill, hang, slow or flake
  themselves, or scribble over a store entry (see ``docs/CHAOS.md``).
  The driver is never perturbed, so the recovery paths above -- not
  the fault injection -- decide what the caller observes.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import random
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Optional

from repro.parallel.scheduler import PoolTask, StealScheduler, TaskResult
from repro.resilience.incident import IncidentReport

#: Seconds between liveness checks while waiting for results.
POLL_INTERVAL = 0.05

#: Seconds a worker gets to exit cleanly before being terminated, and
#: to die after ``terminate()`` before the escalation to ``kill()``.
JOIN_TIMEOUT = 2.0

#: Retained :class:`IncidentReport` objects per pool (counters keep
#: exact totals past the cap; the reports are forensic samples).
INCIDENT_CAP = 64

#: Process-local arena task functions share across a worker's lifetime.
_ARENA: dict = {}


def worker_arena() -> dict:
    """The current process's task arena (worker or driver)."""
    return _ARENA


class fresh_arena:
    """Context manager giving the enclosed code an empty arena.

    Used by in-driver execution lanes (serial runs, verification
    re-runs) so their cache behaviour matches a cold worker.
    """

    def __enter__(self):
        global _ARENA
        self._saved = _ARENA
        _ARENA = {}
        return _ARENA

    def __exit__(self, *exc):
        global _ARENA
        _ARENA = self._saved
        return False


class TaskFailed(RuntimeError):
    """A task raised a (deterministic) exception in its worker."""

    def __init__(self, task_id: str, detail: str) -> None:
        super().__init__(f"task {task_id!r} failed:\n{detail}")
        self.task_id = task_id
        self.detail = detail


class TransientTaskError(RuntimeError):
    """A task failure worth retrying (flaky I/O, injected chaos flake).

    Raised by task functions -- or by the chaos injector on their
    behalf -- to request the bounded backoff-retry path instead of the
    fail-fast :class:`TaskFailed` surface.  A task that keeps raising
    it past ``max_task_retries`` falls back to the driver process; if
    it still raises there, the failure is treated as deterministic.
    """


def _first_line(text: str) -> str:
    lines = [line for line in str(text).strip().splitlines() if line.strip()]
    return lines[-1] if lines else ""


def _worker_main(inbox, conn, chaos=None) -> None:
    _ARENA.clear()  # fork copies the driver arena; workers start cold
    while True:
        message = inbox.get()
        if message is None:
            break
        task_id, fn, payload, dispatch = message
        action = chaos.action(task_id, dispatch) if chaos is not None else None
        start = time.perf_counter()
        try:
            if action is not None:
                action.apply_before()
            # Pickled here, inside the try: an unpicklable result is the
            # task's error, not a crash in ``conn.send``.
            body = pickle.dumps(fn(payload), protocol=pickle.HIGHEST_PROTOCOL)
            if action is not None:
                action.apply_after()
        except TransientTaskError:
            conn.send((task_id, "transient", time.perf_counter() - start,
                       traceback.format_exc()))
            continue
        except BaseException:
            conn.send((task_id, "err", time.perf_counter() - start,
                       traceback.format_exc()))
            continue
        conn.send((task_id, "ok", time.perf_counter() - start, body))
    conn.close()


@dataclass
class _Flight:
    task: PoolTask
    attempts: int = 1
    stolen: bool = False
    #: Transient redispatches consumed so far.
    retries: int = 0
    #: Total sends to any worker (the attempt index chaos plans see).
    dispatches: int = 0
    #: Monotonic deadline of the current attempt (None = no watchdog).
    deadline: Optional[float] = None
    timed_out: bool = False


class _Worker:
    def __init__(self, worker_id: int, process, inbox, conn,
                 incarnation: int) -> None:
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox
        #: Driver-side read end of this incarnation's result pipe.
        self.conn = conn
        self.incarnation = incarnation


class WorkerPool:
    """Fork-based persistent pool; see module docstring.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    per-worker ``pool.*`` telemetry: task counts, busy seconds,
    utilization, steal counts and crash/hang/retry/fallback counters.

    ``chaos`` arms a chaos plan (see :mod:`repro.chaos`) that workers
    consult per task attempt; ``max_task_retries``, ``retry_base`` and
    ``retry_cap`` bound the transient-retry backoff loop.
    """

    def __init__(self, jobs: int, metrics=None,
                 max_worker_attempts: int = 2, chaos=None,
                 max_task_retries: int = 3, retry_base: float = 0.05,
                 retry_cap: float = 2.0) -> None:
        self.requested = max(1, jobs)
        self._metrics = metrics
        self.max_worker_attempts = max(1, max_worker_attempts)
        self.max_task_retries = max(0, max_task_retries)
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self._chaos = chaos
        self._ctx = None
        if self.requested > 1:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:
                self._ctx = None
        #: Worker count actually in effect (1 = serial in-process).
        self.jobs = self.requested if self._ctx is not None else 1
        self._workers: list[_Worker] = []
        self._closed = False
        #: Reentrancy guard for :meth:`close` (a signal handler that
        #: interrupts a close in progress must return, not escalate).
        self._closing = False
        self._close_lock = threading.Lock()
        #: Serialises :meth:`run` across lease holders (reentrant, so a
        #: lease holder's own ``run`` calls nest freely).
        self._lease_lock = threading.RLock()
        self.crashes = 0
        self.fallbacks = 0
        self.timeouts = 0
        self.retries = 0
        self.workers_reaped = 0
        self.workers_killed = 0
        #: Pool-level forensics: one report per crash/reap/retry/
        #: fallback, capped at INCIDENT_CAP (counters stay exact).
        self.incidents: list[IncidentReport] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _start_workers(self) -> None:
        if self._workers or self._ctx is None:
            return
        for worker_id in range(self.jobs):
            inbox = self._ctx.SimpleQueue()
            self._workers.append(self._spawn(worker_id, inbox, 0))

    def warm(self) -> None:
        """Fork the workers now instead of lazily on the first run.

        Long-lived callers (the compile service) warm the pool from
        their main thread *before* starting auxiliary threads: forking
        a multi-threaded process can copy another thread's held locks
        into the child, and a pool warmed early never has to.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._start_workers()

    @contextlib.contextmanager
    def lease(self):
        """Exclusive use of the pool for one logical client.

        Concurrent threads sharing one warm pool (service dispatchers,
        parallel test drivers) each wrap their :meth:`run` calls in a
        lease; holders queue FIFO on the internal lock, and every run
        still gets exact scheduling and accounting because only one
        lease executes at a time.  The lock is reentrant: a lease
        holder may call :meth:`run` (which takes the same lock) or
        nest leases without deadlocking.
        """
        with self._lease_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            yield self

    def _spawn(self, worker_id: int, inbox, incarnation: int) -> _Worker:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(inbox, send_conn, self._chaos),
            daemon=True,
        )
        process.start()
        # The worker owns the only write end now: when it dies, the
        # driver sees EOF instead of waiting for a liveness poll.
        send_conn.close()
        return _Worker(worker_id, process, inbox, recv_conn, incarnation)

    def _respawn(self, worker_id: int) -> None:
        old = self._workers[worker_id]
        try:
            old.conn.close()
        except OSError:
            pass
        self._workers[worker_id] = self._spawn(worker_id, old.inbox,
                                               old.incarnation + 1)

    def _reap(self, worker_id: int) -> None:
        """Forcibly retire a hung worker incarnation and respawn it.

        ``terminate()`` first; a worker that ignores SIGTERM (stuck in
        uninterruptible state, masked signals) is escalated to
        ``kill()``.  Anything still on its pipe is dropped with it.
        """
        worker = self._workers[worker_id]
        worker.process.terminate()
        worker.process.join(JOIN_TIMEOUT)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(JOIN_TIMEOUT)
            self.workers_killed += 1
        self.workers_reaped += 1
        self._respawn(worker_id)

    def close(self) -> None:
        """Shut the workers down.

        Shutdown escalates: cooperative sentinel, then ``terminate()``,
        then ``kill()`` for a worker that still lingers past
        ``JOIN_TIMEOUT`` -- a closed pool never leaves processes
        behind.  Escalations are counted in ``workers_killed`` and the
        ``pool.workers_killed`` metric.

        ``close()`` is idempotent and safe to call from signal
        handlers: a second call -- including one that interrupts a
        close already in progress on this or another thread -- returns
        immediately instead of re-escalating terminate/kill against
        workers the first close already reaped (the service's SIGTERM
        drain path closes the pool it may also be closing normally).
        """
        if self._closed or self._closing:
            return
        if not self._close_lock.acquire(blocking=False):
            # A close is mid-flight on another thread (or this call
            # interrupted it from a signal handler): it owns shutdown.
            return
        try:
            if self._closed:
                return
            self._closing = True
            self._closed = True
            self._close_impl()
        finally:
            self._closing = False
            self._close_lock.release()

    def _close_impl(self) -> None:
        killed_before = self.workers_killed
        for worker in self._workers:
            if worker.process.is_alive():
                try:
                    worker.inbox.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + JOIN_TIMEOUT
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(JOIN_TIMEOUT)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(JOIN_TIMEOUT)
                self.workers_killed += 1
                self._incident(
                    "worker-kill",
                    f"worker {worker.worker_id} (incarnation "
                    f"{worker.incarnation}) survived terminate() at "
                    f"shutdown; escalated to kill()",
                    worker=worker.worker_id, incarnation=worker.incarnation)
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:
                pass
        if (self._metrics is not None
                and self.workers_killed > killed_before):
            self._metrics.counter("pool.workers_killed").inc(
                self.workers_killed - killed_before)
        self._workers = []

    def _drain(self, worker: _Worker) -> list[tuple]:
        """Read every fully delivered message off a worker's pipe."""
        messages = []
        while True:
            try:
                if not worker.conn.poll(0):
                    return messages
                message = worker.conn.recv()
            except (EOFError, OSError):
                return messages
            messages.append(message)

    # ------------------------------------------------------------------
    # Forensics
    # ------------------------------------------------------------------
    def _incident(self, kind: str, message: str, **extra) -> None:
        if len(self.incidents) < INCIDENT_CAP:
            self.incidents.append(IncidentReport(
                kind=kind, message=message, domain="pool", extra=extra))
        if self._metrics is not None:
            self._metrics.counter("pool.incidents", kind=kind).inc()

    def _backoff_delay(self, flight: _Flight) -> float:
        """Jittered exponential backoff for transient retry N.

        The jitter is seeded from ``(task id, retry index)`` so replays
        of a chaos schedule sleep identically -- determinism all the
        way down."""
        step = min(self.retry_cap,
                   self.retry_base * (2 ** max(flight.retries - 1, 0)))
        rng = random.Random(f"{flight.task.id}:{flight.retries}")
        return step * (0.5 + 0.5 * rng.random())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tasks: list[PoolTask],
            cancel: Optional[Callable[[TaskResult], bool]] = None,
            on_result: Optional[Callable[[TaskResult], None]] = None,
            ) -> list[TaskResult]:
        """Run ``tasks``; returns results in task order.

        ``cancel`` is called after every completed task; returning True
        drops all still-queued tasks (in-flight ones finish), so the
        returned list may omit cancelled tasks.  ``on_result`` is
        called with each :class:`TaskResult` the moment it completes
        (execution order, not task order) -- the hook sweep journals
        use to persist progress incrementally.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if not tasks:
            return []
        ids = [t.id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique")
        # One run at a time: concurrent lease holders queue here (see
        # :meth:`lease`); the lock is reentrant so a holder's own call
        # enters immediately.
        with self._lease_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if self.jobs <= 1:
                results = self._run_serial(tasks, cancel, on_result)
            else:
                results = self._run_parallel(tasks, cancel, on_result)
        return [results[t.id] for t in tasks if t.id in results]

    def _run_serial(self, tasks, cancel, on_result) -> dict[str, TaskResult]:
        scheduler = StealScheduler(tasks, 1)
        results: dict[str, TaskResult] = {}
        wall_start = time.perf_counter()
        base = self._counter_totals()
        busy = 0.0
        with fresh_arena():  # cache behaviour matches a cold worker
            while True:
                item = scheduler.next_for(0)
                if item is None:
                    break
                task, _ = item
                start = time.perf_counter()
                try:
                    value = task.fn(task.payload)
                except Exception:
                    raise TaskFailed(task.id,
                                     traceback.format_exc()) from None
                duration = time.perf_counter() - start
                busy += duration
                result = TaskResult(task, value, 0, duration)
                results[task.id] = result
                if on_result is not None:
                    on_result(result)
                if cancel is not None and cancel(result):
                    scheduler.clear_pending()
        self._record_run(scheduler, results, time.perf_counter() - wall_start,
                         {0: busy}, base)
        return results

    def _run_parallel(self, tasks, cancel, on_result) -> dict[str, TaskResult]:
        self._start_workers()
        base = self._counter_totals()
        state = _RunState(self, StealScheduler(tasks, self.jobs), cancel,
                          on_result)
        for worker_id in range(self.jobs):
            state.dispatch(worker_id)
        while state.in_flight or state.delayed:
            timeout = state.wait_timeout()
            conns = {self._workers[w].conn: w for w in state.in_flight}
            if conns:
                try:
                    ready = mp_connection.wait(list(conns), timeout=timeout)
                except OSError:
                    ready = []
            else:
                # Only backoff retries pending: just wait them out.
                time.sleep(timeout)
                ready = []
            progressed = False
            for conn in ready:
                worker_id = conns[conn]
                try:
                    if not conn.poll(0):
                        continue
                    message = conn.recv()
                except (EOFError, OSError):
                    # Writer died: handled by the crash pass below.
                    continue
                progressed = True
                state.deliver(worker_id, message)
            state.release_due_retries()
            # Deadlines are checked every iteration: a hung worker must
            # not hide behind healthy workers' steady message flow.
            self._handle_timeouts(state)
            if not progressed:
                self._handle_crashes(state)
        self._record_run(state.scheduler, state.results,
                         time.perf_counter() - state.wall_start, state.busy,
                         base, state.retry_counts, state.timeout_counts)
        if state.error is not None:
            raise state.error
        return state.results

    def _handle_crashes(self, state: "_RunState") -> None:
        """Deal with workers that died with a task in flight.

        The dead incarnation's pipe is drained first: a result that was
        fully sent before the crash is honoured (and can never race a
        retry, because the pipe is closed before one is issued).
        """
        for worker_id in list(state.in_flight):
            worker = self._workers[worker_id]
            if worker.process.is_alive():
                continue
            flight = state.in_flight[worker_id]
            delivered = False
            for message in self._drain(worker):
                state.deliver(worker_id, message)
                delivered = delivered or message[0] == flight.task.id
            self.crashes += 1
            exitcode = worker.process.exitcode
            self._respawn(worker_id)
            if delivered or state.in_flight.get(worker_id) is not flight:
                continue
            del state.in_flight[worker_id]
            self._incident(
                "worker-crash",
                f"worker {worker_id} (incarnation {worker.incarnation}) "
                f"died with task {flight.task.id!r} in flight "
                f"(exit code {exitcode}, attempt {flight.attempts})",
                task=flight.task.id, worker=worker_id,
                incarnation=worker.incarnation, exitcode=exitcode,
                attempt=flight.attempts)
            if state.error is not None:
                continue
            if flight.attempts < self.max_worker_attempts:
                flight.attempts += 1
                state.send(worker_id, flight)
                continue
            # The task killed every worker it touched: run it here, in
            # the driver, and mark the result degraded.
            self._fallback(state, worker_id, flight)

    def _handle_timeouts(self, state: "_RunState") -> None:
        """Reap workers whose in-flight task blew its deadline.

        Mirrors the crash path: drain first (a result fully sent just
        before the deadline is honoured), then terminate -> kill ->
        respawn, then reroute the task -- retry on the fresh
        incarnation, or the in-driver fallback once worker attempts are
        exhausted.  The fallback runs without a deadline: a task that
        is genuinely slow (rather than hung) still completes there.
        """
        now = time.monotonic()
        for worker_id in list(state.in_flight):
            flight = state.in_flight.get(worker_id)
            if (flight is None or flight.deadline is None
                    or now < flight.deadline):
                continue
            worker = self._workers[worker_id]
            if not worker.process.is_alive():
                continue  # dead, not hung: the crash pass owns it
            for message in self._drain(worker):
                state.deliver(worker_id, message)
            if state.in_flight.get(worker_id) is not flight:
                continue  # the drain delivered its result after all
            del state.in_flight[worker_id]
            self.timeouts += 1
            state.timeout_counts[worker_id] = \
                state.timeout_counts.get(worker_id, 0) + 1
            flight.timed_out = True
            self._incident(
                "worker-hang",
                f"task {flight.task.id!r} missed its "
                f"{flight.task.timeout:.3f}s deadline on worker "
                f"{worker_id} (incarnation {worker.incarnation}, attempt "
                f"{flight.attempts}); reaping the worker",
                task=flight.task.id, worker=worker_id,
                incarnation=worker.incarnation,
                deadline_seconds=flight.task.timeout,
                attempt=flight.attempts)
            self._reap(worker_id)
            if state.error is not None:
                continue
            if flight.attempts < self.max_worker_attempts:
                flight.attempts += 1
                state.send(worker_id, flight)
            else:
                self._fallback(state, worker_id, flight)

    def _transient(self, state: "_RunState", worker_id: int, flight: _Flight,
                   detail: str) -> None:
        """Route a transient failure: backoff retry, then fallback."""
        if state.in_flight.get(worker_id) is flight:
            del state.in_flight[worker_id]
        if state.error is not None:
            return
        if flight.retries < self.max_task_retries:
            flight.retries += 1
            self.retries += 1
            state.retry_counts[worker_id] = \
                state.retry_counts.get(worker_id, 0) + 1
            delay = self._backoff_delay(flight)
            self._incident(
                "task-transient",
                f"task {flight.task.id!r} failed transiently on worker "
                f"{worker_id} ({_first_line(detail)}); retry "
                f"{flight.retries}/{self.max_task_retries} in {delay:.3f}s",
                task=flight.task.id, worker=worker_id,
                retry=flight.retries, backoff_seconds=round(delay, 6),
                detail=_first_line(detail))
            state.delayed[worker_id] = (time.monotonic() + delay, flight)
            return
        self._incident(
            "task-transient",
            f"task {flight.task.id!r} exhausted {self.max_task_retries} "
            f"transient retries ({_first_line(detail)}); running in the "
            f"driver",
            task=flight.task.id, worker=worker_id,
            retry=flight.retries, detail=_first_line(detail))
        self._fallback(state, worker_id, flight)

    def _fallback(self, state: "_RunState", worker_id: int,
                  flight: _Flight) -> None:
        """Run a task in the driver process; the result is degraded."""
        self.fallbacks += 1
        self._incident(
            "driver-fallback",
            f"task {flight.task.id!r} degraded to in-driver execution "
            f"(attempts {flight.attempts}, transient retries "
            f"{flight.retries}, timed out: {flight.timed_out})",
            task=flight.task.id, attempts=flight.attempts,
            retries=flight.retries, timed_out=flight.timed_out)
        start = time.perf_counter()
        try:
            value = flight.task.fn(flight.task.payload)
        except Exception:
            state.fail(flight.task.id, traceback.format_exc())
            return
        state.complete(TaskResult(
            flight.task, value, -1, time.perf_counter() - start,
            attempts=flight.attempts, degraded=True,
            stolen=flight.stolen, retries=flight.retries,
            timed_out=flight.timed_out))
        state.dispatch(worker_id)

    # ------------------------------------------------------------------
    def _counter_totals(self) -> dict[str, int]:
        return {
            "crashes": self.crashes,
            "fallbacks": self.fallbacks,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "workers_reaped": self.workers_reaped,
            "workers_killed": self.workers_killed,
        }

    def _record_run(self, scheduler, results, wall: float,
                    busy: dict[int, float], base: dict[str, int],
                    retry_counts: Optional[dict[int, int]] = None,
                    timeout_counts: Optional[dict[int, int]] = None) -> None:
        registry = self._metrics
        if registry is None:
            return
        wall = max(wall, 1e-9)
        registry.gauge("pool.workers").set(self.jobs)
        per_worker_tasks: dict[int, int] = {}
        for result in results.values():
            per_worker_tasks[result.worker] = \
                per_worker_tasks.get(result.worker, 0) + 1
        for worker_id in range(self.jobs):
            registry.counter("pool.tasks", worker=worker_id).inc(
                per_worker_tasks.get(worker_id, 0))
            seconds = busy.get(worker_id, 0.0)
            registry.counter("pool.busy_seconds", worker=worker_id).inc(
                seconds)
            registry.gauge("pool.utilization", worker=worker_id).set(
                min(seconds / wall, 1.0))
            registry.counter("pool.steals", worker=worker_id).inc(
                scheduler.steals[worker_id])
            registry.counter("pool.retries", worker=worker_id).inc(
                (retry_counts or {}).get(worker_id, 0))
            registry.counter("pool.timeouts", worker=worker_id).inc(
                (timeout_counts or {}).get(worker_id, 0))
        # Pool-level counters record this run's delta (the attributes
        # are pool-lifetime totals; a registry shared across runs must
        # not double count).
        for name, total in self._counter_totals().items():
            registry.counter(f"pool.{name}").inc(total - base[name])
        registry.counter("pool.fallback_tasks").inc(
            per_worker_tasks.get(-1, 0))
        registry.gauge("pool.wall_seconds").set(wall)


class _RunState:
    """Book-keeping for one :meth:`WorkerPool.run` parallel invocation."""

    def __init__(self, pool: WorkerPool, scheduler: StealScheduler,
                 cancel, on_result=None) -> None:
        self.pool = pool
        self.scheduler = scheduler
        self.cancel = cancel
        self.on_result = on_result
        self.results: dict[str, TaskResult] = {}
        self.in_flight: dict[int, _Flight] = {}
        #: worker id -> (monotonic due time, flight) backoff retries.
        self.delayed: dict[int, tuple[float, _Flight]] = {}
        self.busy: dict[int, float] = {}
        self.retry_counts: dict[int, int] = {}
        self.timeout_counts: dict[int, int] = {}
        self.error: Optional[TaskFailed] = None
        self.wall_start = time.perf_counter()

    # ------------------------------------------------------------------
    def wait_timeout(self) -> float:
        """How long the dispatch loop may sleep before the next
        deadline or backoff retry comes due."""
        timeout = POLL_INTERVAL
        now = time.monotonic()
        for flight in self.in_flight.values():
            if flight.deadline is not None:
                timeout = min(timeout, flight.deadline - now)
        for due, _ in self.delayed.values():
            timeout = min(timeout, due - now)
        return max(0.0, timeout)

    def release_due_retries(self) -> None:
        now = time.monotonic()
        for worker_id in list(self.delayed):
            due, flight = self.delayed[worker_id]
            if now < due and self.error is None:
                continue
            del self.delayed[worker_id]
            if self.error is not None:
                continue  # an aborted run abandons its retries
            self.send(worker_id, flight)

    def send(self, worker_id: int, flight: _Flight) -> None:
        """(Re)dispatch ``flight`` to ``worker_id``; arms its deadline."""
        flight.dispatches += 1
        flight.deadline = (time.monotonic() + flight.task.timeout
                           if flight.task.timeout is not None else None)
        self.in_flight[worker_id] = flight
        self.pool._workers[worker_id].inbox.put(
            (flight.task.id, flight.task.fn, flight.task.payload,
             flight.dispatches))

    def dispatch(self, worker_id: int) -> None:
        if self.error is not None:
            return
        if worker_id in self.in_flight or worker_id in self.delayed:
            return  # busy (a backoff retry owns this worker)
        item = self.scheduler.next_for(worker_id)
        if item is None:
            return
        task, stolen = item
        self.send(worker_id, _Flight(task, attempts=1, stolen=stolen))

    def fail(self, task_id: str, detail: str) -> None:
        if self.error is None:
            self.error = TaskFailed(task_id, detail)
            self.scheduler.clear_pending()

    def complete(self, result: TaskResult) -> None:
        self.results[result.task.id] = result
        if result.worker >= 0:
            self.busy[result.worker] = \
                self.busy.get(result.worker, 0.0) + result.duration
        if self.on_result is not None:
            self.on_result(result)
        if (self.cancel is not None and self.error is None
                and self.cancel(result)):
            self.scheduler.clear_pending()

    def deliver(self, worker_id: int, message: tuple) -> None:
        """Process one pipe message from ``worker_id``."""
        task_id, status, duration, body = message
        flight = self.in_flight.get(worker_id)
        if flight is None or flight.task.id != task_id:
            # A message for a task this run no longer tracks (e.g. it
            # already completed via the driver fallback): discard.
            return
        if status == "transient":
            self.pool._transient(self, worker_id, flight, body)
            return
        del self.in_flight[worker_id]
        if status == "err":
            self.fail(task_id, body)
        else:
            try:
                value = pickle.loads(body)
            except Exception:
                # Pickles but does not unpickle (an exception class
                # whose constructor wants more than its ``args``, say):
                # as deterministic as any other task error.
                self.fail(task_id, traceback.format_exc())
            else:
                self.complete(TaskResult(
                    flight.task, value, worker_id, duration, flight.attempts,
                    stolen=flight.stolen, retries=flight.retries,
                    timed_out=flight.timed_out))
        if self.error is None:
            self.dispatch(worker_id)
