"""Parallel benchmark runner: ``python -m repro bench``.

Reproduces the machine-configuration sweeps behind Fig. 9(a) (issue
width) and Fig. 9(b) (communication latency) in two modes and compares
them:

* **naive** -- the pre-optimisation pipeline shape: every sweep point
  independently profiles the loop and records the baseline trace in
  *two* object-at-a-time reference-interpreter runs
  (:mod:`repro.interp.reference`, the preserved original interpreter),
  transforms, executes the thread pipeline and simulates, serially.
* **optimized** -- the points the artifact store cannot already serve
  run on the parallel execution fabric (:mod:`repro.parallel`), one
  task per trace set, each config simulated once: a warm worker pool
  whose per-process arena keeps each workload's built case and open
  :class:`~repro.incr.store.ArtifactStore` handle alive across tasks,
  a cost-aware work-stealing scheduler that places each workload's
  tasks on the worker already warm for it (cost estimates fitted from
  prior ``BENCH_*.json`` timings), and shared-memory result transport.
  The store's disk layer (under ``--out``) shares functional artefacts
  between workers and across sweep invocations.

Both modes must produce *identical* functional results (cycles, IPCs,
instruction counts per point); because the naive mode interprets with
the reference interpreter, the check is an end-to-end differential
test of the predecoded/columnar/cached fast path against the
pre-optimisation pipeline, so a perf win can never silently come from
a behaviour change.  ``--skip-naive`` shrinks that check to a
deterministic scale-aware sample of the points (full coverage at small
scales, a fixed-cost sample at large ones); the report records which
mode ran and which points it covered.  Independently,
``parallel_identical`` re-runs the verified points serially in the
driver process and bit-compares them against the pool's results, so a
fabric bug (transport corruption, cross-worker cache pollution) cannot
hide behind a fast wall-clock.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from typing import Optional

from repro.analysis.profiling import LoopProfile
from repro.harness.journal import SweepJournal
from repro.harness.runner import MAX_STEPS, BaselineRun, run_dswp
from repro.interp.reference import run_function_reference
from repro.machine.cmp import simulate
from repro.machine.reference import simulate_reference
from repro.machine.config import (
    FULL_WIDTH_CORE,
    HALF_WIDTH_CORE,
    MachineConfig,
)
from repro.incr.plan import build_figure_plan, canonical_machine, \
    finalize_figure
from repro.incr.stages import interpret_stage, store_point_summary, \
    transform_stage
from repro.incr.store import ArtifactStore
from repro.parallel import CostModel, PoolTask, WorkerPool, worker_arena
from repro.workloads import TABLE1_WORKLOADS, get_workload

FIGURES = ("fig9a", "fig9b", "qsweep")

#: fig9b produce-side latencies (the paper's 1/5/10-cycle series).
FIG9B_LATENCIES = (1, 5, 10)

#: The queue-size sweep crosses Fig. 9(b)'s short/long-latency points
#: with three inter-thread queue depths.
QSWEEP_QUEUE_SIZES = (4, 16, 64)
QSWEEP_LATENCIES = (1, 5)

#: ``--skip-naive`` verifies roughly this many *trips* worth of points:
#: the sampled fraction is ``SAMPLE_BUDGET / scale`` clamped to
#: [MIN_SAMPLE_FRACTION, 1.0], so small (test-sized) sweeps keep full
#: coverage and production-sized sweeps pay a bounded naive cost.
SAMPLE_BUDGET = 200
MIN_SAMPLE_FRACTION = 0.2

#: Per-task deadline derivation: ``max(TIMEOUT_FLOOR, TIMEOUT_FACTOR *
#: fitted estimate)``.  The factor is deliberately loose -- a deadline
#: exists to catch *hung* workers, not slow ones -- and the floor
#: protects small tasks from scheduler noise.  A cold (unfitted) cost
#: model produces unitless estimates, so deadlines are only derived
#: from fitted models; chaos runs fall back to the bare floor (a hang
#: must not stall the sweep forever just because no history exists).
TIMEOUT_FLOOR = 30.0
TIMEOUT_FACTOR = 20.0


def derive_timeout(estimate: float, fitted: bool,
                   task_timeout: Optional[float],
                   chaos_enabled: bool) -> Optional[float]:
    """The deadline for one pool task (``None`` = no watchdog).

    ``task_timeout`` (the ``--task-timeout`` override) wins outright;
    ``0`` or negative disables deadlines entirely.
    """
    if task_timeout is not None:
        return task_timeout if task_timeout > 0 else None
    if fitted:
        return max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * estimate)
    if chaos_enabled:
        return TIMEOUT_FLOOR
    return None


def _machine(spec: dict) -> MachineConfig:
    core = HALF_WIDTH_CORE if spec.get("core") == "half" else FULL_WIDTH_CORE
    return MachineConfig(core=core, comm_latency=spec.get("comm_latency", 1),
                         queue_size=spec.get("queue_size", 32))


def sweep_points(figure: str, scale: int) -> list[dict]:
    """The sweep points of one figure as small, picklable specs."""
    full = {"core": "full"}
    half = {"core": "half"}
    points = []
    for workload in TABLE1_WORKLOADS:
        name = workload.name
        if figure == "fig9a":
            series = [
                ("base", full), ("base", half),
                ("dswp", full), ("dswp", half),
            ]
        elif figure == "fig9b":
            series = [("base", full)] + [
                ("dswp", {"core": "full", "comm_latency": lat})
                for lat in FIG9B_LATENCIES
            ]
        elif figure == "qsweep":
            series = [("base", full)] + [
                ("dswp", {"core": "full", "comm_latency": lat,
                          "queue_size": size})
                for size in QSWEEP_QUEUE_SIZES
                for lat in QSWEEP_LATENCIES
            ]
        else:
            raise ValueError(f"unknown figure {figure!r} (want one of {FIGURES})")
        for kind, machine in series:
            label = "-".join(
                [kind, machine["core"]]
                + ([f"q{machine['queue_size']}"]
                   if "queue_size" in machine else [])
                + ([f"comm{machine['comm_latency']}"]
                   if "comm_latency" in machine else [])
            )
            points.append({
                "id": f"{name}:{label}",
                "workload": name,
                "scale": scale,
                "kind": kind,
                "machine": machine,
            })
    return points


def _sim_summary(sim) -> dict:
    return {
        "cycles": sim.cycles,
        "ipcs": sim.ipcs(),
        "instructions": [c.instructions_executed for c in sim.cores],
    }


def batch_groups(points: list[dict]) -> list[list[dict]]:
    """Group sweep points that share ``(workload, scale, kind)`` -- and
    hence one functional trace set -- into config batches.  Sweep order
    is preserved both across and within groups."""
    groups: dict[tuple, list[dict]] = {}
    for spec in points:
        key = (spec["workload"], spec["scale"], spec["kind"])
        groups.setdefault(key, []).append(spec)
    return list(groups.values())


# ----------------------------------------------------------------------
# Naive mode: one fully independent pipeline run per point, serial.
# ----------------------------------------------------------------------

def _reference_baseline(case) -> BaselineRun:
    """The original ``run_baseline``: profile and trace in two separate
    object-at-a-time interpretations."""
    profiled = run_function_reference(
        case.function, case.memory.clone(), initial_regs=case.initial_regs,
        max_steps=MAX_STEPS, record_profile=True,
        call_handlers=case.call_handlers,
    )
    memory = case.fresh_memory()
    traced = run_function_reference(
        case.function, memory, initial_regs=case.initial_regs,
        max_steps=MAX_STEPS, record_trace=True,
        call_handlers=case.call_handlers,
    )
    case.checker(memory, traced.regs)
    counts = profiled.block_counts or {}
    profile = LoopProfile(counts, counts.get(case.loop.header, 0), case.loop)
    return BaselineRun(case, traced.trace or [], profile)


def run_point_naive(spec: dict) -> tuple[dict, dict]:
    """One sweep point with no reuse: the reference pipeline."""
    stages = {"interpret": 0.0, "transform": 0.0, "simulate": 0.0}
    workload = get_workload(spec["workload"])
    case = workload.build(scale=spec["scale"])
    t0 = time.perf_counter()
    baseline = _reference_baseline(case)
    stages["interpret"] = time.perf_counter() - t0
    if spec["kind"] == "base":
        traces = [baseline.trace]
    else:
        t0 = time.perf_counter()
        # The original pipeline's thread traces were object-entry lists.
        traces = [t.to_entries() for t in run_dswp(case, baseline).traces]
        stages["transform"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    # burst -> inf is the legacy scheduler's run-to-block limit, the
    # canonical schedule the event-driven simulator implements; the old
    # default (64) made shared-L3 contents depend on the polling
    # granularity (see docs/PERFORMANCE.md).
    sim = simulate_reference(traces, _machine(spec["machine"]), burst=1 << 30)
    stages["simulate"] = time.perf_counter() - t0
    return {"id": spec["id"], **_sim_summary(sim)}, stages


# ----------------------------------------------------------------------
# Optimized mode: per-point tasks on the parallel execution fabric.
# ----------------------------------------------------------------------

def _induced_crash(name: str) -> None:
    """Test hook: deterministically kill a *worker* process.

    ``REPRO_BENCH_CRASH_WORKLOAD=<name>`` makes every worker attempt at
    that workload's points die hard (fork inherits the env, the driver
    process never dies -- ``parent_process()`` guards it).  With
    ``REPRO_BENCH_CRASH_ONCE_DIR`` also set, only the first attempt
    crashes: a marker file records that the crash already happened, so
    the retry succeeds.  This is how the robustness tests exercise the
    retry and the in-process-fallback paths without real worker OOMs.
    """
    if os.environ.get("REPRO_BENCH_CRASH_WORKLOAD") != name:
        return
    if multiprocessing.parent_process() is None:
        return
    marker_dir = os.environ.get("REPRO_BENCH_CRASH_ONCE_DIR")
    if marker_dir:
        marker = os.path.join(marker_dir, f"crashed-{name}")
        if os.path.exists(marker):
            return
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("crashed once\n")
    os._exit(13)


def _bench_arena(spec: dict, cache_dir: Optional[str]):
    """The worker-resident ``(case, store)`` pair for one sweep point.

    The arena keeps each ``(workload, scale)``'s built case and one
    :class:`~repro.incr.store.ArtifactStore` handle per store directory
    alive across points, so workloads are built at most once per worker
    and the store's in-memory layer persists between tasks.
    """
    arena = worker_arena()
    store_key = ("bench-store", cache_dir)
    store = arena.get(store_key)
    if store is None:
        store = arena[store_key] = ArtifactStore(persist_dir=cache_dir)
    case_key = ("bench-case", spec["workload"], spec["scale"])
    case = arena.get(case_key)
    if case is None:
        case = arena[case_key] = get_workload(
            spec["workload"]).build(scale=spec["scale"])
    return case, store


def _functional_traces(store, case, kind: str):
    """Run-or-reuse the functional prefix (interpret, and for dswp
    points the transform) through the incremental stage wrappers.

    Returns ``(traces, traces_content, stage_seconds)``: the live
    trace set, its semantic content digest (the simulate stages' key
    input) and per-stage wall seconds (near-zero on store hits).
    """
    seconds = {"interpret": 0.0, "transform": 0.0, "simulate": 0.0}
    interp = interpret_stage(store, case)
    seconds["interpret"] = interp.seconds
    if kind == "base":
        return [interp.value.trace], interp.outputs["traces"], seconds
    outcome = transform_stage(store, case, interp)
    seconds["transform"] = outcome.seconds
    return outcome.value.traces, outcome.outputs["traces"], seconds


def _point_task(payload: dict) -> dict:
    """One sweep point on the fabric: :func:`_batch_task` on a one-spec
    group (the driver-side verification re-run's unit)."""
    return _batch_task({"specs": [payload["spec"]],
                        "cache_dir": payload.get("cache_dir")})


def _batch_task(payload: dict) -> dict:
    """The pending points of one trace set on the fabric (runs inside a
    pool worker).

    All specs share ``(workload, scale, kind)`` and hence one
    functional trace set.  The functional prefix runs through the
    incremental stage wrappers (:mod:`repro.incr.stages`): a prefix
    another worker -- or a prior sweep -- already recorded is a store
    hit, decoded once per worker.  Each config is then simulated once
    with ``cmp.simulate`` (the planner already served every point whose
    summary was on record), and its summary is recorded under its
    simulate stage key so the next sweep's planner can serve it.
    Returns the point results plus per-stage seconds and the
    store-counter delta this task caused (the driver aggregates deltas
    across workers).
    """
    specs = payload["specs"]
    spec0 = specs[0]
    _induced_crash(spec0["workload"])
    case, store = _bench_arena(spec0, payload.get("cache_dir"))
    before = store.stats()
    traces, traces_key, stages = _functional_traces(
        store, case, spec0["kind"])
    points = []
    for spec in specs:
        t0 = time.perf_counter()
        sim = simulate(traces, _machine(spec["machine"]))
        stages["simulate"] += time.perf_counter() - t0
        summary = _sim_summary(sim)
        store_point_summary(store, traces_key,
                            canonical_machine(spec["machine"]), summary)
        points.append({"id": spec["id"], **summary})
    after = store.stats()
    return {
        "points": points,
        "stages": stages,
        "cache": {k: after[k] - before.get(k, 0) for k in after},
    }


def run_optimized(
    points: list[dict],
    jobs: int,
    cache_dir: Optional[str] = None,
    cost_dir: str = ".",
    registry=None,
    chaos=None,
    task_timeout: Optional[float] = None,
    journal: Optional[SweepJournal] = None,
) -> dict:
    """Run all points as tasks on the execution fabric.

    Points sharing a trace set become one task each
    (:func:`batch_groups` / :func:`_batch_task`); affinity groups a
    workload's tasks onto the worker whose arena is already warm for
    it, and task costs come from a :class:`~repro.parallel.CostModel`
    fitted from prior ``BENCH_*.json`` reports in ``cost_dir`` (cold
    heuristic otherwise).  ``jobs <= 1`` -- or a platform that cannot
    fork -- runs the same tasks serially in-process.

    A task whose worker crashes is retried on a fresh worker; a task
    that crashes its worker twice is re-run in the driver process (the
    sweep always completes) and its points are *degraded*: marked in
    their result dicts, listed in ``degraded_points``, and counted in
    the summary line -- including when the degradation came from a
    pool-level fallback rather than a per-task failure.

    ``chaos`` arms a :class:`~repro.chaos.ChaosPlan` on the pool;
    ``task_timeout`` overrides the cost-model-derived per-task deadline
    (see :func:`derive_timeout`); ``journal`` receives every completed
    point through the pool's ``on_result`` hook, so progress survives a
    killed driver at point granularity.

    Returns a dict with ``points`` (sweep order), ``stages``, ``jobs``
    (worker count actually used), ``num_tasks``, ``degraded_points``,
    ``retried_points``, ``timed_out_tasks``, ``fabric`` (pool recovery
    counters), ``incidents`` (pool forensics), ``cache_stats``
    (aggregated across workers), per-point ``point_seconds`` (each
    task's duration split evenly over its points) and the cost-model
    description.
    """
    model = CostModel.load(cost_dir)
    chaos_enabled = chaos is not None

    if not points:
        # Every point was served (journal or incremental plan): the
        # fabric never spins up -- no fork, no pool telemetry.  This is
        # the warm no-op fast path the incremental planner exists for.
        return {
            "points": [],
            "stages": {"interpret": 0.0, "transform": 0.0, "simulate": 0.0},
            "jobs": 0,
            "num_tasks": 0,
            "degraded_points": [],
            "retried_points": [],
            "timed_out_tasks": [],
            "fabric": {"crashes": 0, "fallbacks": 0, "timeouts": 0,
                       "retries": 0, "workers_reaped": 0,
                       "workers_killed": 0},
            "incidents": [],
            "cache_stats": {},
            "point_seconds": {},
            "cost_model": model.describe(),
        }

    tasks = []
    for group in batch_groups(points):
        cost = sum(model.estimate_point(spec) for spec in group)
        tasks.append(PoolTask(
            id=f"batch:{group[0]['workload']}:{group[0]['kind']}",
            fn=_batch_task,
            payload={"specs": group, "cache_dir": cache_dir},
            cost=cost,
            affinity=f"{group[0]['workload']}:{group[0]['scale']}",
            timeout=derive_timeout(cost, model.fitted, task_timeout,
                                   chaos_enabled),
        ))

    spec_by_id = {spec["id"]: spec for spec in points}

    def _journal_result(result) -> None:
        """Persist each point the moment its task's result lands
        (crash-safe resume granularity is per *point*)."""
        covered = result.value["points"]
        for point in covered:
            journal.record_point(spec_by_id[point["id"]], point,
                                 result.duration / len(covered),
                                 degraded=result.degraded,
                                 retries=result.retries,
                                 timed_out=result.timed_out)

    jobs = max(1, min(jobs, len(tasks)))
    with WorkerPool(jobs, metrics=registry, chaos=chaos) as pool:
        results = pool.run(
            tasks, on_result=_journal_result if journal is not None else None)
        jobs_used = pool.jobs
    fabric = {
        "crashes": pool.crashes,
        "fallbacks": pool.fallbacks,
        "timeouts": pool.timeouts,
        "retries": pool.retries,
        "workers_reaped": pool.workers_reaped,
        "workers_killed": pool.workers_killed,
    }
    incidents = [incident.to_dict() for incident in pool.incidents]

    stages = {"interpret": 0.0, "transform": 0.0, "simulate": 0.0}
    cache_stats: dict[str, int] = {}
    by_point: dict[str, tuple[dict, bool, float]] = {}
    retried_ids: list[str] = []
    timed_out_tasks: list[str] = []
    for result in results:
        value = result.value
        covered = value["points"]
        if result.retries:
            retried_ids.extend(point["id"] for point in covered)
        if result.timed_out:
            timed_out_tasks.append(result.task.id)
        for key, stage_seconds in value["stages"].items():
            stages[key] += stage_seconds
        for key, delta in value["cache"].items():
            cache_stats[key] = cache_stats.get(key, 0) + delta
        # Only telemetry and cost-model fitting read per-point seconds.
        share = result.duration / len(covered)
        for point in covered:
            by_point[point["id"]] = (point, result.degraded, share)

    out_points: list[dict] = []
    degraded_ids: list[str] = []
    point_seconds: dict[str, float] = {}
    for spec in points:
        point, degraded, seconds = by_point[spec["id"]]
        point = dict(point)
        if degraded:
            point["degraded"] = True
            degraded_ids.append(point["id"])
        out_points.append(point)
        point_seconds[spec["id"]] = seconds
    return {
        "points": out_points,
        "stages": stages,
        "jobs": jobs_used,
        "num_tasks": len(tasks),
        "degraded_points": degraded_ids,
        "retried_points": retried_ids,
        "timed_out_tasks": timed_out_tasks,
        "fabric": fabric,
        "incidents": incidents,
        "cache_stats": cache_stats,
        "point_seconds": point_seconds,
        "cost_model": model.describe(),
    }


# ----------------------------------------------------------------------
# Verification lanes
# ----------------------------------------------------------------------

def verification_sample(points: list[dict], scale: int) -> list[dict]:
    """The deterministic ``--skip-naive`` subset, in sweep order.

    Points are ranked by a content hash of their id (stable across
    runs and machines, uncorrelated with sweep order) and the sampled
    fraction shrinks as the scale -- and hence the per-point naive
    cost -- grows: full coverage at ``scale <= SAMPLE_BUDGET``,
    bounded cost above it.
    """
    fraction = min(1.0, max(MIN_SAMPLE_FRACTION,
                            SAMPLE_BUDGET / max(scale, 1)))
    count = max(1, round(len(points) * fraction))
    ranked = sorted(
        points,
        key=lambda spec: hashlib.sha256(
            spec["id"].encode()).hexdigest(),
    )
    chosen = {spec["id"] for spec in ranked[:count]}
    return [spec for spec in points if spec["id"] in chosen]


def _check_parallel_identical(specs: list[dict], optimized: list[dict],
                              jobs_used: int) -> Optional[bool]:
    """Bit-compare the pool's results against a serial in-driver re-run.

    The re-run uses a fresh in-memory cache (no disk layer), so it is a
    fully independent functional recomputation: any divergence -- a
    transport bug, cross-worker cache pollution, nondeterminism in a
    worker -- shows up as inequality.  ``jobs_used <= 1`` is trivially
    identical (the optimized lane *was* the serial in-driver path).
    """
    if not specs:
        return None
    if jobs_used <= 1:
        return True
    wanted = {spec["id"] for spec in specs}
    by_id = {p["id"]: {k: v for k, v in p.items() if k != "degraded"}
             for p in optimized if p["id"] in wanted}
    with WorkerPool(1) as pool:
        rerun = pool.run([
            PoolTask(id=spec["id"], fn=_point_task,
                     payload={"spec": spec, "cache_dir": None})
            for spec in specs
        ])
    return all(r.value["points"][0] == by_id[r.task.id] for r in rerun)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def run_bench(
    figure: str,
    scale: int,
    jobs: int,
    out_dir: str = ".",
    compare: bool = True,
    skip_naive: bool = False,
    cache_dir: Optional[str] = None,
    chaos=None,
    task_timeout: Optional[float] = None,
    resume: bool = False,
) -> dict:
    """Run one figure's sweep; returns (and writes) the report dict.

    Every ``BENCH_<figure>.json`` carries a ``provenance`` block (git
    commit, machine configuration digests, sweep scale) and a
    ``metrics`` snapshot (cache hit/miss counters, sweep gauges and the
    pool's per-worker utilization/steal telemetry from
    :class:`~repro.obs.metrics.MetricsRegistry`), so a report on disk
    is attributable to the code and configuration that produced it.

    ``cache_dir`` is the :class:`~repro.harness.cache.ExperimentCache`
    disk layer shared by the workers (default: ``.bench-cache`` under
    ``out_dir``); ``skip_naive`` switches the naive comparison lane to
    the deterministic sample (see :func:`verification_sample`).  The
    report's ``verification`` block records the mode and the covered
    point ids.

    ``chaos`` arms fault injection on the pool (the report gains a
    ``chaos`` provenance block); ``task_timeout`` overrides the derived
    per-task deadline.  Every completed point is appended to
    ``SWEEP_<figure>.jsonl`` in ``out_dir``; ``resume`` replays that
    journal first and recomputes only missing or fingerprint-invalid
    points (see :mod:`repro.harness.journal`), recording what it reused
    in the report's ``resume`` block.
    """
    from repro.obs import MetricsRegistry, record_provenance

    points = sweep_points(figure, scale)
    if cache_dir is None:
        cache_dir = os.path.join(out_dir, ".bench-cache")

    os.makedirs(out_dir, exist_ok=True)  # the journal opens before any write
    journal_path = os.path.join(out_dir, f"SWEEP_{figure}.jsonl")
    reused: dict[str, dict] = {}
    if resume:
        reused = SweepJournal.load(journal_path).reusable(points)
    # A fresh sweep truncates the journal (stale entries must not leak
    # into a later --resume); a resumed sweep appends to it, so resume
    # is re-entrant after repeated kills.
    journal = SweepJournal.start(journal_path, figure, scale,
                                 fresh=not resume)
    missing = [spec for spec in points if spec["id"] not in reused]

    registry = MetricsRegistry()

    # Incremental planning: prove which points the artifact store can
    # serve outright before the fabric spins up.  The plan walks the
    # *full* point set (the figure stage's key spans every point);
    # journal reuse then takes precedence over store serving for the
    # resumed subset, so --resume semantics are unchanged.
    store = ArtifactStore(persist_dir=cache_dir)
    plan = build_figure_plan(store, figure, scale, points)
    served = {pid: point for pid, point in plan.served.items()
              if pid not in reused}
    pending = [spec for spec in plan.pending if spec["id"] not in reused]

    t0 = time.perf_counter()
    optimized = run_optimized(pending, jobs, cache_dir=cache_dir,
                              cost_dir=out_dir, registry=registry,
                              chaos=chaos, task_timeout=task_timeout,
                              journal=journal)
    optimized_seconds = time.perf_counter() - t0

    # Served points are journalled too (at zero seconds): a fresh run's
    # journal always covers the full sweep, whatever mix of compute and
    # store serving produced it.
    for spec in points:
        if spec["id"] in served:
            journal.record_point(spec, served[spec["id"]], 0.0)

    # Splice the three sources back into sweep order: journal-reused,
    # store-served, freshly computed.
    by_new = {p["id"]: p for p in optimized["points"]}
    merged_points: list[dict] = []
    merged_seconds: dict[str, float] = {}
    for spec in points:
        pid = spec["id"]
        entry = reused.get(pid)
        if entry is not None:
            point = dict(entry["point"])
            if entry.get("degraded"):
                point["degraded"] = True
            merged_points.append(point)
            merged_seconds[pid] = float(entry.get("seconds") or 0.0)
            if entry.get("retries"):
                optimized["retried_points"].append(pid)
            if entry.get("timed_out"):
                optimized["timed_out_tasks"].append(pid)
        elif pid in served:
            merged_points.append(dict(served[pid]))
            merged_seconds[pid] = 0.0
        else:
            merged_points.append(by_new[pid])
            merged_seconds[pid] = optimized["point_seconds"][pid]
    optimized["points"] = merged_points
    optimized["point_seconds"] = merged_seconds
    optimized["degraded_points"] = [
        p["id"] for p in merged_points if p.get("degraded")]

    # Figure aggregation stage: prove-or-record now that every
    # simulate receipt the chain needs is on disk.
    figure_info = finalize_figure(plan, store, points, merged_points)
    plan.record_metrics(registry)
    incr_block = plan.report()
    incr_block["served_points"] = sorted(served)
    incr_block["pending_points"] = [spec["id"] for spec in pending]
    incr_block["figure"] = figure_info
    plan.release()

    jobs_used = optimized["jobs"]
    degraded_ids = optimized["degraded_points"]
    cache_stats = optimized["cache_stats"]

    provenance = record_provenance(
        registry,
        machine=MachineConfig(),
        extra={"figure": figure, "bench_scale": scale},
    )
    registry.gauge("bench.points").set(len(points))
    registry.gauge("bench.jobs").set(jobs_used)
    registry.gauge("bench.degraded_points").set(len(degraded_ids))
    registry.gauge("bench.retried_points").set(
        len(optimized["retried_points"]))
    registry.gauge("bench.timed_out_tasks").set(
        len(optimized["timed_out_tasks"]))
    registry.gauge("bench.resumed_points").set(len(reused))
    registry.gauge("bench.served_points").set(len(served))
    registry.gauge("bench.scheduled_stages").set(plan.scheduled_total())
    for key, value in sorted(cache_stats.items()):
        registry.counter(f"cache.{key}").inc(value)

    if not compare:
        verified: list[dict] = []
        mode = "none"
    elif skip_naive:
        verified = verification_sample(points, scale)
        mode = "sampled"
    else:
        verified = points
        mode = "full"
    registry.gauge("bench.verified_points").set(len(verified))

    report = {
        "figure": figure,
        "scale": scale,
        "jobs": jobs_used,
        "num_points": len(points),
        "num_tasks": optimized["num_tasks"],
        "points": optimized["points"],
        "degraded_points": degraded_ids,
        "retried_points": optimized["retried_points"],
        "timed_out_tasks": optimized["timed_out_tasks"],
        "fabric": optimized["fabric"],
        "fabric_incidents": optimized["incidents"],
        "chaos": chaos.describe() if chaos is not None else None,
        "resume": {
            "enabled": resume,
            "journal": journal_path,
            "reused_points": sorted(reused),
            "recomputed_points": [spec["id"] for spec in missing],
        },
        "incr": incr_block,
        "cache_stats": cache_stats,
        "optimized_seconds": optimized_seconds,
        "optimized_stage_seconds": optimized["stages"],
        "point_seconds": optimized["point_seconds"],
        "cost_model": optimized["cost_model"],
        "verification": {"mode": mode,
                         "points": [spec["id"] for spec in verified]},
        "provenance": provenance,
    }

    if mode != "none":
        naive_stages = {"interpret": 0.0, "transform": 0.0, "simulate": 0.0}
        naive_results = []
        t0 = time.perf_counter()
        for spec in verified:
            result, stages = run_point_naive(spec)
            naive_results.append(result)
            for key, value in stages.items():
                naive_stages[key] += value
        naive_seconds = time.perf_counter() - t0
        report["naive_seconds"] = naive_seconds
        report["naive_stage_seconds"] = naive_stages
        if mode == "full":
            denominator = optimized_seconds
        else:
            # Like-for-like: the naive lane only ran the sample, so
            # compare it against the optimized time of the same points.
            # A store-served point cost no compute; its production
            # cost is its share of the planning pass that proved it
            # valid, which keeps the ratio honest -- and nonzero, so a
            # fully warm sweep passes the >=1x gate on its actual
            # (enormous) speedup instead of reading as 0.00x.
            denominator = sum(
                optimized["point_seconds"][spec["id"]] for spec in verified)
            if points:
                denominator += plan.plan_seconds * len(verified) / len(points)
        report["speedup"] = (
            naive_seconds / denominator if denominator > 0 else 0.0)
        # The degraded marker records *how* a point ran, not *what* it
        # computed -- strip it before the functional comparison.
        verified_ids = {spec["id"] for spec in verified}
        comparable = [{k: v for k, v in p.items() if k != "degraded"}
                      for p in optimized["points"]
                      if p["id"] in verified_ids]
        report["functional_identical"] = naive_results == comparable
        report["parallel_identical"] = _check_parallel_identical(
            verified, optimized["points"], jobs_used)
    else:
        report["parallel_identical"] = None

    # Snapshot last so the metrics block carries everything the run
    # recorded, including pool telemetry and the verification gauge.
    report["metrics"] = registry.snapshot()

    path = os.path.join(out_dir, f"BENCH_{figure}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report["path"] = path
    return report


def format_report(report: dict) -> str:
    lines = [
        f"figure {report['figure']}: {report['num_points']} points, "
        f"scale {report['scale']}, {report['jobs']} worker(s), "
        f"cost model {report.get('cost_model', 'cold')}",
        f"  optimized: {report['optimized_seconds']:.2f}s "
        f"(interpret {report['optimized_stage_seconds']['interpret']:.2f}s, "
        f"transform {report['optimized_stage_seconds']['transform']:.2f}s, "
        f"simulate {report['optimized_stage_seconds']['simulate']:.2f}s)",
    ]
    if "naive_seconds" in report:
        verification = report.get("verification", {})
        mode = verification.get("mode", "full")
        covered = len(verification.get("points", ()))
        lines.append(
            f"  naive:     {report['naive_seconds']:.2f}s "
            f"(interpret {report['naive_stage_seconds']['interpret']:.2f}s, "
            f"transform {report['naive_stage_seconds']['transform']:.2f}s, "
            f"simulate {report['naive_stage_seconds']['simulate']:.2f}s)"
            + (f" [sampled: {covered}/{report['num_points']} points]"
               if mode == "sampled" else "")
        )
        identical = "identical" if report["functional_identical"] else "DIVERGED"
        parallel = report.get("parallel_identical")
        parallel_text = ("" if parallel is None else
                         (", parallel identical" if parallel
                          else ", parallel DIVERGED"))
        lines.append(
            f"  speedup:   {report['speedup']:.2f}x, "
            f"functional results {identical}{parallel_text}"
        )
    incr = report.get("incr")
    if incr:
        stage_text = ", ".join(
            f"{kind} {row['hit']}h/{row['scheduled']}s"
            for kind, row in incr.get("stages", {}).items())
        lines.append(
            f"  incr:      {incr.get('scheduled_total', 0)} stage(s) "
            f"scheduled ({incr.get('compute_scheduled', 0)} compute), "
            f"{len(incr.get('served_points', ()))} point(s) served from "
            f"store [{stage_text}]"
        )
    resume = report.get("resume") or {}
    if resume.get("enabled"):
        lines.append(
            f"  resumed:   {len(resume.get('reused_points', ()))} point(s) "
            f"reused from journal, "
            f"{len(resume.get('recomputed_points', ()))} recomputed"
        )
    if report.get("chaos"):
        chaos = report["chaos"]
        fabric = report.get("fabric") or {}
        seed = chaos.get("seed")
        lines.append(
            f"  chaos:     {chaos.get('mode', '?')} plan"
            + (f" (seed {seed})" if seed is not None else "")
            + f"; crashes {fabric.get('crashes', 0)}, "
            f"timeouts {fabric.get('timeouts', 0)}, "
            f"retries {fabric.get('retries', 0)}, "
            f"fallbacks {fabric.get('fallbacks', 0)}"
        )
    if report.get("degraded_points"):
        lines.append(
            f"  DEGRADED:  {len(report['degraded_points'])} point(s) ran "
            f"in-process after worker crashes: "
            + ", ".join(report["degraded_points"])
        )
    lines.append("  " + summary_line(report))
    lines.append(f"  report:    {report['path']}")
    return "\n".join(lines)


def summary_line(report: dict) -> str:
    """One-line per-sweep digest: points, cache traffic, degradations.

    Printed unconditionally by ``python -m repro bench`` (with or
    without ``--no-compare``) so every sweep leaves a grep-friendly
    record of how much functional work the cache absorbed and how many
    points fell back to in-driver execution.
    """
    cache = report.get("cache_stats", {})
    parts = [
        f"summary:   {report['num_points']} points",
        f"cache {cache.get('hits', 0)} hit(s) / {cache.get('misses', 0)} miss(es)",
    ]
    if cache.get("corrupt_evictions"):
        parts.append(f"{cache['corrupt_evictions']} corrupt eviction(s)")
    parts.append(f"{len(report.get('degraded_points', ()))} degraded point(s)")
    if report.get("retried_points"):
        parts.append(f"{len(report['retried_points'])} retried point(s)")
    if report.get("timed_out_tasks"):
        parts.append(f"{len(report['timed_out_tasks'])} timed-out task(s)")
    return ", ".join(parts)
