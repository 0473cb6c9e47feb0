"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` -- the available workloads and their metadata;
* ``run WORKLOAD`` -- the full experiment (transform, check, simulate)
  with optional machine knobs; ``--trace``/``--metrics`` export a
  Chrome trace_event timeline and a metrics snapshot
  (``docs/OBSERVABILITY.md``);
* ``report WORKLOAD`` -- per-core stall/utilization, per-queue traffic
  and Fig. 8 occupancy-bucket summary tables;
* ``show WORKLOAD`` -- print the loop's IR, its DAG_SCC, and the
  transformed thread pipeline;
* ``sweep WORKLOAD`` -- communication-latency sweep for one workload;
* ``bench`` -- parallel Fig. 9 sweeps with a naive-vs-cached wall-clock
  comparison; see ``docs/PERFORMANCE.md``;
* ``fuzz`` -- differential fuzzing campaign (random loops, sequential
  vs. pipelined oracle); see ``docs/FUZZING.md``;
* ``serve`` -- the compile-service daemon (asyncio HTTP/JSON over the
  warm worker pool); see ``docs/SERVICE.md``;
* ``submit`` -- send one experiment request to a running daemon;
* ``cache gc`` -- collect an artifact-store directory (LRU by atime,
  pin-safe); see ``docs/INCREMENTAL.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.core.dswp import dswp
from repro.harness.reporting import format_table, percent
from repro.harness.runner import run_baseline, run_experiment
from repro.ir.printer import render_function
from repro.machine.config import (
    FULL_WIDTH_CORE,
    HALF_WIDTH_CORE,
    MachineConfig,
)
from repro.workloads import ALL_WORKLOADS, get_workload


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer.

    Guards the knobs where zero or a negative value is never a mode
    (``--jobs``, ``--port``, ``--max-inflight``): a typo like
    ``--jobs -2`` must die at the parser with a usage error, not leak
    into the pool as a silent clamp.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float (``--task-timeout``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value!r}")
    return value


def _port(text: str) -> int:
    """argparse type: a TCP port in [1, 65535] (0 = ephemeral is a
    footgun for a daemon whose callers need a known address)."""
    value = _positive_int(text)
    if value > 65535:
        raise argparse.ArgumentTypeError(
            f"port must be in [1, 65535], got {value}")
    return value


def _machine(args) -> MachineConfig:
    core = HALF_WIDTH_CORE if getattr(args, "half_width", False) else FULL_WIDTH_CORE
    return MachineConfig(
        core=core,
        comm_latency=getattr(args, "comm_latency", 1),
        queue_size=getattr(args, "queue_size", 32),
    )


def _obs_from_args(args):
    """Build an :class:`~repro.obs.ObsConfig` from ``--trace``/``--metrics``,
    or ``None`` when neither was requested."""
    from repro.obs import NULL_TRACER, MetricsRegistry, ObsConfig, Tracer

    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    if not trace_path and not metrics_path:
        return None
    return ObsConfig(
        tracer=Tracer() if trace_path else NULL_TRACER,
        metrics=MetricsRegistry() if metrics_path else None,
    )


def _write_obs_outputs(args, obs, machine, dswp_sim=None, base_sim=None) -> None:
    """Write the requested trace / metrics files after a run.

    ``dswp_sim`` may be ``None`` (a supervised run that degraded): the
    trace then carries the harness spans and the baseline timeline
    only.  Notices go to stderr under ``--json`` so the JSON document
    on stdout stays parseable.
    """
    if obs is None:
        return
    from repro.obs import (
        build_chrome_trace,
        record_provenance,
        write_chrome_trace,
        write_metrics,
    )

    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    trace_path = getattr(args, "trace", None)
    if trace_path:
        payload = build_chrome_trace(tracer=obs.tracer, sim=dswp_sim,
                                     base_sim=base_sim)
        write_chrome_trace(trace_path, payload)
        print(f"trace:           {trace_path} (load in Perfetto or "
              f"chrome://tracing)", file=out)
    metrics_path = getattr(args, "metrics_out", None)
    if metrics_path and obs.metrics is not None:
        record_provenance(obs.metrics, machine=machine)
        write_metrics(metrics_path, obs.metrics)
        print(f"metrics:         {metrics_path}", file=out)


def cmd_list(args) -> int:
    rows = [
        [w.name, w.paper_benchmark, w.loop_nest,
         f"{w.exec_fraction * 100:.0f}%", w.default_scale]
        for w in ALL_WORKLOADS
    ]
    print(format_table(
        ["workload", "models", "nest", "Ex.%", "default scale"], rows
    ))
    return 0


def cmd_run(args) -> int:
    workload = get_workload(args.workload)
    obs = _obs_from_args(args)
    if getattr(args, "supervise", False):
        return _cmd_run_supervised(workload, args, obs)
    if getattr(args, "inject", None):
        print("error: --inject requires --supervise", file=sys.stderr)
        return 2
    machine = _machine(args)
    result = run_experiment(workload, machine=machine,
                            scale=args.scale, obs=obs)
    if getattr(args, "json", False):
        from repro.harness.results import results_to_json
        print(results_to_json([result]))
        _write_obs_outputs(args, obs, machine,
                           dswp_sim=result.dswp_sim,
                           base_sim=result.base_sim)
        return 0
    print(f"workload:        {workload.name} ({workload.paper_benchmark})")
    print(f"SCCs:            {result.dswp_result.num_sccs}")
    print(f"pipeline stages: {len(result.dswp_result.partition)}")
    print(f"flows:           {result.dswp_result.flow_counts()}")
    print(f"baseline cycles: {result.base_sim.cycles} "
          f"(IPC {result.base_sim.ipc(0):.2f})")
    ipcs = ", ".join(f"{v:.2f}" for v in result.dswp_sim.ipcs())
    print(f"DSWP cycles:     {result.dswp_sim.cycles} (per-core IPC {ipcs})")
    print(f"loop speedup:    {result.loop_speedup:.3f}x "
          f"({percent(result.loop_speedup)})")
    print(f"program speedup: {result.program_speedup:.3f}x")
    _write_obs_outputs(args, obs, machine,
                       dswp_sim=result.dswp_sim, base_sim=result.base_sim)
    return 0


def _cmd_run_supervised(workload, args, obs=None) -> int:
    """``run --supervise``: never crash on a pipeline failure.

    Exit codes: 0 clean, 3 degraded to the sequential baseline,
    4 failed outright (2 stays argparse's usage-error code).
    """
    from repro.fuzz.faults import MACHINE_FAULTS, get_fault
    from repro.harness.runner import run_supervised
    from repro.resilience.supervisor import EXIT_FAILED

    fault_plan = None
    if getattr(args, "inject", None):
        try:
            fault = get_fault(args.inject)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        fault_plan = fault.fault_plan_for(None, None)
        if fault_plan is None:
            print(f"error: {args.inject!r} is a compiler-side fault; "
                  f"run --inject takes a machine-level fault: "
                  + ", ".join(sorted(MACHINE_FAULTS)), file=sys.stderr)
            return 2

    machine = _machine(args)
    try:
        outcome = run_supervised(
            workload, machine=machine, scale=args.scale,
            fault_plan=fault_plan,
            cycle_budget=getattr(args, "cycle_budget", None),
            obs=obs,
        )
    except AssertionError as exc:
        # An injected fault that corrupts data (rather than hanging the
        # machine) surfaces as a wrong answer; the supervisor refuses to
        # absorb those, so classify it as a failure here.
        print(f"workload:        {workload.name} ({workload.paper_benchmark})")
        print("status:          failed (pipeline produced wrong output)")
        print(f"oracle:          {exc}")
        _write_obs_outputs(args, obs, machine)
        return EXIT_FAILED

    dswp_sim = outcome.result.dswp_sim if outcome.result is not None else None
    base_sim = outcome.result.base_sim if outcome.result is not None else None

    if getattr(args, "json", False):
        import json

        payload = outcome.to_dict()
        payload["workload"] = workload.name
        if outcome.result is not None:
            payload["loop_speedup"] = outcome.result.loop_speedup
            payload["program_speedup"] = outcome.result.program_speedup
        print(json.dumps(payload, indent=2))
        _write_obs_outputs(args, obs, machine,
                           dswp_sim=dswp_sim, base_sim=base_sim)
        return outcome.exit_code

    print(f"workload:        {workload.name} ({workload.paper_benchmark})")
    print(f"status:          {outcome.status}")
    if fault_plan is not None:
        print(f"injected fault:  {fault_plan.name}")
    for incident in outcome.incidents:
        print()
        print(incident.format())
        print()
    if outcome.result is not None:
        result = outcome.result
        print(f"baseline cycles: {result.base_sim.cycles} "
              f"(IPC {result.base_sim.ipc(0):.2f})")
        if result.dswp_sim is not None:
            ipcs = ", ".join(f"{v:.2f}" for v in result.dswp_sim.ipcs())
            print(f"DSWP cycles:     {result.dswp_sim.cycles} "
                  f"(per-core IPC {ipcs})")
        else:
            print("DSWP cycles:     n/a (degraded to sequential baseline)")
        print(f"loop speedup:    {result.loop_speedup:.3f}x "
              f"({percent(result.loop_speedup)})")
        print(f"program speedup: {result.program_speedup:.3f}x")
    _write_obs_outputs(args, obs, machine,
                       dswp_sim=dswp_sim, base_sim=base_sim)
    return outcome.exit_code


def _cmd_report_bench(args) -> int:
    """``report --bench FILE``: pool and stage tables from a BENCH json.

    Reads the metrics snapshot the bench runner embeds in its report and
    prints one row per worker: tasks run, busy seconds, utilization of
    the sweep's wall clock, and steal count.  Worker ``-1`` (tasks that
    fell back to the driver after repeated worker crashes) appears as
    ``driver``.  The incremental plan's stage table follows.
    """
    import json

    from repro.obs import parse_metric_key

    try:
        with open(args.bench) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load bench report {args.bench}: {exc}",
              file=sys.stderr)
        return 2
    snapshot = report.get("metrics") or {}
    per_worker: dict[int, dict] = {}
    for key, value in snapshot.items():
        name, labels = parse_metric_key(key)
        if name.startswith("pool.") and "worker" in labels:
            worker = int(labels["worker"])
            per_worker.setdefault(worker, {})[name] = value
    if not per_worker:
        if report.get("incr"):
            # A fully-warm sweep never forks the pool: every point was
            # served from the artifact store, so the only telemetry is
            # the incremental plan itself.
            print(f"bench:   {report.get('figure', '?')} scale "
                  f"{report.get('scale', '?')}, warm run -- no pool "
                  f"forked, every point served from the store")
            _print_incr_table(report)
            return 0
        print(f"error: {args.bench} carries no pool telemetry "
              f"(pre-fabric report?)", file=sys.stderr)
        return 2
    wall = snapshot.get("pool.wall_seconds", 0.0)
    print(f"bench:   {report.get('figure', '?')} scale "
          f"{report.get('scale', '?')}, {snapshot.get('pool.workers', '?')} "
          f"worker(s), wall {wall:.2f}s")
    print(f"crashes: {snapshot.get('pool.crashes', 0)}, driver fallbacks: "
          f"{snapshot.get('pool.fallback_tasks', 0)}")
    fabric = report.get("fabric") or {}
    if any(fabric.values()):
        print(f"faults:  timeouts {fabric.get('timeouts', 0)}, transient "
              f"retries {fabric.get('retries', 0)}, workers reaped "
              f"{fabric.get('workers_reaped', 0)}, workers killed "
              f"{fabric.get('workers_killed', 0)}")
    if report.get("chaos"):
        chaos = report["chaos"]
        seed = chaos.get("seed")
        print(f"chaos:   {chaos.get('mode', '?')} plan"
              + (f", seed {seed}" if seed is not None else "")
              + f"; {len(report.get('retried_points') or ())} retried "
              f"point(s), {len(report.get('timed_out_tasks') or ())} "
              f"timed-out task(s)")
    print()
    rows = []
    for worker in sorted(per_worker):
        stats = per_worker[worker]
        rows.append([
            "driver" if worker < 0 else worker,
            int(stats.get("pool.tasks", 0)),
            f"{stats.get('pool.busy_seconds', 0.0):.2f}",
            f"{stats.get('pool.utilization', 0.0) * 100:.1f}%",
            int(stats.get("pool.steals", 0)),
            int(stats.get("pool.retries", 0)),
            int(stats.get("pool.timeouts", 0)),
        ])
    print(format_table(
        ["worker", "tasks", "busy (s)", "utilization", "steals",
         "retries", "timeouts"], rows
    ))
    _print_incr_table(report)
    return 0


def _print_incr_table(report: dict) -> None:
    """The incremental-plan stage table of ``report --bench`` (no-op
    for reports from before the stage graph recorded plans).

    One row per stage kind with its deduplicated hit / miss /
    scheduled counts (semantics in :mod:`repro.incr.plan`), then one
    summary line: how long planning took, how many stages actually
    ran, and how many points the store served without any compute.
    """
    incr = report.get("incr") or {}
    stages = incr.get("stages") or {}
    if not stages:
        return
    order = ("interpret", "transform", "simulate", "figure")
    rows = []
    for kind in order + tuple(k for k in sorted(stages) if k not in order):
        row = stages.get(kind)
        if row is None:
            continue
        rows.append([kind, int(row.get("hit", 0)), int(row.get("miss", 0)),
                     int(row.get("scheduled", 0))])
    print()
    print(format_table(["stage", "hit", "miss", "scheduled"], rows))
    print(f"incr:    plan {incr.get('plan_id', '?')} in "
          f"{incr.get('plan_seconds', 0.0):.3f}s; "
          f"{incr.get('scheduled_total', 0)} stage(s) scheduled "
          f"({incr.get('compute_scheduled', 0)} compute), "
          f"{len(incr.get('served_points') or ())} point(s) served, "
          f"figure stage {incr.get('figure_stage', '?')}")


def cmd_report(args) -> int:
    """``report``: run one workload and print the observability tables.

    Three tables from the pipeline simulation's telemetry: per-core
    issue/stall/utilization, per-queue traffic and peak occupancy, and
    the Fig. 8 occupancy buckets.

    With ``--bench FILE``, instead summarize a bench report's worker-
    pool telemetry (:func:`_cmd_report_bench`).
    """
    if getattr(args, "bench", None):
        return _cmd_report_bench(args)
    if not args.workload:
        print("error: report needs a WORKLOAD (or --bench FILE)",
              file=sys.stderr)
        return 2
    workload = get_workload(args.workload)
    machine = _machine(args)
    result = run_experiment(workload, machine=machine, scale=args.scale)
    sim = result.dswp_sim
    print(f"workload: {workload.name} ({workload.paper_benchmark}), "
          f"scale {args.scale or workload.default_scale}")
    print(f"pipeline: {sim.cycles} cycles vs baseline "
          f"{result.base_sim.cycles} "
          f"(loop speedup {result.loop_speedup:.3f}x)")

    kinds = sorted({kind for core in sim.cores
                    for kind in core.stall_breakdown()})
    rows = []
    for core in sim.cores:
        breakdown = core.stall_breakdown()
        rows.append(
            [core.core_id, core.instructions_executed, core.last_completion,
             f"{core.ipc():.2f}", f"{core.utilization() * 100:.1f}%"]
            + [breakdown.get(kind, 0) for kind in kinds]
        )
    print()
    print(format_table(
        ["core", "instructions", "cycles", "IPC", "issue util"] + kinds, rows
    ))

    if sim.queues is not None and sim.queues.queue_ids():
        rows = [
            [qid, sim.queues.produced(qid), sim.queues.consumed(qid),
             sim.queues.max_occupancy(qid)]
            for qid in sim.queues.queue_ids()
        ]
        print()
        print(format_table(
            ["queue", "produced", "consumed", "max occupancy"], rows
        ))

    print()
    print(format_table(
        ["occupancy bucket (Fig. 8)", "cycles"],
        [[bucket, f"{fraction * 100:.1f}%"]
         for bucket, fraction in sim.occupancy().buckets().items()],
    ))
    return 0


def cmd_show(args) -> int:
    workload = get_workload(args.workload)
    case = workload.build(scale=args.scale or 50)
    print("# original function")
    print(render_function(case.function))
    result = dswp(case.function, case.loop, require_profitable=False)
    print(f"# DAG_SCC: {result.num_sccs} SCCs")
    for sid, members in enumerate(result.dag.sccs):
        print(f"#   SCC {sid}: {[m.render() for m in members]}")
    if not result.applied:
        print(f"# DSWP declined: {result.reason}")
        return 1
    print(f"# partition: {result.partition}")
    for thread in result.program.threads:
        print()
        print(render_function(thread))
    return 0


def cmd_select(args) -> int:
    """Rank a workload's loops the way §4's methodology does."""
    from repro.analysis.selection import select_loops

    workload = get_workload(args.workload)
    case = workload.build(scale=args.scale or workload.default_scale)
    report = select_loops(case.function, case.memory,
                          initial_regs=case.initial_regs,
                          min_trip_count=args.min_trips,
                          call_handlers=case.call_handlers)
    rows = []
    for candidate in report.candidates:
        reason = report.rejection_reason(candidate)
        rows.append([
            candidate.loop.header,
            candidate.nest_depth,
            f"{candidate.coverage * 100:.1f}%",
            f"{candidate.average_trip_count:.1f}",
            "selected" if candidate is report.selected
            else (reason or "eligible"),
        ])
    print(format_table(
        ["loop header", "nest", "coverage", "trips/entry", "status"], rows
    ))
    return 0 if report.selected is not None else 1


def cmd_dot(args) -> int:
    from repro.analysis.export import cfg_to_dot, dag_scc_to_dot, pdg_to_dot

    workload = get_workload(args.workload)
    case = workload.build(scale=args.scale or 50)
    if args.graph == "cfg":
        print(cfg_to_dot(case.function))
        return 0
    result = dswp(case.function, case.loop, require_profitable=False)
    if args.graph == "pdg":
        print(pdg_to_dot(result.graph))
    else:
        print(dag_scc_to_dot(result.dag, result.partition))
    return 0


def cmd_sweep(args) -> int:
    workload = get_workload(args.workload)
    case = workload.build(scale=args.scale)
    baseline = run_baseline(case)
    from repro.harness.runner import run_dswp
    from repro.machine.cmp import simulate

    transformed = run_dswp(case, baseline)
    rows = []
    for latency in (1, 2, 5, 10, 20):
        machine = MachineConfig(comm_latency=latency)
        base = simulate([baseline.trace], machine).cycles
        cycles = simulate(transformed.traces, machine).cycles
        rows.append([latency, base, cycles, base / cycles])
    print(format_table(
        ["comm latency", "baseline cycles", "DSWP cycles", "speedup"], rows
    ))
    return 0


def cmd_bench(args) -> int:
    import os

    from repro.harness.bench import FIGURES, format_report, run_bench

    figures = FIGURES if args.figure == "all" else (args.figure,)
    jobs = args.jobs or os.cpu_count() or 1
    chaos = None
    if getattr(args, "chaos_seed", None) is not None:
        from repro.chaos import ChaosPlan

        cache_dir = os.path.join(args.out, ".bench-cache")
        chaos = ChaosPlan.random(args.chaos_seed, cache_dir=cache_dir)
    ok = True
    degraded = False
    for figure in figures:
        report = run_bench(
            figure,
            scale=args.scale,
            jobs=jobs,
            out_dir=args.out,
            compare=not args.no_compare,
            skip_naive=args.skip_naive,
            chaos=chaos,
            task_timeout=getattr(args, "task_timeout", None),
        )
        print(format_report(report))
        degraded = degraded or bool(report.get("degraded_points"))
        ok = ok and report.get("parallel_identical") is not False
        if not args.no_compare:
            ok = ok and report["functional_identical"] and report["speedup"] >= 1.0
    if getattr(args, "supervise", False):
        from repro.resilience.supervisor import EXIT_DEGRADED, EXIT_FAILED

        if not ok:
            return EXIT_FAILED
        return EXIT_DEGRADED if degraded else 0
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    from repro.fuzz import get_fault, run_campaign, run_setting
    from repro.fuzz.oracle import GeneratorInvariantError

    try:
        fault = get_fault(args.inject) if args.inject else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.replay:
        from repro.fuzz import read_reproducer
        from repro.ir.parser import IRParseError
        from repro.ir.verifier import VerificationError

        try:
            case, setting, fault_name = read_reproducer(args.replay)
        except (OSError, IRParseError, VerificationError, KeyError,
                ValueError) as exc:
            print(f"error: cannot load reproducer {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        if fault is None and fault_name:
            fault = get_fault(fault_name)
        print(f"replaying {args.replay}: case seed={case.seed}, "
              f"{setting.describe()}"
              + (f", fault={fault.name}" if fault else ""))
        try:
            divergence = run_setting(case, setting, fault=fault)
        except GeneratorInvariantError as exc:
            print(f"reference run failed: {exc}")
            return 2
        if divergence is None:
            print("no divergence: reference and pipeline agree")
            return 0
        print(f"DIVERGENCE ({divergence.kind}): {divergence.detail}")
        return 1

    registry = None
    if getattr(args, "metrics_out", None):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    result = run_campaign(
        args.seed,
        args.iterations,
        fault=fault,
        out_dir=args.out,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        log=print,
        metrics=registry,
        jobs=args.jobs,
    )
    if registry is not None:
        from repro.obs import record_provenance, write_metrics

        record_provenance(registry, extra={"campaign_seed": args.seed})
        write_metrics(args.metrics_out, registry)
        print(f"metrics: {args.metrics_out}")
    print(result.summary())
    for failure in result.failures:
        shrunk = (f", shrunk {failure.original_instructions} -> "
                  f"{failure.shrunk_instructions} instructions"
                  if failure.shrunk_instructions else "")
        where = f" [{failure.reproducer_path}]" if failure.reproducer_path else ""
        print(f"  seed {failure.seed}: {failure.divergence.kind} "
              f"({failure.divergence.setting.describe()}){shrunk}{where}")
    if fault is not None:
        # --inject inverts the verdict: the oracle is *supposed* to
        # catch the planted bug.
        if result.failures:
            print(f"fault {fault.name!r} detected -- oracle is sensitive")
            return 0
        print(f"fault {fault.name!r} was NOT detected", file=sys.stderr)
        return 1
    return 0 if result.ok else 1


def cmd_serve(args) -> int:
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_inflight=args.max_inflight,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        batch_window=args.batch_window,
        task_timeout=args.task_timeout,
    )


def cmd_submit(args) -> int:
    """``submit``: one experiment request against a running daemon.

    Builds the protocol body from the same machine knobs ``run`` takes,
    so ``repro run wc --comm-latency 5`` and ``repro submit wc
    --comm-latency 5`` describe the same experiment.  Exit codes: 0 ok,
    1 the experiment itself failed, 2 usage, 5 the service refused or
    was unreachable.
    """
    import json

    from repro.service.client import ReproClient, ServiceError

    request: dict = {
        "machine": {
            "core": "half" if args.half_width else "full",
            "comm_latency": args.comm_latency,
            "queue_size": args.queue_size,
        },
    }
    if args.ir:
        try:
            with open(args.ir) as fh:
                request["ir"] = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.ir}: {exc}", file=sys.stderr)
            return 2
        if not args.loop_header:
            print("error: --ir requires --loop-header", file=sys.stderr)
            return 2
        request["loop_header"] = args.loop_header
        request["check"] = False
    else:
        if not args.workload:
            print("error: submit needs a WORKLOAD (or --ir FILE)",
                  file=sys.stderr)
            return 2
        request["workload"] = args.workload
    if args.scale is not None:
        request["scale"] = args.scale

    client = ReproClient(host=args.host, port=args.port,
                         timeout=args.timeout, tenant=args.tenant)
    try:
        if args.stream:
            outcome = None
            for event in client.submit_stream(request):
                if event.get("event") == "done":
                    outcome = event
                elif not args.json:
                    print(f"event: {event.get('event')}"
                          + (" (coalesced)" if event.get("coalesced")
                             else ""))
            if outcome is None:
                print("error: stream ended without a result",
                      file=sys.stderr)
                return 5
        else:
            outcome = client.submit(request)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 5

    if args.json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
        return 0 if outcome.get("status") == "ok" else 1
    if outcome.get("status") != "ok":
        print(f"error: {outcome.get('error')}: {outcome.get('detail')}",
              file=sys.stderr)
        return 1
    payload = outcome["payload"]
    trace = outcome.get("trace", {})
    print(f"workload:        {payload['workload']} "
          f"({payload['paper_benchmark']})")
    print(f"baseline cycles: {payload['baseline']['cycles']} "
          f"(IPC {payload['baseline']['ipc']:.2f})")
    if payload.get("pipeline"):
        ipcs = ", ".join(f"{v:.2f}"
                         for v in payload["pipeline"]["per_core_ipc"])
        print(f"DSWP cycles:     {payload['pipeline']['cycles']} "
              f"(per-core IPC {ipcs})")
    print(f"loop speedup:    {payload['loop_speedup']:.3f}x")
    print(f"program speedup: {payload['program_speedup']:.3f}x")
    print(f"fingerprint:     {payload['fingerprints']['baseline'][:16]} / "
          + (payload["fingerprints"]["pipeline"][:16]
             if payload["fingerprints"]["pipeline"] else "n/a"))
    served = ("cache" if outcome.get("cached")
              else f"computed (+{outcome.get('coalesced_with', 0)} coalesced)")
    print(f"served from:     {served}; trace {trace.get('trace_id', '?')} "
          f"request {trace.get('request_id', '?')}")
    return 0


def cmd_cache(args) -> int:
    """``cache gc``: collect an artifact-store directory.

    LRU-by-atime eviction down to ``--max-bytes``, eager eviction of
    corrupt entries, removal of stale tmp droppings, and refusal to
    touch anything pinned by an in-flight plan
    (:mod:`repro.incr.gc`, runbook in ``docs/INCREMENTAL.md``).
    ``--dry-run`` reports without deleting.  Exit codes: 0 ok, 2 the
    directory does not exist.
    """
    from repro.incr.gc import collect

    if not os.path.isdir(args.dir):
        print(f"error: no store at {args.dir}", file=sys.stderr)
        return 2
    stats = collect(args.dir, max_bytes=args.max_bytes,
                    log=print if args.verbose else None,
                    dry_run=args.dry_run)
    mode = " (dry run -- nothing deleted)" if args.dry_run else ""
    print(f"store:   {args.dir}{mode}")
    print(f"scanned: {stats['scanned']} entr(ies), "
          f"{stats['bytes_before']} bytes")
    print(f"evicted: {stats['evicted']} entr(ies), "
          f"{stats['evicted_bytes']} bytes "
          f"({stats['corrupt_evicted']} corrupt, "
          f"{stats['tmp_removed']} tmp dropping(s) removed, "
          f"{stats['pinned_kept']} pinned kept)")
    print(f"after:   {stats['bytes_after']} bytes"
          + (f" (target {args.max_bytes})"
             if args.max_bytes is not None else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Decoupled Software Pipelining (MICRO 2005) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available workloads")

    run_p = sub.add_parser("run", help="run one workload end to end")
    run_p.add_argument("workload")
    run_p.add_argument("--scale", type=int, default=None,
                       help="loop trip count (default: workload default)")
    run_p.add_argument("--comm-latency", type=int, default=1,
                       dest="comm_latency")
    run_p.add_argument("--queue-size", type=int, default=32,
                       dest="queue_size")
    run_p.add_argument("--half-width", action="store_true",
                       dest="half_width",
                       help="use 3-issue cores instead of 6-issue")
    run_p.add_argument("--json", action="store_true",
                       help="emit machine-readable results")
    run_p.add_argument("--supervise", action="store_true",
                       help="catch pipeline failures, fall back to the "
                            "sequential baseline (exit 0 clean / 3 "
                            "degraded / 4 failed; see docs/ROBUSTNESS.md)")
    run_p.add_argument("--inject", default=None, metavar="FAULT",
                       help="with --supervise: inject a machine-level "
                            "fault plan (queue-drop-token, core-stall, ...)")
    run_p.add_argument("--cycle-budget", type=int, default=None,
                       dest="cycle_budget",
                       help="with --supervise: watchdog budget in cycles "
                            "for the timing simulation")
    run_p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace_event JSON timeline "
                            "(open in Perfetto; see docs/OBSERVABILITY.md)")
    run_p.add_argument("--metrics", default=None, metavar="FILE",
                       dest="metrics_out",
                       help="write the metrics snapshot (.csv suffix "
                            "selects CSV, anything else JSON)")

    report_p = sub.add_parser(
        "report", help="stall / occupancy / utilization summary tables"
    )
    report_p.add_argument("workload", nargs="?", default=None)
    report_p.add_argument("--bench", default=None, metavar="FILE",
                          help="summarize a BENCH_<figure>.json report's "
                               "worker-pool telemetry instead of running "
                               "a workload")
    report_p.add_argument("--scale", type=int, default=None,
                          help="loop trip count (default: workload default)")
    report_p.add_argument("--comm-latency", type=int, default=1,
                          dest="comm_latency")
    report_p.add_argument("--queue-size", type=int, default=32,
                          dest="queue_size")
    report_p.add_argument("--half-width", action="store_true",
                          dest="half_width",
                          help="use 3-issue cores instead of 6-issue")

    show_p = sub.add_parser("show", help="print IR, SCCs and the pipeline")
    show_p.add_argument("workload")
    show_p.add_argument("--scale", type=int, default=None)

    sweep_p = sub.add_parser("sweep", help="communication-latency sweep")
    sweep_p.add_argument("workload")
    sweep_p.add_argument("--scale", type=int, default=600)

    select_p = sub.add_parser("select", help="rank loops for DSWP (§4)")
    select_p.add_argument("workload")
    select_p.add_argument("--scale", type=int, default=None)
    select_p.add_argument("--min-trips", type=float, default=10.0,
                          dest="min_trips")

    dot_p = sub.add_parser("dot", help="emit Graphviz for cfg/pdg/dag")
    dot_p.add_argument("workload")
    dot_p.add_argument("--graph", choices=("cfg", "pdg", "dag"),
                       default="dag")
    dot_p.add_argument("--scale", type=int, default=None)

    bench_p = sub.add_parser(
        "bench", help="parallel figure sweeps with naive-vs-cached comparison"
    )
    bench_p.add_argument("--figure",
                         choices=("fig9a", "fig9b", "qsweep", "all"),
                         default="all")
    bench_p.add_argument("--scale", type=int, default=800,
                         help="loop trip count per workload (default 800)")
    bench_p.add_argument("--jobs", type=_positive_int, default=None,
                         help="worker processes (default: cpu count)")
    bench_p.add_argument("--out", default=".",
                         help="directory for BENCH_<figure>.json reports")
    bench_p.add_argument("--no-compare", action="store_true", dest="no_compare",
                         help="skip the serial naive reference run")
    bench_p.add_argument("--skip-naive", action="store_true", dest="skip_naive",
                         help="verify only a deterministic sample of points "
                              "against the naive lane (scale-aware subset; "
                              "the BENCH json records the mode)")
    bench_p.add_argument("--supervise", action="store_true",
                         help="use robustness exit codes: 3 when any "
                              "point degraded to in-process fallback, "
                              "4 on comparison failure")
    bench_p.add_argument("--chaos-seed", type=int, default=None,
                         dest="chaos_seed", metavar="SEED",
                         help="arm seeded fault injection against the "
                              "worker pool (kill/hang/slow/flaky/corrupt; "
                              "results must stay identical -- see "
                              "docs/CHAOS.md)")
    bench_p.add_argument("--task-timeout", type=_positive_float,
                         default=None, dest="task_timeout",
                         metavar="SECONDS",
                         help="per-task deadline before a hung worker is "
                              "reaped (positive seconds; default: derived "
                              "from the fitted cost model)")

    fuzz_p = sub.add_parser(
        "fuzz", help="differential fuzzing of the DSWP pipeline"
    )
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed (case i uses seed*1000003+i)")
    fuzz_p.add_argument("--iterations", type=int, default=500,
                        help="number of random loops to check")
    fuzz_p.add_argument("--out", default=None,
                        help="directory for reproducer files")
    fuzz_p.add_argument("--inject", default=None, metavar="FAULT",
                        help="plant a known transformation bug and check "
                             "the oracle catches it (see docs/FUZZING.md)")
    fuzz_p.add_argument("--replay", default=None, metavar="FILE",
                        help="re-check one reproducer file instead of "
                             "running a campaign")
    fuzz_p.add_argument("--no-shrink", action="store_true", dest="no_shrink",
                        help="write failing cases without minimizing them")
    fuzz_p.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for the differential checks "
                             "(results are independent of this; default 1)")
    fuzz_p.add_argument("--max-failures", type=int, default=10,
                        dest="max_failures",
                        help="stop the campaign after this many divergences")
    fuzz_p.add_argument("--metrics", default=None, metavar="FILE",
                        dest="metrics_out",
                        help="write campaign counters (cases, runs, "
                             "divergences, ...) as a metrics snapshot")

    serve_p = sub.add_parser(
        "serve", help="compile-service daemon over the warm worker pool "
                      "(docs/SERVICE.md)"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=_port, default=8765,
                         help="TCP port (default 8765)")
    serve_p.add_argument("--jobs", type=_positive_int, default=2,
                         help="warm worker processes (default 2)")
    serve_p.add_argument("--max-inflight", type=_positive_int, default=64,
                         dest="max_inflight",
                         help="admitted-but-unanswered request cap; above "
                              "it new submits get 503 (default 64)")
    serve_p.add_argument("--quota-rate", type=float, default=0.0,
                         dest="quota_rate", metavar="PER_SECOND",
                         help="per-tenant token-bucket refill rate; 0 "
                              "disables quotas (default 0)")
    serve_p.add_argument("--quota-burst", type=_positive_float, default=8.0,
                         dest="quota_burst",
                         help="per-tenant token-bucket capacity (default 8)")
    serve_p.add_argument("--cache-dir", default=None, dest="cache_dir",
                         help="persist response payloads and worker "
                              "artefacts under this directory")
    serve_p.add_argument("--batch-window", type=_positive_float,
                         default=0.02, dest="batch_window",
                         metavar="SECONDS",
                         help="micro-batch collection window before "
                              "dispatch (default 0.02)")
    serve_p.add_argument("--task-timeout", type=_positive_float,
                         default=None, dest="task_timeout",
                         metavar="SECONDS",
                         help="per-task deadline before a hung worker is "
                              "reaped (positive seconds; default: none)")

    submit_p = sub.add_parser(
        "submit", help="send one experiment to a running daemon"
    )
    submit_p.add_argument("workload", nargs="?", default=None)
    submit_p.add_argument("--ir", default=None, metavar="FILE",
                          help="submit raw IR text from FILE instead of a "
                               "registered workload (requires "
                               "--loop-header; no oracle check)")
    submit_p.add_argument("--loop-header", default=None, dest="loop_header",
                          help="DSWP target loop header label (with --ir)")
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=_port, default=8765)
    submit_p.add_argument("--scale", type=_positive_int, default=None,
                          help="loop trip count (default: workload default)")
    submit_p.add_argument("--comm-latency", type=int, default=1,
                          dest="comm_latency")
    submit_p.add_argument("--queue-size", type=int, default=32,
                          dest="queue_size")
    submit_p.add_argument("--half-width", action="store_true",
                          dest="half_width",
                          help="use 3-issue cores instead of 6-issue")
    submit_p.add_argument("--tenant", default="default",
                          help="quota accounting identity (default "
                               "'default')")
    submit_p.add_argument("--stream", action="store_true",
                          help="stream NDJSON progress events")
    submit_p.add_argument("--timeout", type=_positive_float, default=300.0,
                          help="client-side socket timeout in seconds")
    submit_p.add_argument("--json", action="store_true",
                          help="emit the raw outcome document")

    cache_p = sub.add_parser(
        "cache", help="manage the persistent artifact store "
                      "(docs/INCREMENTAL.md)"
    )
    cache_sub = cache_p.add_subparsers(dest="action", required=True)
    gc_p = cache_sub.add_parser(
        "gc", help="evict LRU entries down to a byte budget; corrupt "
                   "entries and stale tmp files always go, pinned "
                   "entries never do"
    )
    gc_p.add_argument("--dir", default=os.path.join(".", ".bench-cache"),
                      help="store directory (default ./.bench-cache, "
                           "where bench persists by default)")
    gc_p.add_argument("--max-bytes", type=int, default=None,
                      dest="max_bytes", metavar="N",
                      help="evict least-recently-used entries until the "
                           "store fits N bytes (default: validate and "
                           "sweep tmp droppings only)")
    gc_p.add_argument("--dry-run", action="store_true", dest="dry_run",
                      help="report what would be deleted without "
                           "touching the filesystem")
    gc_p.add_argument("--verbose", action="store_true",
                      help="log each eviction")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "report": cmd_report,
        "show": cmd_show,
        "sweep": cmd_sweep,
        "select": cmd_select,
        "dot": cmd_dot,
        "bench": cmd_bench,
        "fuzz": cmd_fuzz,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "cache": cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
