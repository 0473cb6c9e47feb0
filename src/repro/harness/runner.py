"""Experiment runner: workload -> profile -> transform -> simulate.

This is the pipeline every benchmark and example uses:

1. build the workload (IR + memory + oracle);
2. profile the loop by interpretation (stands in for IMPACT profiling);
3. run the single-threaded baseline, record its trace, check the oracle;
4. apply DSWP (heuristic or a given partition), functionally execute
   the thread pipeline, check the oracle again;
5. replay both traces on the CMP timing model and report cycles / IPC /
   speedup / queue occupancy.

Whole-program speedup (the paper's 9.2% vs. 19.4% distinction) is
derived from loop speedup via the loop's execution fraction (Amdahl).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.memdep import AliasModel
from repro.analysis.profiling import LoopProfile
from repro.core.dswp import DSWPResult, dswp
from repro.core.partition import Partition
from repro.interp.interpreter import run_function
from repro.interp.memory import Memory
from repro.interp.multithread import run_threads
from repro.interp.trace import TraceLike
from repro.machine.cmp import simulate
from repro.machine.config import MachineConfig
from repro.machine.stats import SimResult
from repro.obs import NULL_OBS, ObsConfig
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import (
    STATUS_CLEAN,
    STATUS_DEGRADED,
    STATUS_FAILED,
    SupervisedOutcome,
    incident_from_exception,
    supervised_errors,
)
from repro.workloads.base import Workload, WorkloadCase

#: Generous dynamic-instruction budget for workload-sized runs.
MAX_STEPS = 50_000_000


class BaselineRun:
    """Single-threaded reference execution of a workload case."""

    def __init__(self, case: WorkloadCase, trace: TraceLike,
                 profile: LoopProfile, memory: Optional[Memory] = None,
                 regs: Optional[dict] = None) -> None:
        self.case = case
        self.trace = trace
        self.profile = profile
        #: Final functional state (memory image, register file) -- what
        #: a supervised run falls back to when the pipeline fails.
        self.memory = memory
        self.regs = dict(regs) if regs else {}


class DSWPRun:
    """A transformed execution: functional result + per-thread traces."""

    def __init__(self, result: DSWPResult, traces: list[TraceLike]) -> None:
        self.result = result
        self.traces = traces


def run_baseline(case: WorkloadCase, check: bool = True) -> BaselineRun:
    """Execute the original program, check the oracle, return the trace.

    Trace and block profile are recorded in a *single* interpretation:
    the profiling input is the same as the measured input, so the block
    counts of the traced run are exactly what a separate profiling run
    would produce, at half the interpretation cost.
    """
    memory = case.fresh_memory()
    result = run_function(
        case.function, memory, initial_regs=case.initial_regs,
        max_steps=MAX_STEPS, record_trace=True, record_profile=True,
        call_handlers=case.call_handlers,
    )
    if check:
        case.checker(memory, result.regs)
    counts = result.block_counts or {}
    profile = LoopProfile(counts, counts.get(case.loop.header, 0), case.loop)
    return BaselineRun(case, result.trace or [], profile,
                       memory=memory, regs=result.regs)


def run_dswp(
    case: WorkloadCase,
    baseline: Optional[BaselineRun] = None,
    partition: Optional[Partition] = None,
    alias_model: Optional[AliasModel] = None,
    threads: int = 2,
    require_profitable: bool = False,
    check: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    metrics=None,
) -> DSWPRun:
    """Apply DSWP to the workload's loop and execute the pipeline.

    ``metrics`` flows into the multi-threaded interpreter
    (:func:`~repro.interp.multithread.run_threads`), which records
    per-thread steps and produce/consume wait counters into it.
    """
    baseline = baseline or run_baseline(case, check=check)
    result = dswp(
        case.function,
        case.loop,
        threads=threads,
        alias_model=alias_model,
        profile=baseline.profile,
        partition=partition,
        require_profitable=require_profitable,
    )
    memory = case.fresh_memory()
    mt = run_threads(
        result.program, memory, initial_regs=case.initial_regs,
        max_steps=MAX_STEPS, record_trace=True,
        call_handlers=case.call_handlers,
        fault_plan=fault_plan,
        metrics=metrics,
    )
    if check:
        case.checker(memory, mt.main_regs)
    return DSWPRun(result, mt.traces())


class ExperimentResult:
    """Timing comparison between baseline and DSWP on one machine."""

    def __init__(
        self,
        workload: Workload,
        base_sim: SimResult,
        dswp_sim: Optional[SimResult],
        dswp_result: Optional[DSWPResult],
    ) -> None:
        self.workload = workload
        self.base_sim = base_sim
        self.dswp_sim = dswp_sim
        self.dswp_result = dswp_result

    @property
    def loop_speedup(self) -> float:
        if self.dswp_sim is None or self.dswp_sim.cycles == 0:
            return 1.0
        return self.base_sim.cycles / self.dswp_sim.cycles

    @property
    def program_speedup(self) -> float:
        """Amdahl projection using the loop's execution fraction."""
        frac = self.workload.exec_fraction
        s = self.loop_speedup
        return 1.0 / ((1.0 - frac) + frac / s)


def run_experiment(
    workload: Workload,
    machine: Optional[MachineConfig] = None,
    baseline_machine: Optional[MachineConfig] = None,
    partition: Optional[Partition] = None,
    alias_model: Optional[AliasModel] = None,
    scale: Optional[int] = None,
    check: bool = True,
    obs: Optional[ObsConfig] = None,
    case: Optional[WorkloadCase] = None,
    store=None,
) -> ExperimentResult:
    """The full compare-against-baseline experiment for one workload.

    ``obs`` attaches the observability layer
    (:class:`~repro.obs.ObsConfig`): wall-clock spans bracket each
    phase (build / interpret / transform+pipeline / simulate) and the
    metrics registry collects interpreter wait counters plus the
    pipeline simulation's stall/occupancy/utilization telemetry.  The
    default observes nothing and executes the exact same code path.

    ``store`` (an :class:`~repro.incr.store.ArtifactStore`) routes the
    functional stages -- baseline interpretation and the DSWP
    transform + pipeline execution -- through the content-addressed
    stage wrappers (:mod:`repro.incr.stages`), so repeated
    machine-configuration points only re-run the timing simulation:
    stage keys roll with code edits, and a store directory shared with
    a bench sweep or the compile service reuses their recorded
    prefixes.  ``case`` supplies a pre-built workload case (skipping the
    build phase); sweep drivers use it to share one case object, and
    hence one content digest, across every point.
    """
    obs = obs if obs is not None else NULL_OBS
    tracer, metrics = obs.tracer, obs.metrics
    machine = machine or MachineConfig()
    baseline_machine = baseline_machine or machine
    with tracer.span("harness.run_experiment", workload=workload.name):
        if case is None:
            with tracer.span("workload.build"):
                case = workload.build(scale=scale)
        interp = None
        with tracer.span("interp.baseline"):
            if store is not None:
                from repro.incr.stages import interpret_stage

                interp = interpret_stage(store, case, check=check)
                baseline = interp.value
            else:
                baseline = run_baseline(case, check=check)
        base_sim = simulate([baseline.trace], baseline_machine,
                            tracer=tracer)
        with tracer.span("core.dswp+interp.pipeline"):
            if store is not None:
                from repro.incr.stages import transform_stage

                transformed = transform_stage(
                    store, case, interp, partition=partition,
                    alias_model=alias_model, check=check,
                ).value
            else:
                transformed = run_dswp(
                    case, baseline, partition=partition,
                    alias_model=alias_model, check=check, metrics=metrics,
                )
        dswp_sim = simulate(transformed.traces, machine, metrics=metrics,
                            tracer=tracer)
    return ExperimentResult(workload, base_sim, dswp_sim, transformed.result)


def run_supervised(
    workload: Workload,
    machine: Optional[MachineConfig] = None,
    baseline_machine: Optional[MachineConfig] = None,
    partition: Optional[Partition] = None,
    alias_model: Optional[AliasModel] = None,
    scale: Optional[int] = None,
    check: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    cycle_budget: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
) -> SupervisedOutcome:
    """:func:`run_experiment` under supervision: never hang, never lose
    the result to a pipeline failure.

    Three phases, three outcomes:

    * the sequential baseline fails (it should not, even under a fault
      plan -- faults only touch the pipeline machinery) -> ``failed``;
      there is nothing to fall back to;
    * the DSWP pipeline (functional run or timing simulation) raises a
      deadlock / queue-protocol / step-limit / cycle-budget error ->
      the incident is recorded with its forensic report and the run
      *degrades* to the baseline result: the returned experiment has
      ``dswp_sim=None``, i.e. loop speedup 1.0, and the baseline's
      functional output stands;
    * everything agrees -> ``clean``, identical to ``run_experiment``.

    Checker (oracle) failures are *not* absorbed: a pipeline that runs
    to completion with the wrong answer is a correctness bug the
    supervisor must surface, not paper over.

    With ``obs`` supplied, each incident additionally carries the final
    metrics snapshot (``IncidentReport.metrics``) -- the queue-wait and
    stall telemetry collected up to the moment of failure -- so a
    degraded run is diagnosable from its artifacts alone.
    """
    obs = obs if obs is not None else NULL_OBS
    tracer, metrics = obs.tracer, obs.metrics
    machine = machine or MachineConfig()
    baseline_machine = baseline_machine or machine
    case = workload.build(scale=scale)
    errors = supervised_errors()

    def finish_incident(incident):
        if metrics is not None:
            incident.metrics = metrics.snapshot()
        tracer.instant("incident", category="resilience",
                       kind=incident.kind, message=incident.message)
        return incident

    try:
        with tracer.span("interp.baseline"):
            baseline = run_baseline(case, check=check)
        base_sim = simulate([baseline.trace], baseline_machine,
                            tracer=tracer)
    except errors as exc:
        incident = finish_incident(
            incident_from_exception(exc, fault=_plan_name(fault_plan)))
        return SupervisedOutcome(
            status=STATUS_FAILED,
            result=None,
            incidents=[incident],
        )

    try:
        with tracer.span("core.dswp+interp.pipeline"):
            transformed = run_dswp(
                case, baseline, partition=partition, alias_model=alias_model,
                check=check, fault_plan=fault_plan, metrics=metrics,
            )
        dswp_sim = simulate(transformed.traces, machine,
                            fault_plan=fault_plan, cycle_budget=cycle_budget,
                            metrics=metrics, tracer=tracer)
    except errors as exc:
        incident = finish_incident(
            incident_from_exception(exc, fault=_plan_name(fault_plan)))
        degraded = ExperimentResult(workload, base_sim, None, None)
        return SupervisedOutcome(
            status=STATUS_DEGRADED, result=degraded, incidents=[incident],
            baseline=baseline,
        )

    result = ExperimentResult(workload, base_sim, dswp_sim, transformed.result)
    return SupervisedOutcome(status=STATUS_CLEAN, result=result, incidents=[],
                             baseline=baseline)


def _plan_name(fault_plan: Optional[FaultPlan]) -> Optional[str]:
    return fault_plan.name if fault_plan is not None else None
