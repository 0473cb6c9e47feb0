"""Executable stage wrappers: run-or-reuse against the artifact store.

Each function implements one node of the stage graph
(:mod:`repro.incr.dag`) with the same contract:

1. derive the stage key from the live inputs;
2. if the store holds a valid receipt whose artifacts decode, serve
   the cached output (a *hit* -- no compute);
3. otherwise run the underlying pipeline stage, record the artifacts
   under their **semantic** content digests, write the receipt, and
   return the freshly computed output (a *miss*).

The semantic digests (trace content, profile counts, point summaries)
are what downstream keys consume, so an upstream stage that re-runs --
after a code edit -- but reproduces identical output leaves every
downstream receipt valid: early cutoff.

Every caller shares these wrappers: bench workers
(:mod:`repro.harness.bench`), the in-process runner
(:func:`repro.harness.runner.run_experiment` with ``store=``) and the
service worker (:mod:`repro.service.worker`), which is what lets a
served request reuse a prefix a bench sweep already computed when they
share a store directory.

Corrupt or missing artifacts behind a receipt degrade to a recompute
(the store's corruption-is-a-miss discipline); a torn write can cost
time, never correctness.
"""

from __future__ import annotations

import time
import weakref
from typing import Callable, Optional

from repro.analysis.profiling import LoopProfile
from repro.harness.cache import _alias_key, _partition_key
from repro.harness.runner import BaselineRun, DSWPRun, run_baseline, run_dswp
from repro.incr import dag
from repro.machine.fingerprint import case_fingerprint, content_digest, \
    memory_digest, trace_digest
from repro.workloads import get_workload
from repro.workloads.base import BUILD_SEED


class StageOutcome:
    """One stage execution: its output plus provenance for receipts.

    ``outputs`` is exactly what the stage's receipt records (artifact
    addresses and semantic digests); downstream stage keys read from
    it, so a cached and a fresh outcome are interchangeable."""

    __slots__ = ("value", "key", "outputs", "hit", "seconds")

    def __init__(self, value, key: str, outputs: dict, hit: bool,
                 seconds: float) -> None:
        self.value = value
        self.key = key
        self.outputs = outputs
        self.hit = hit
        self.seconds = seconds


#: ``id(obj) -> (weakref to obj, digest)``.  The weak reference both
#: proves the entry belongs to the live object (an ``id()`` alone is
#: reused once its object dies) and drops the entry when the object
#: is collected, so the memos never keep a dead case or trace alive.
_case_fp_memo: dict[int, tuple] = {}
_trace_digest_memo: dict[int, tuple] = {}


def _memoised(memo: dict, obj, compute: Callable[[object], str]) -> str:
    key = id(obj)
    entry = memo.get(key)
    if entry is not None and entry[0]() is obj:
        return entry[1]
    digest = compute(obj)

    def _forget(ref, key=key):
        if memo.get(key, (None,))[0] is ref:
            del memo[key]

    try:
        memo[key] = (weakref.ref(obj, _forget), digest)
    except TypeError:  # not weak-referenceable (a plain entry list)
        pass
    return digest


def case_fp(case) -> str:
    """Case fingerprint, memoised per live case object."""
    return _memoised(_case_fp_memo, case, case_fingerprint)


def planned_case_fp(store, workload: str, scale: int) -> str:
    """The fingerprint of ``workload`` built at ``scale``, read from its
    receipt (:func:`repro.incr.dag.case_key`); the workload is built --
    and the receipt written -- only when none is on record."""
    key = dag.case_key(workload, scale, BUILD_SEED)
    receipt = store.get_receipt(key)
    cfp = receipt["outputs"].get("case") if receipt is not None else None
    if isinstance(cfp, str):
        return cfp
    cfp = case_fp(get_workload(workload).build(scale=scale, seed=BUILD_SEED))
    store.put_receipt(key, {"case": cfp},
                      meta={"workload": workload, "scale": scale})
    return cfp


def _trace_content(trace) -> str:
    """Salt-free trace content digest, memoised per live trace object."""
    return _memoised(_trace_digest_memo, trace, trace_digest)


def traces_content(traces) -> str:
    """Semantic digest of an ordered trace set -- the simulate stage's
    upstream identity, shared by the base (one baseline trace) and
    dswp (per-thread traces) flavours."""
    return content_digest(["traces", [_trace_content(t) for t in traces]])


def _baseline_content(run: BaselineRun) -> str:
    """Semantic digest of an interpret stage's full output: the trace,
    the profile the partitioner reads, and the final functional state
    supervised fallbacks serve."""
    profile = run.profile
    return content_digest({
        "kind": "baseline-run",
        "trace": _trace_content(run.trace),
        "blocks": sorted(profile.block_counts.items()),
        "trips": profile.header_trips,
        "memory": memory_digest(
            run.memory.snapshot() if run.memory is not None else {}),
        "regs": sorted((str(reg), value) for reg, value in run.regs.items()),
    })


# ----------------------------------------------------------------------
# interpret
# ----------------------------------------------------------------------

def interpret_stage(store, case, check: bool = True) -> StageOutcome:
    """Baseline interpretation (trace + profile), run-or-reuse."""
    t0 = time.perf_counter()
    key = dag.interpret_key(case_fp(case), check)
    receipt = store.get_receipt(key)
    if receipt is not None:
        data = store.get_artifact(receipt["outputs"].get("artifact"))
        if isinstance(data, dict) and "trace" in data and "profile" in data:
            # Rebind the profile to the live case's loop: the pickled
            # profile carries a *copy* of the loop whose instruction
            # objects can never match the live function by identity,
            # so every instruction weight would read as 0.0 and the
            # partition heuristic would silently flip.
            loaded = data["profile"]
            profile = LoopProfile(loaded.block_counts, loaded.header_trips,
                                  case.loop)
            run = BaselineRun(case, data["trace"], profile,
                              memory=data.get("memory"),
                              regs=data.get("regs"))
            return StageOutcome(run, key, dict(receipt["outputs"]), True,
                                time.perf_counter() - t0)
    run = run_baseline(case, check=check)
    content = _baseline_content(run)
    store.put_artifact(content, {
        "trace": run.trace, "profile": run.profile,
        "memory": run.memory, "regs": run.regs,
    })
    outputs = {
        "artifact": content,
        "content": content,
        "traces": traces_content([run.trace]),
    }
    store.put_receipt(key, outputs, meta={"case": case.name, "check": check})
    return StageOutcome(run, key, outputs, False, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# transform
# ----------------------------------------------------------------------

def transform_stage(
    store,
    case,
    interp: StageOutcome,
    partition=None,
    alias_model=None,
    threads: int = 2,
    check: bool = True,
) -> StageOutcome:
    """DSWP transform + functional pipeline execution, run-or-reuse."""
    t0 = time.perf_counter()
    key = dag.transform_key(
        case_fp(case),
        interp.outputs.get("content", ""),
        partition_key=_partition_key(partition),
        alias_key=_alias_key(alias_model),
        threads=threads,
        check=check,
    )
    receipt = store.get_receipt(key)
    if receipt is not None:
        data = store.get_artifact(receipt["outputs"].get("artifact"))
        if isinstance(data, dict) and "result" in data and "traces" in data:
            run = DSWPRun(data["result"], data["traces"])
            return StageOutcome(run, key, dict(receipt["outputs"]), True,
                                time.perf_counter() - t0)
    run = run_dswp(case, interp.value, partition=partition,
                   alias_model=alias_model, threads=threads, check=check)
    traces = traces_content(run.traces)
    address = content_digest({"kind": "dswp-run", "key": key,
                              "traces": traces})
    store.put_artifact(address, {"result": run.result, "traces": run.traces})
    outputs = {"artifact": address, "traces": traces}
    store.put_receipt(key, outputs, meta={"case": case.name})
    return StageOutcome(run, key, outputs, False, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# simulate (point summaries -- bench's unit of reuse)
# ----------------------------------------------------------------------

def summary_address(summary: dict) -> str:
    """Content address of one point summary (cycles/ipcs/instructions;
    the spec-level ``id`` stays outside -- identical simulations from
    different figures share the artifact)."""
    return content_digest(["point-summary", summary])


def load_point_summary(store, traces: str,
                       machine_spec: dict) -> tuple[str, Optional[dict]]:
    """Look up a simulate stage's recorded summary.  Returns
    ``(stage_key, summary | None)``; any malformed entry is a miss.

    Summaries are small enough to live inline in the receipt (one
    store entry per point, not two); a receipt carrying only the
    summary's address (an older or external writer) falls back to the
    artifact load."""
    key = dag.simulate_key(traces, machine_spec)
    receipt = store.get_receipt(key)
    if receipt is None:
        return key, None
    summary = receipt.get("inline")
    if not _summary_ok(summary):
        summary = store.get_artifact(receipt["outputs"].get("summary"))
    if not _summary_ok(summary):
        return key, None
    return key, summary


def _summary_ok(summary) -> bool:
    return (isinstance(summary, dict) and "cycles" in summary
            and "ipcs" in summary and "instructions" in summary)


def store_point_summary(store, traces: str, machine_spec: dict,
                        summary: dict) -> str:
    """Record one simulate stage's output; returns its stage key.

    The summary rides inline in the receipt; its semantic address is
    still recorded in ``outputs`` so the stage's identity is
    content-derived like every other."""
    key = dag.simulate_key(traces, machine_spec)
    store.put_receipt(key, {"summary": summary_address(summary)},
                      inline=dict(summary))
    return key
