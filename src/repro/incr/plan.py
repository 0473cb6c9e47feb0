"""The incremental scheduler: prove validity, emit only invalid work.

:func:`build_figure_plan` walks one figure sweep's requested points
against the artifact store *before* any worker is spawned:

* per functional group (workload x scale x kind) it reads the case
  fingerprint from its receipt (:func:`repro.incr.stages.planned_case_fp`
  -- a workload is built only when no receipt records it), derives
  the interpret / transform stage keys and checks their receipts and
  artifacts exist (existence probes -- large trace artifacts are never
  decoded on the planning path);
* per point it derives the simulate key from the recorded trace
  content digest and loads the (tiny) point summary when valid;
* points whose whole chain is proven valid are **served** from the
  store; everything else stays **pending** and becomes pool tasks (one
  per trace set).

Stage accounting (``incr.stage.{hit,miss,scheduled}``):

* **hit** -- receipt proven valid and the stage will *not* execute
  (served outright, or store-hit inside a scheduled task: a valid
  interpret under an invalid simulate still counts as the hit it is);
* **miss** -- receipt absent/invalid at plan time, including stages
  whose key is unknowable because an upstream stage is invalid;
* **scheduled** -- the stage will execute compute.  Exactly the
  misses are scheduled: a valid simulate is served even when its
  siblings in the same trace set re-run.

Stages are deduplicated by key across points and groups (the base and
dswp flavours of one workload share one interpret stage; it is
counted -- and executed -- once).

The plan pins every receipt and artifact it depends on
(``pins/<plan>.json``) so a concurrent ``cache gc`` cannot collect
entries out from under an in-flight sweep; :meth:`FigurePlan.release`
drops the pin when the run completes.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.incr import dag, stages

_plan_seq = 0


def canonical_machine(spec: dict) -> dict:
    """The fully-defaulted machine spec (two sweep specs that elide vs
    spell a default must share one simulate stage)."""
    return {
        "core": spec.get("core", "full"),
        "comm_latency": spec.get("comm_latency", 1),
        "queue_size": spec.get("queue_size", 32),
    }


class FigurePlan:
    """One sweep's proven/pending partition; see module docstring."""

    def __init__(self, figure: str, scale: int, check: bool) -> None:
        global _plan_seq
        _plan_seq += 1
        self.figure = figure
        self.scale = scale
        self.check = check
        self.plan_id = f"plan-{os.getpid()}-{_plan_seq}"
        #: Point id -> summary dict (with ``id``) served from the store.
        self.served: dict[str, dict] = {}
        #: Sweep-order specs that must run as pool tasks.
        self.pending: list[dict] = []
        #: Stage key -> (kind, hit, miss, scheduled) -- deduplicated.
        self._status: dict = {}
        #: Point id -> simulate stage key (None while unknowable).
        self.simulate_keys: dict[str, Optional[str]] = {}
        self.figure_stage_key: Optional[str] = None
        self.figure_hit = False
        self.plan_seconds = 0.0
        self._store = None
        self._pinned = False

    # ------------------------------------------------------------------
    def _mark(self, key, kind: str, hit: bool, miss: bool,
              scheduled: bool) -> None:
        prev = self._status.get(key)
        if prev is None:
            self._status[key] = [kind, hit, miss, scheduled]
        else:
            prev[3] = prev[3] or scheduled
            prev[1] = prev[1] and hit

    def counts(self) -> dict[str, dict[str, int]]:
        out = {kind: {"hit": 0, "miss": 0, "scheduled": 0}
               for kind in dag.STAGES}
        for kind, hit, miss, scheduled in self._status.values():
            if hit and not scheduled:
                out[kind]["hit"] += 1
            if miss:
                out[kind]["miss"] += 1
            if scheduled:
                out[kind]["scheduled"] += 1
        return out

    def scheduled_total(self) -> int:
        return sum(1 for _, _, _, s in self._status.values() if s)

    def compute_scheduled(self) -> int:
        return sum(1 for kind, _, _, s in self._status.values()
                   if s and kind != dag.STAGE_FIGURE)

    def report(self) -> dict:
        """The ``incr`` block of ``BENCH_<figure>.json``."""
        return {
            "plan_id": self.plan_id,
            "plan_seconds": self.plan_seconds,
            "stages": self.counts(),
            "scheduled_total": self.scheduled_total(),
            "compute_scheduled": self.compute_scheduled(),
            "served_points": sorted(self.served),
            "pending_points": [spec["id"] for spec in self.pending],
            "figure_stage": ("hit" if self.figure_hit else "scheduled"),
        }

    def record_metrics(self, registry) -> None:
        for kind, row in self.counts().items():
            for outcome in ("hit", "miss", "scheduled"):
                if row[outcome]:
                    registry.counter(f"incr.stage.{outcome}",
                                     stage=kind).inc(row[outcome])

    # ------------------------------------------------------------------
    def release(self) -> None:
        """Drop the gc pin (idempotent; call when the sweep is done)."""
        if self._store is not None and self._pinned:
            self._store.unpin(self.plan_id)
            self._pinned = False


def build_figure_plan(store, figure: str, scale: int, points: list[dict],
                      check: bool = True) -> FigurePlan:
    """Prove which of ``points`` the store can serve; see module doc."""
    t0 = time.perf_counter()
    plan = FigurePlan(figure, scale, check)
    plan._store = store

    pin_receipts: list[str] = []
    pin_artifacts: list[str] = []

    # Group in sweep order by (workload, scale, kind) -- the same
    # grouping the fabric dispatches.
    groups: dict[tuple, list[dict]] = {}
    for spec in points:
        groups.setdefault(
            (spec["workload"], spec["scale"], spec["kind"]), []).append(spec)

    for (workload, wscale, kind), group in groups.items():
        cfp = stages.planned_case_fp(store, workload, wscale)

        ikey = dag.interpret_key(cfp, check)
        irec = store.get_receipt(ikey)
        iart = irec["outputs"].get("artifact") if irec is not None else None
        ivalid = iart is not None and store.has_artifact(iart)
        plan._mark(ikey, dag.STAGE_INTERPRET, ivalid, not ivalid,
                   not ivalid)

        traces_key: Optional[str] = None
        tkey: Optional[str] = None
        tart: Optional[str] = None
        if kind == "base":
            if ivalid:
                traces_key = irec["outputs"].get("traces")
        else:
            content = (irec["outputs"].get("content")
                       if ivalid else None)
            if content is not None:
                tkey = dag.transform_key(cfp, content, check=check)
                trec = store.get_receipt(tkey)
                tart = (trec["outputs"].get("artifact")
                        if trec is not None else None)
                tvalid = tart is not None and store.has_artifact(tart)
                plan._mark(tkey, dag.STAGE_TRANSFORM, tvalid, not tvalid,
                           not tvalid)
                if tvalid:
                    traces_key = trec["outputs"].get("traces")
            else:
                # Key unknowable below an invalid interpret: one
                # synthetic pending node per group.
                plan._mark(("pending", dag.STAGE_TRANSFORM, workload,
                            wscale, kind),
                           dag.STAGE_TRANSFORM, False, True, True)

        # traces_key is known only below a valid interpret (and, for
        # dswp, transform), so a loaded summary proves the whole chain.
        for spec in group:
            summary = None
            if traces_key is not None:
                skey, summary = stages.load_point_summary(
                    store, traces_key, canonical_machine(spec["machine"]))
                plan.simulate_keys[spec["id"]] = skey
                valid = summary is not None
                plan._mark(skey, dag.STAGE_SIMULATE, valid, not valid,
                           not valid)
            else:
                plan.simulate_keys[spec["id"]] = None
                plan._mark(("pending", dag.STAGE_SIMULATE, spec["id"]),
                           dag.STAGE_SIMULATE, False, True, True)
            if summary is not None:
                plan.served[spec["id"]] = {"id": spec["id"], **summary}
                pin_receipts.append(plan.simulate_keys[spec["id"]])
            else:
                plan.pending.append(spec)
        if ivalid:
            pin_receipts.append(ikey)
            pin_artifacts.append(iart)
        if tkey is not None and tart is not None:
            pin_receipts.append(tkey)
            pin_artifacts.append(tart)

    # Figure stage: key known only when every simulate key is.
    ordered_keys = [plan.simulate_keys.get(spec["id"]) for spec in points]
    if points and all(key is not None for key in ordered_keys):
        fkey = dag.figure_key(figure, scale, ordered_keys)
        plan.figure_stage_key = fkey
        receipt = store.get_receipt(fkey)
        fart = (receipt["outputs"].get("figure")
                if receipt is not None else None)
        fvalid = fart is not None and store.has_artifact(fart)
        plan.figure_hit = fvalid
        plan._mark(fkey, dag.STAGE_FIGURE, fvalid, not fvalid, not fvalid)
        if fvalid:
            pin_receipts.append(fkey)
            pin_artifacts.append(fart)
    elif points:
        plan._mark(("pending", dag.STAGE_FIGURE, figure, scale),
                   dag.STAGE_FIGURE, False, True, True)

    if store.pin(plan.plan_id, pin_receipts, pin_artifacts) is not None:
        plan._pinned = True
    plan.plan_seconds = time.perf_counter() - t0
    return plan


def finalize_figure(plan: FigurePlan, store, points: list[dict],
                    merged_points: list[dict]) -> dict:
    """Run (or prove) the figure aggregation stage after the sweep.

    Re-derives any simulate keys that were unknowable at plan time from
    the receipts the workers have since written; when the whole chain
    is now on record, the ordered point list is stored as the figure
    artifact and its receipt written.  A chain that is *still*
    incomplete (a degraded point whose stages never landed) leaves the
    stage scheduled-but-unrecorded -- never a receipt for an
    aggregation the store cannot reproduce.
    """
    if plan.figure_hit:
        return {"stage": "hit", "key": plan.figure_stage_key}

    ordered: list[Optional[str]] = []
    for spec in points:
        skey = plan.simulate_keys.get(spec["id"])
        if skey is None:
            skey = _rederive_simulate_key(plan, store, spec)
            plan.simulate_keys[spec["id"]] = skey
        ordered.append(skey)
    if not points or any(key is None for key in ordered):
        return {"stage": "scheduled", "key": None, "recorded": False}

    fkey = dag.figure_key(plan.figure, plan.scale, ordered)
    plan.figure_stage_key = fkey
    clean = [{k: v for k, v in p.items() if k != "degraded"}
             for p in merged_points]
    from repro.machine.fingerprint import content_digest

    address = content_digest(["figure-points", clean])
    store.put_artifact(address, clean)
    store.put_receipt(fkey, {"figure": address},
                      meta={"figure": plan.figure, "scale": plan.scale})
    return {"stage": "scheduled", "key": fkey, "recorded": True}


def _rederive_simulate_key(plan: FigurePlan, store,
                           spec: dict) -> Optional[str]:
    """Walk the now-written receipts to recover one point's simulate
    key; ``None`` when the chain is still incomplete."""
    cfp = stages.planned_case_fp(store, spec["workload"], spec["scale"])
    irec = store.get_receipt(dag.interpret_key(cfp, plan.check))
    if irec is None:
        return None
    if spec["kind"] == "base":
        traces_key = irec["outputs"].get("traces")
    else:
        content = irec["outputs"].get("content")
        if content is None:
            return None
        trec = store.get_receipt(
            dag.transform_key(cfp, content, check=plan.check))
        if trec is None:
            return None
        traces_key = trec["outputs"].get("traces")
    if traces_key is None:
        return None
    return dag.simulate_key(traces_key, canonical_machine(spec["machine"]))
