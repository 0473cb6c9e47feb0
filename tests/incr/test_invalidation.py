"""Invalidation semantics of the incremental planner.

One warm store, several edits, and for each the exact set of stages
the planner may reschedule (:mod:`repro.incr.plan`):

* a simulator-layer version bump invalidates **simulate + figure
  only** -- cached traces re-simulate without re-interpreting;
* mutating one workload invalidates **only its subtree** -- sibling
  workloads' whole chains still serve from the store;
* a torn write behind a receipt is a **miss, never decoded** -- the
  planner degrades that one stage to a recompute and counts the
  corruption.

The store is warmed once per module by a real ``run_bench`` sweep (the
same path production warms it through), then each scenario replans
against it without running further compute.
"""

from __future__ import annotations

import shutil

import pytest

from repro.harness.bench import run_bench, sweep_points
from repro.incr import dag, stages
from repro.incr.plan import build_figure_plan
from repro.incr.store import ARTIFACT_KIND, RECEIPT_KIND, ArtifactStore
from repro.workloads import get_workload

FIGURE = "fig9a"
SCALE = 40


@pytest.fixture(scope="module")
def warm_store_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("warm-bench")
    report = run_bench(FIGURE, scale=SCALE, jobs=2, out_dir=str(out),
                       compare=False)
    assert report["degraded_points"] == []
    return str(out / ".bench-cache")


def _plan(store_dir, points=None):
    store = ArtifactStore(persist_dir=store_dir)
    plan = build_figure_plan(
        store, FIGURE, SCALE, points or sweep_points(FIGURE, SCALE))
    plan.release()
    return plan


def _stage_counts(plan, kind):
    row = plan.counts()[kind]
    return row["hit"], row["miss"], row["scheduled"]


def test_warm_plan_schedules_nothing(warm_store_dir):
    plan = _plan(warm_store_dir)
    assert plan.scheduled_total() == 0
    assert plan.compute_scheduled() == 0
    assert plan.pending == []
    assert plan.figure_hit
    for kind in dag.COMPUTE_STAGES:
        hit, miss, scheduled = _stage_counts(plan, kind)
        assert miss == 0 and scheduled == 0 and hit > 0, kind


def test_simulator_version_bump_respins_simulate_and_figure_only(
        warm_store_dir, monkeypatch):
    monkeypatch.setitem(dag._VERSION_SALTS, dag.STAGE_SIMULATE, "edited")
    plan = _plan(warm_store_dir)
    # The functional prefix is untouched: cached traces serve.
    for kind in (dag.STAGE_INTERPRET, dag.STAGE_TRANSFORM):
        hit, miss, scheduled = _stage_counts(plan, kind)
        assert miss == 0 and scheduled == 0 and hit > 0, kind
    # Every simulate point re-runs, and so does the aggregation.
    hit, miss, scheduled = _stage_counts(plan, dag.STAGE_SIMULATE)
    assert hit == 0 and miss == scheduled == len(plan.pending)
    assert len(plan.pending) == len(sweep_points(FIGURE, SCALE))
    assert not plan.figure_hit


def test_interpret_layer_edit_respins_everything(warm_store_dir,
                                                 monkeypatch):
    monkeypatch.setitem(dag._VERSION_SALTS, dag.STAGE_INTERPRET, "edited")
    plan = _plan(warm_store_dir)
    for kind in dag.COMPUTE_STAGES:
        hit, _, scheduled = _stage_counts(plan, kind)
        assert hit == 0 and scheduled > 0, kind
    assert len(plan.pending) == len(sweep_points(FIGURE, SCALE))


def test_one_workload_mutation_leaves_siblings_warm(warm_store_dir):
    # A mutated workload has a new case fingerprint -- the same
    # invalidation a source edit to that one workload produces.  Model
    # it by re-pointing one workload's sweep points at a different
    # scale; every other workload's chain must still serve.
    points = sweep_points(FIGURE, SCALE)
    mutated = [dict(spec, scale=SCALE + 1)
               if spec["workload"] == "compress" else spec
               for spec in points]
    plan = _plan(warm_store_dir, points=mutated)
    pending_ids = {spec["id"] for spec in plan.pending}
    assert pending_ids == {spec["id"] for spec in points
                           if spec["workload"] == "compress"}
    served_workloads = {pid.split(":")[0] for pid in plan.served}
    assert "compress" not in served_workloads
    assert served_workloads == {spec["workload"] for spec in points
                                if spec["workload"] != "compress"}


def test_torn_receipt_is_a_planner_miss_never_decoded(warm_store_dir,
                                                      tmp_path):
    # Work on a copy: corruption must not leak into the shared module
    # fixture other tests replan against.
    store_dir = str(tmp_path / "torn-store")
    shutil.copytree(warm_store_dir, store_dir)
    points = sweep_points(FIGURE, SCALE)

    probe = _plan(store_dir, points=points)
    victim = next(spec["id"] for spec in points
                  if spec["workload"] == "compress"
                  and spec["kind"] == "dswp")
    skey = probe.simulate_keys[victim]
    store = ArtifactStore(persist_dir=store_dir)
    with open(store._entry_path(RECEIPT_KIND, skey), "wb") as fh:
        fh.write(b"\x80\x04torn-mid-write")

    fresh = ArtifactStore(persist_dir=store_dir)
    before = fresh.stats().get("corrupt_evictions", 0)
    plan = build_figure_plan(fresh, FIGURE, SCALE, points)
    plan.release()
    # The torn bytes were evicted and counted at decode, never
    # interpreted as a receipt...
    assert fresh.stats().get("corrupt_evictions", 0) == before + 1
    # ...only the victim replans (its siblings' simulates still serve),
    # while every other workload still serves whole...
    assert [spec["id"] for spec in plan.pending] == [victim]
    hit, miss, scheduled = _stage_counts(plan, dag.STAGE_SIMULATE)
    assert miss == scheduled == 1
    # ...and the functional prefix stays entirely warm.
    for kind in (dag.STAGE_INTERPRET, dag.STAGE_TRANSFORM):
        hit, miss, scheduled = _stage_counts(plan, kind)
        assert miss == 0 and scheduled == 0, kind


def test_torn_artifact_degrades_to_recompute_at_the_stage(warm_store_dir,
                                                          tmp_path):
    # The stage layer is where large artifacts are decoded; a torn one
    # behind a valid receipt must cost a recompute, never a crash or a
    # half-decoded trace.
    store_dir = str(tmp_path / "torn-artifact")
    shutil.copytree(warm_store_dir, store_dir)
    store = ArtifactStore(persist_dir=store_dir)

    case = get_workload("compress").build(scale=SCALE)
    ikey = dag.interpret_key(stages.case_fp(case), True)
    receipt = store.get_receipt(ikey)
    address = receipt["outputs"]["artifact"]
    with open(store._entry_path(ARTIFACT_KIND, address), "wb") as fh:
        fh.write(b"\x80\x04torn")

    fresh = ArtifactStore(persist_dir=store_dir)
    outcome = stages.interpret_stage(fresh, case)
    assert not outcome.hit  # recomputed, not served from torn bytes
    assert outcome.value.trace is not None
    # The recompute healed the store: the same stage now hits again.
    assert stages.interpret_stage(fresh, case).hit
