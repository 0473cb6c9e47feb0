"""Sweep-level guarantees of the batched engine (``-m batch_smoke``).

Two guardrails ride on top of the machine-level differential campaign
(``tests/machine/test_batched_differential.py``):

* a **golden regression**: a small frozen Fig. 9a sweep is checked in
  (``data/golden_fig9a_scale60.json``) and both the batched engine and
  ``cmp.simulate`` (the bench sweep's engine) must reproduce it
  byte-identically -- any timing-model or batching change that shifts
  a single cycle fails loudly here;
* **lane routing**: the sweeps' config groups
  (``batch_groups(sweep_points(...))``) ride the vector engine where
  they should, with every result still identical to ``cmp.simulate``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.bench import (
    batch_groups,
    sweep_points,
)
from repro.harness.cache import ExperimentCache
from repro.machine.batch import BatchedSimulator
from repro.machine.cmp import simulate
from repro.machine.fingerprint import sim_fingerprint
from repro.machine.config import (
    FULL_WIDTH_CORE,
    HALF_WIDTH_CORE,
    MachineConfig,
)
from repro.workloads import get_workload

pytestmark = pytest.mark.batch_smoke

GOLDEN_SCALE = 60
GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_fig9a_scale60.json")


def _machine(spec: dict) -> MachineConfig:
    core = HALF_WIDTH_CORE if spec["core"] == "half" else FULL_WIDTH_CORE
    return MachineConfig(core=core,
                         comm_latency=spec.get("comm_latency", 1),
                         queue_size=spec.get("queue_size", 32))


def _group_traces(group: list[dict], cache: ExperimentCache):
    spec0 = group[0]
    case = get_workload(spec0["workload"]).build(scale=spec0["scale"])
    baseline = cache.baseline(case)
    if spec0["kind"] == "base":
        return [baseline.trace]
    return cache.dswp(case, baseline).traces


def _summary(sim) -> dict:
    return {
        "cycles": sim.cycles,
        "ipcs": sim.ipcs(),
        "instructions": [c.instructions_executed for c in sim.cores],
    }


def sweep_document(scale: int, batched: bool) -> dict:
    """The frozen-sweep document, via either timing lane.

    The oracle lane generated the checked-in golden; the batched lane
    must reproduce it byte-for-byte.
    """
    cache = ExperimentCache()
    bsim = BatchedSimulator()
    out = []
    for group in batch_groups(sweep_points("fig9a", scale)):
        traces = _group_traces(group, cache)
        machines = [_machine(spec["machine"]) for spec in group]
        if batched:
            outcomes = bsim.simulate_batch(traces, machines)
            assert all(o.error is None for o in outcomes)
            sims = [o.result for o in outcomes]
        else:
            sims = [simulate(traces, machine) for machine in machines]
        out.extend({"id": spec["id"], **_summary(sim)}
                   for spec, sim in zip(group, sims))
    return {"figure": "fig9a", "scale": scale, "points": out}


def render(document: dict) -> bytes:
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


class TestGoldenSweep:
    def test_batched_reproduces_frozen_sweep_byte_identically(self):
        with open(GOLDEN_PATH, "rb") as fh:
            frozen = fh.read()
        assert render(sweep_document(GOLDEN_SCALE, batched=True)) == frozen

    def test_oracle_still_agrees_with_frozen_sweep(self):
        """Localises a golden failure: if this one fails too, the
        timing model moved; if only the batched test fails, the
        batching layer broke."""
        with open(GOLDEN_PATH, "rb") as fh:
            frozen = fh.read()
        assert render(sweep_document(GOLDEN_SCALE, batched=False)) == frozen


class TestBatchReport:
    """The batched engine's per-lane record (``last_lanes``) over the
    bench sweeps' config groups."""

    @staticmethod
    def _lanes(figure: str) -> list[tuple[list[dict], list[dict]]]:
        """``(group, lanes)`` per multi-config group of ``figure`` at
        scale 30, each batched result deep-compared (``sim_fingerprint``)
        against ``cmp.simulate``."""
        cache = ExperimentCache()
        bsim = BatchedSimulator()
        out = []
        for group in batch_groups(sweep_points(figure, 30)):
            if len(group) < 2:
                continue
            traces = _group_traces(group, cache)
            machines = [_machine(spec["machine"]) for spec in group]
            outcomes = bsim.simulate_batch(traces, machines)
            for outcome, machine in zip(outcomes, machines):
                assert outcome.error is None
                assert sim_fingerprint(outcome.result) == sim_fingerprint(
                    simulate(traces, machine))
            out.append((group, [dict(lane) for lane in bsim.last_lanes]))
        return out

    def test_qsweep_runs_batched_on_the_vector_lane(self):
        """The queue-size sweep's lane groups (two comm points per
        depth, same width class) must ride the vector engine with the
        bit-identity gate intact."""
        groups = self._lanes("qsweep")
        assert groups
        for _group, lanes in groups:
            # Three queue depths -> three geometry lane groups of two.
            assert [lane["width"] for lane in lanes] == [2, 2, 2]
            assert all(lane["vector"] == 2 for lane in lanes)
        ids = {spec["id"] for group, _ in groups for spec in group}
        assert any(":dswp-full-q4-comm1" in pid for pid in ids)
        assert any(":dswp-full-q64-comm5" in pid for pid in ids)

    def test_fig9b_rides_the_vector_lane(self):
        groups = self._lanes("fig9b")
        assert groups
        for group, lanes in groups:
            assert sum(lane["vector"] for lane in lanes) == len(group)
