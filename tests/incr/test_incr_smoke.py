"""The ``incr_smoke`` tier: the headline behaviours of the stage graph.

Three real ``run_bench`` sweeps against one store
(``docs/INCREMENTAL.md``):

1. **cold** -- every stage misses and is scheduled;
2. **warm no-op** -- zero stages scheduled, zero pool tasks, at least
   10x faster than cold, and the report byte-identical to the cold
   one modulo timing/telemetry fields;
3. **simulator edit** (a salted simulate-stage version, the
   machine-layer invalidation) -- cached traces re-simulate without a
   single interpret or transform re-running, and the points still
   match the cold run bit for bit.

``make incr-smoke`` runs this file; it also rides in tier-1.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.harness.bench import run_bench, sweep_points
from repro.incr import dag

FIGURE = "fig9b"
SCALE = 200

#: Report fields that legitimately vary between two identical sweeps:
#: wall-clock timings, pool/plan telemetry, and provenance stamps.
VOLATILE = frozenset({
    "optimized_seconds", "optimized_stage_seconds", "naive_seconds",
    "naive_stage_seconds", "point_seconds", "speedup", "stage_speedups",
    "metrics", "provenance", "cost_model", "incr", "fabric",
    "fabric_incidents", "num_tasks", "jobs", "cache_stats", "verification",
})


def _stable(report: dict) -> bytes:
    return json.dumps({k: v for k, v in report.items()
                       if k not in VOLATILE},
                      sort_keys=True).encode()


def _run(out_dir):
    t0 = time.perf_counter()
    report = run_bench(FIGURE, scale=SCALE, jobs=2, out_dir=str(out_dir),
                       compare=False)
    return report, time.perf_counter() - t0


@pytest.mark.incr_smoke
def test_cold_warm_and_machine_edit(tmp_path, monkeypatch):
    num_points = len(sweep_points(FIGURE, SCALE))

    cold, cold_seconds = _run(tmp_path)
    assert cold["degraded_points"] == []
    assert cold["incr"]["scheduled_total"] > 0
    assert cold["incr"]["served_points"] == []
    assert cold["num_tasks"] > 0

    # -- warm no-op: prove, don't recompute -----------------------------
    warm, warm_seconds = _run(tmp_path)
    assert warm["incr"]["scheduled_total"] == 0
    assert warm["incr"]["compute_scheduled"] == 0
    assert warm["incr"]["figure_stage"] == "hit"
    assert len(warm["incr"]["served_points"]) == num_points
    # No pool task ran -- the sweep never even forked workers.
    assert warm["num_tasks"] == 0 and warm["jobs"] == 0
    # Bit-identical results, an order of magnitude faster.
    assert _stable(warm) == _stable(cold)
    assert warm_seconds * 10 <= cold_seconds, (
        f"warm {warm_seconds:.2f}s vs cold {cold_seconds:.2f}s")

    # -- simulator edit: re-simulate cached traces ----------------------
    monkeypatch.setitem(dag._VERSION_SALTS, dag.STAGE_SIMULATE, "edited")
    edited, _ = _run(tmp_path)
    stages = edited["incr"]["stages"]
    # The functional prefix served from the store: nothing re-ran.
    assert stages["interpret"]["scheduled"] == 0
    assert stages["interpret"]["hit"] > 0
    assert stages["transform"]["scheduled"] == 0
    # Every simulate point re-ran, and the aggregation with it.
    assert stages["simulate"]["scheduled"] == num_points
    assert stages["figure"]["scheduled"] == 1
    assert edited["incr"]["served_points"] == []
    # Same machine model, same numbers: the edit was version-only.
    assert _stable(edited) == _stable(cold)


@pytest.mark.incr_smoke
def test_warm_run_passes_the_naive_comparison_gate(tmp_path):
    # With the sampled naive comparison enabled, a fully warm sweep
    # must report its real (plan-cost-relative) speedup -- not 0.00x
    # from an all-zero denominator -- and the naive sample must still
    # functionally match the store-served payloads.
    kwargs = dict(scale=40, jobs=2, out_dir=str(tmp_path),
                  compare=True, skip_naive=True)
    cold = run_bench(FIGURE, **kwargs)
    assert cold["functional_identical"]

    warm = run_bench(FIGURE, **kwargs)
    assert warm["incr"]["scheduled_total"] == 0
    assert warm["functional_identical"]
    assert warm["speedup"] >= 1.0
