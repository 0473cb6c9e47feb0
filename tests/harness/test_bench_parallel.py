"""Bench-on-the-fabric guarantees: bit-identical results regardless of
worker count, and the sampled verification mode's bookkeeping."""

from __future__ import annotations

import json

import pytest

from repro.harness.bench import (
    MIN_SAMPLE_FRACTION,
    SAMPLE_BUDGET,
    batch_groups,
    run_bench,
    sweep_points,
    verification_sample,
)

pytestmark = pytest.mark.parallel_smoke

SCALE = 40


def _point_map(report):
    return {p["id"]: (p["cycles"], p["ipcs"], p["instructions"])
            for p in report["points"]}


class TestJobsInvariance:
    def test_two_workers_bit_identical_to_one(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial_dir.mkdir()
        parallel_dir.mkdir()
        serial = run_bench("fig9a", scale=SCALE, jobs=1,
                           out_dir=str(serial_dir), compare=False)
        parallel = run_bench("fig9a", scale=SCALE, jobs=2,
                             out_dir=str(parallel_dir), compare=False)
        assert _point_map(serial) == _point_map(parallel)
        assert parallel["jobs"] == 2
        assert serial["jobs"] == 1

    def test_parallel_identical_flag_is_set_by_comparison(self, tmp_path):
        report = run_bench("fig9a", scale=SCALE, jobs=2,
                           out_dir=str(tmp_path), compare=True)
        assert report["parallel_identical"] is True
        assert report["functional_identical"] is True
        # And it round-trips through the on-disk json.
        with open(report["path"]) as fh:
            assert json.load(fh)["parallel_identical"] is True

    def test_no_compare_leaves_parallel_identical_unset(self, tmp_path):
        report = run_bench("fig9a", scale=SCALE, jobs=2,
                           out_dir=str(tmp_path), compare=False)
        assert report["parallel_identical"] is None
        assert report["verification"]["mode"] == "none"


class TestSampledVerification:
    def test_small_scale_sample_is_full_coverage(self):
        points = sweep_points("fig9a", SCALE)
        sample = verification_sample(points, SCALE)
        # SCALE <= SAMPLE_BUDGET -> every point is verified.
        assert [s["id"] for s in sample] == [p["id"] for p in points]

    def test_large_scale_sample_is_bounded_and_deterministic(self):
        points = sweep_points("fig9a", 4000)
        sample = verification_sample(points, 4000)
        expected = max(1, round(len(points) * MIN_SAMPLE_FRACTION))
        assert len(sample) == expected
        assert sample == verification_sample(points, 4000)
        # Sweep order is preserved within the sample.
        order = {p["id"]: i for i, p in enumerate(points)}
        indices = [order[s["id"]] for s in sample]
        assert indices == sorted(indices)

    def test_fraction_tracks_the_budget(self):
        points = sweep_points("fig9a", SAMPLE_BUDGET * 2)
        sample = verification_sample(points, SAMPLE_BUDGET * 2)
        assert len(sample) == max(1, round(len(points) * 0.5))

    def test_skip_naive_records_sampled_mode(self, tmp_path):
        report = run_bench("fig9a", scale=SCALE, jobs=2,
                           out_dir=str(tmp_path), compare=True,
                           skip_naive=True)
        assert report["verification"]["mode"] == "sampled"
        covered = report["verification"]["points"]
        assert covered  # never empty
        assert report["functional_identical"] is True
        with open(report["path"]) as fh:
            on_disk = json.load(fh)
        assert on_disk["verification"]["mode"] == "sampled"
        assert on_disk["verification"]["points"] == covered

    def test_full_mode_is_recorded_too(self, tmp_path):
        report = run_bench("fig9a", scale=SCALE, jobs=1,
                           out_dir=str(tmp_path), compare=True)
        assert report["verification"]["mode"] == "full"
        assert len(report["verification"]["points"]) == report["num_points"]


class TestPoolTelemetryInReport:
    def test_report_metrics_carry_pool_utilization(self, tmp_path):
        report = run_bench("fig9a", scale=SCALE, jobs=2,
                           out_dir=str(tmp_path), compare=False)
        metrics = report["metrics"]
        assert metrics["pool.workers"] == 2
        total_tasks = sum(v for k, v in metrics.items()
                          if k.startswith("pool.tasks{"))
        # One task per trace set -- (workload, kind) -- not per point.
        assert total_tasks == report["num_tasks"]
        assert report["num_tasks"] == len(
            batch_groups(sweep_points("fig9a", SCALE)))
        assert "pool.utilization{worker=0}" in metrics
        assert "pool.utilization{worker=1}" in metrics

    def test_cost_model_description_lands_in_report(self, tmp_path):
        first = run_bench("fig9a", scale=SCALE, jobs=1,
                          out_dir=str(tmp_path), compare=False)
        assert first["cost_model"] == "cold"
        # The first report's point_seconds become the next run's model.
        second = run_bench("fig9a", scale=SCALE, jobs=1,
                           out_dir=str(tmp_path), compare=False)
        assert "fitted" in second["cost_model"]
