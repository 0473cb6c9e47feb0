"""CLI surface of the execution fabric: ``bench --skip-naive``,
``fuzz --jobs`` and the ``report --bench`` pool-utilization table."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main

pytestmark = pytest.mark.parallel_smoke


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBenchFlags:
    def test_skip_naive_runs_and_reports_sample(self, tmp_path, capsys):
        code, out, _ = _run(capsys, [
            "bench", "--figure", "fig9a", "--scale", "40", "--jobs", "2",
            "--skip-naive", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "sampled" in out or "functional results identical" in out
        with open(tmp_path / "BENCH_fig9a.json") as fh:
            report = json.load(fh)
        assert report["verification"]["mode"] == "sampled"
        assert report["parallel_identical"] is True


class TestReportBench:
    def test_pool_utilization_table(self, tmp_path, capsys):
        code, _, _ = _run(capsys, [
            "bench", "--figure", "fig9a", "--scale", "40", "--jobs", "2",
            "--no-compare", "--out", str(tmp_path),
        ])
        assert code == 0
        path = str(tmp_path / "BENCH_fig9a.json")
        code, out, _ = _run(capsys, ["report", "--bench", path])
        assert code == 0
        assert "worker" in out
        assert "utilization" in out
        assert "steals" in out
        assert "2 worker(s)" in out

    def test_stage_table_follows_the_pool_table(self, tmp_path, capsys):
        code, _, _ = _run(capsys, [
            "bench", "--figure", "fig9b", "--scale", "30", "--jobs", "1",
            "--no-compare", "--out", str(tmp_path),
        ])
        assert code == 0
        path = str(tmp_path / "BENCH_fig9b.json")
        code, out, _ = _run(capsys, ["report", "--bench", path])
        assert code == 0
        assert out.index("utilization") < out.index("scheduled")
        assert "incr:    plan" in out
        assert "simulate speedup" not in out

    def test_pre_batch_reports_skip_the_batch_table(self, tmp_path,
                                                    capsys):
        code, _, _ = _run(capsys, [
            "bench", "--figure", "fig9a", "--scale", "30", "--jobs", "1",
            "--no-compare", "--out", str(tmp_path),
        ])
        assert code == 0
        path = str(tmp_path / "BENCH_fig9a.json")
        code, out, _ = _run(capsys, ["report", "--bench", path])
        assert code == 0
        assert "lane widths" not in out

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = _run(capsys, [
            "report", "--bench", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot load" in err

    def test_report_without_workload_or_bench_fails(self, capsys):
        code, _, err = _run(capsys, ["report"])
        assert code == 2
        assert "WORKLOAD" in err

    def test_report_workload_still_works(self, capsys):
        code, out, _ = _run(capsys, ["report", "wc", "--scale", "30"])
        assert code == 0
        assert "occupancy" in out


class TestFuzzJobs:
    def test_fuzz_jobs_matches_serial_output_files(self, tmp_path, capsys):
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")
        code, _, _ = _run(capsys, [
            "fuzz", "--seed", "3", "--iterations", "20",
            "--inject", "drop-dep-arc", "--max-failures", "1",
            "--out", serial_dir,
        ])
        assert code == 0  # fault detected -> success for --inject
        code, out, _ = _run(capsys, [
            "fuzz", "--seed", "3", "--iterations", "20",
            "--inject", "drop-dep-arc", "--max-failures", "1",
            "--out", parallel_dir, "--jobs", "2",
        ])
        assert code == 0
        assert "detected" in out
        assert sorted(os.listdir(serial_dir)) == sorted(
            os.listdir(parallel_dir))
