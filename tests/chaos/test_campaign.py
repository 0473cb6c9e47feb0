"""The chaos_smoke acceptance campaign: the differential gate.

For any chaos schedule in which every task eventually succeeds, the
bench report must be *bit-identical* to the clean run's, apart from
degradation/retry accounting -- the injected faults may change how the
sweep ran, never what it computed.  The campaign runs randomized
seeded schedules (kill/hang/slow/flaky/cache-corrupt all in the band
mix) against real sweeps and diffs the functional points; a second
half proves that a sweep killed mid-flight (SIGKILL) resumes by being
re-run: the artifact store serves every point it finished.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos import ChaosPlan
from repro.harness.bench import run_bench
from repro.incr.gc import entry_files

pytestmark = pytest.mark.chaos_smoke

FIGURE = "fig9a"
SCALE = 30


def _functional(report: dict) -> list[dict]:
    """The sweep's functional content: every point, degradation
    provenance stripped (chaos may change *how* a point ran)."""
    return [{k: v for k, v in p.items() if k != "degraded"}
            for p in report["points"]]


def _bench(out_dir, **kwargs) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    return run_bench(FIGURE, scale=SCALE, jobs=2, out_dir=str(out_dir),
                     compare=False, **kwargs)


def _scribbled(store_dir) -> list[str]:
    """Store entries holding what ``cache-corrupt`` writes."""
    out = []
    for rel, path in entry_files(str(store_dir)):
        if rel.endswith(".pkl"):
            with open(path, "rb") as fh:
                if fh.read() == b"\xffchaos-garbage\xff":
                    out.append(rel)
    return sorted(out)


class TestDifferentialCampaign:
    def test_randomized_chaos_schedules_are_bit_identical_to_clean(
            self, tmp_path):
        clean = _bench(tmp_path / "clean")
        baseline = json.dumps(_functional(clean), sort_keys=True)
        assert not clean["degraded_points"]

        injected_total = 0
        for seed in (1, 2, 3):
            out = tmp_path / f"chaos{seed}"
            plan = ChaosPlan.random(
                seed, cache_dir=str(out / ".bench-cache"))
            report = _bench(out, chaos=plan, task_timeout=1.5)
            got = json.dumps(_functional(report), sort_keys=True)
            assert got == baseline, f"seed {seed} diverged"
            assert report["chaos"]["seed"] == seed
            injected_total += sum(report["fabric"].values())
            # The report on disk agrees with the returned dict.
            with open(out / f"BENCH_{FIGURE}.json") as fh:
                disk = json.load(fh)
            assert json.dumps(_functional(disk), sort_keys=True) == baseline
            assert disk["chaos"] == report["chaos"]
        # The campaign must actually have exercised the fabric --
        # all-quiet seeds would make this test vacuous.
        assert injected_total > 0

    def test_chaos_provenance_lands_in_the_report(self, tmp_path):
        out = tmp_path / "chaos"
        plan = ChaosPlan.random(11, cache_dir=str(out / ".bench-cache"))
        report = _bench(out, chaos=plan, task_timeout=1.5)
        block = report["chaos"]
        assert block["mode"] == "random" and block["seed"] == 11
        assert set(report["fabric"]) == {
            "crashes", "fallbacks", "timeouts", "retries",
            "workers_reaped", "workers_killed"}
        # retried/timed-out accounting is consistent with the fabric.
        if report["fabric"]["retries"] == 0:
            assert report["retried_points"] == []
        if report["fabric"]["timeouts"] == 0:
            assert report["timed_out_tasks"] == []

    def test_cache_corrupt_reaches_the_store(self, tmp_path):
        """Every task's first dispatch scribbles over one store entry
        (under ``shard-<i>/``).  The sweep and a plain re-run both
        reproduce the clean points; the re-run evicts what the sweep
        left scribbled and counts it."""
        baseline = _functional(_bench(tmp_path / "clean"))
        out = tmp_path / "chaos"
        store_dir = out / ".bench-cache"
        plan = ChaosPlan.random(
            1, rates={"kill": 0.0, "hang": 0.0, "slow": 0.0, "flaky": 0.0,
                      "cache-corrupt": 1.0},
            cache_dir=str(store_dir))
        report = _bench(out, chaos=plan)
        assert _functional(report) == baseline
        left = _scribbled(store_dir)
        assert len(left) + report["cache_stats"].get(
            "corrupt_evictions", 0) >= 1
        assert any(os.path.basename(rel).startswith("receipt-")
                   for rel in left)

        rerun = _bench(out)
        assert _functional(rerun) == baseline
        assert rerun["cache_stats"]["corrupt_evictions"] >= 1
        # Every scribbled receipt was read -- evicted -- or rewritten.
        assert not [rel for rel in _scribbled(store_dir)
                    if os.path.basename(rel).startswith("receipt-")]


class TestResume:
    def test_sigkill_mid_sweep_resumes_to_the_clean_report(self, tmp_path):
        """The real thing: a bench subprocess SIGKILLed mid-sweep, then
        re-run in-process.  The store serves every point the killed
        sweep journaled, and the re-run equals the clean run."""
        clean = _bench(tmp_path / "clean")
        baseline = _functional(clean)

        out = tmp_path / "killed"
        out.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.path.dirname(__file__), "..", "..", "src")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "bench", "--figure", FIGURE,
             "--scale", str(SCALE), "--jobs", "1",
             "--no-compare", "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        journal = out / f"SWEEP_{FIGURE}.jsonl"
        deadline = time.monotonic() + 60.0
        try:
            # Kill as soon as a few points have been journaled (if the
            # sweep wins the race and finishes, the store serves all --
            # the assertions below still bite).
            while proc.poll() is None and time.monotonic() < deadline:
                if journal.exists() and sum(
                        1 for line in journal.read_text(
                            encoding="utf-8").splitlines()
                        if '"kind":"point"' in line) >= 3:
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.02)
        finally:
            proc.wait(timeout=60)
        journaled = set()
        for line in journal.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # the kill may tear the last line
            if record.get("kind") == "point":
                journaled.add(record["id"])
        assert journaled

        rerun = run_bench(FIGURE, scale=SCALE, jobs=1, out_dir=str(out),
                          compare=False)
        assert _functional(rerun) == baseline
        assert journaled <= set(rerun["incr"]["served_points"])

    def test_fresh_run_truncates_a_stale_journal(self, tmp_path):
        out = tmp_path / "sweep"
        _bench(out)
        journal = out / f"SWEEP_{FIGURE}.jsonl"
        before = journal.read_text(encoding="utf-8")
        assert before.count('"kind":"point"') == 40
        # Every sweep starts a new journal: old entries gone.
        _bench(out)
        after = journal.read_text(encoding="utf-8")
        assert after.count('"kind":"point"') == 40
        assert after.splitlines()[0] != "" and len(after) <= len(before) * 1.5
