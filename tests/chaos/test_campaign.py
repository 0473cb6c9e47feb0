"""The chaos_smoke acceptance campaign (ISSUE 8's differential gate).

For any chaos schedule in which every task eventually succeeds, the
bench report must be *bit-identical* to the clean run's, apart from
degradation/retry accounting -- the injected faults may change how the
sweep ran, never what it computed.  The campaign runs randomized
seeded schedules (kill/hang/slow/flaky/shm-corrupt/cache-corrupt all
in the band mix) against real sweeps and diffs the functional points;
a second half proves the resume path: a sweep killed mid-flight
(SIGKILL, torn journal tail included) resumes to the same report while
recomputing only the missing points.
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
from repro.harness.bench import run_bench, sweep_points

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


class TestResume:
    def test_truncated_journal_recomputes_only_missing_points(
            self, tmp_path):
        """Deterministic SIGKILL simulation: keep the first 5 journal
        records plus a torn half-line (exactly what a kill mid-append
        leaves) and resume."""
        out = tmp_path / "sweep"
        clean = _bench(out)
        baseline = _functional(clean)
        all_ids = {p["id"] for p in clean["points"]}

        journal = out / f"SWEEP_{FIGURE}.jsonl"
        lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        header, records = lines[0], lines[1:]
        kept = records[:5]
        kept_ids = {json.loads(line)["id"] for line in kept}
        journal.write_text(header + "".join(kept) + records[5][:17],
                           encoding="utf-8")

        resumed = run_bench(FIGURE, scale=SCALE, jobs=2,
                            out_dir=str(out), compare=False, resume=True)
        assert _functional(resumed) == baseline
        assert set(resumed["resume"]["reused_points"]) == kept_ids
        assert set(resumed["resume"]["recomputed_points"]) == \
            all_ids - kept_ids

    def test_stale_fingerprint_is_invalidated_not_reused(self, tmp_path):
        out = tmp_path / "sweep"
        _bench(out)
        # Same point ids, different scale: every journal entry's input
        # fingerprint is stale and must be recomputed.
        resumed = run_bench(FIGURE, scale=SCALE + 2, jobs=2,
                            out_dir=str(out), compare=False, resume=True)
        assert resumed["resume"]["reused_points"] == []
        assert len(resumed["resume"]["recomputed_points"]) == \
            len(sweep_points(FIGURE, SCALE + 2))

    def test_sigkill_mid_sweep_resumes_to_the_clean_report(self, tmp_path):
        """The real thing: a bench subprocess SIGKILLed mid-sweep, then
        resumed in-process.  Whatever subset the journal captured, the
        resumed report must equal the clean run's."""
        clean = _bench(tmp_path / "clean")
        baseline = _functional(clean)
        all_ids = {p["id"] for p in clean["points"]}

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
            # sweep wins the race and finishes, resume reuses all --
            # the equality assertion below still bites).
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

        resumed = run_bench(FIGURE, scale=SCALE, jobs=1, out_dir=str(out),
                            compare=False, resume=True)
        assert _functional(resumed) == baseline
        reused = set(resumed["resume"]["reused_points"])
        recomputed = set(resumed["resume"]["recomputed_points"])
        assert reused | recomputed == all_ids
        assert not reused & recomputed

    def test_resume_is_reentrant(self, tmp_path):
        # Resume of a complete journal recomputes nothing and the
        # journal survives for the *next* resume (append, not truncate).
        out = tmp_path / "sweep"
        clean = _bench(out)
        first = run_bench(FIGURE, scale=SCALE, jobs=2, out_dir=str(out),
                          compare=False, resume=True)
        assert first["resume"]["recomputed_points"] == []
        second = run_bench(FIGURE, scale=SCALE, jobs=2, out_dir=str(out),
                           compare=False, resume=True)
        assert second["resume"]["recomputed_points"] == []
        assert _functional(second) == _functional(clean)

    def test_fresh_run_truncates_a_stale_journal(self, tmp_path):
        out = tmp_path / "sweep"
        _bench(out)
        journal = out / f"SWEEP_{FIGURE}.jsonl"
        before = journal.read_text(encoding="utf-8")
        assert before.count('"kind":"point"') == 40
        # A non-resumed sweep starts a new journal: old entries gone.
        _bench(out)
        after = journal.read_text(encoding="utf-8")
        assert after.count('"kind":"point"') == 40
        assert after.splitlines()[0] != "" and len(after) <= len(before) * 1.5
