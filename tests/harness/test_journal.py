"""SweepJournal integrity: atomic appends and per-sweep truncation.

The journal is how a killed sweep shows how far it got, so its lines
must stay whole under concurrent writers, and a new sweep must not
inherit an older sweep's records.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.harness.journal import JOURNAL_VERSION, SweepJournal

pytestmark = pytest.mark.chaos_smoke


def _spec(i: int) -> dict:
    return {"id": f"p{i}", "figure": "fig9a", "scale": 30, "index": i}


def _point(i: int) -> dict:
    return {"id": f"p{i}", "cycles": 1000 + i, "ipc": 1.5}


def _records(path: str) -> list[dict]:
    with open(path, "rb") as fh:
        return [json.loads(line) for line in fh.read().splitlines()]


class TestRoundTrip:
    def test_records_survive_a_reload(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        journal = SweepJournal.start(path, "fig9a", 30)
        for i in range(4):
            journal.record_point(_spec(i), _point(i), seconds=0.25 * i,
                                 degraded=(i == 3), retries=i, timed_out=False)
        header, *records = _records(path)
        assert header == {"kind": "header", "figure": "fig9a", "scale": 30,
                          "version": JOURNAL_VERSION}
        assert [r["id"] for r in records] == [f"p{i}" for i in range(4)]
        entry = records[2]
        assert entry["point"] == _point(2)
        assert entry["seconds"] == 0.5
        assert entry["retries"] == 2
        assert records[3]["degraded"] is True

    def test_start_truncates_an_older_sweep(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        journal = SweepJournal.start(path, "fig9a", 30)
        journal.record_point(_spec(0), _point(0), 0.1)
        assert [r["kind"] for r in _records(path)] == ["header", "point"]
        SweepJournal.start(path, "fig9a", 30)
        assert [r["kind"] for r in _records(path)] == ["header"]


def _hammer(path: str, writer: int, count: int) -> None:
    journal = SweepJournal(path)
    for i in range(count):
        spec = {"id": f"w{writer}:{i}", "writer": writer, "index": i}
        journal.record_point(spec, {"id": spec["id"], "cycles": i}, 0.0)


class TestConcurrentWriters:
    def test_interleaved_appends_never_tear(self, tmp_path):
        """POSIX O_APPEND atomicity in anger: three processes hammer
        one journal; every record must parse and none may be lost."""
        path = str(tmp_path / "sweep.jsonl")
        SweepJournal.start(path, "fig9a", 30)
        count = 150
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_hammer, args=(path, w, count))
                 for w in range(3)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # Every line is whole valid JSON -- no intra-line interleaving.
        records = _records(path)
        assert len(records) == 3 * count + 1  # + header
        points = {r["id"]: r for r in records if r["kind"] == "point"}
        assert len(points) == 3 * count
        assert all(points[f"w{w}:{i}"]["point"]["cycles"] == i
                   for w in range(3) for i in range(count))
