"""Append-only sweep journal: progress a killed ``bench`` leaves behind.

As each sweep point's result lands in the driver, one self-contained
JSONL record -- point id, the functional result, timing and
degradation provenance -- is appended to ``SWEEP_<figure>.jsonl`` with
a single ``O_APPEND`` ``write``, so the file shows how far a killed
sweep got.  Nothing reads it back: a killed sweep resumes by being
re-run, because every simulated config's summary is already in the
artifact store (:mod:`repro.incr`), which serves it under a key that
also covers the code.

* **Atomic appends.**  Each record is one ``os.write`` to an
  ``O_APPEND`` descriptor: records from concurrent writers interleave
  whole, never intra-line (POSIX append semantics for regular files),
  and a crash tears at most the final line.
* **One sweep per file.**  :meth:`SweepJournal.start` truncates: the
  file only ever describes the latest sweep of its figure.
"""

from __future__ import annotations

import json
import os

#: Bump when the record schema changes.
JOURNAL_VERSION = 2


class SweepJournal:
    """One figure's append-only progress journal (see module doc)."""

    def __init__(self, path: str) -> None:
        self.path = path

    @classmethod
    def start(cls, path: str, figure: str, scale: int) -> "SweepJournal":
        """Open a journal for writing, truncating any older sweep's."""
        journal = cls(path)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.close(fd)
        journal._append({"kind": "header", "figure": figure, "scale": scale,
                         "version": JOURNAL_VERSION})
        return journal

    def _append(self, record: dict) -> None:
        data = (json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
        # One O_APPEND write per record: concurrent writers interleave
        # whole records, and a crash tears at most the final line.
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def record_point(self, spec: dict, point: dict, seconds: float,
                     degraded: bool = False, retries: int = 0,
                     timed_out: bool = False) -> None:
        """Persist one completed point (called from the pool's
        ``on_result`` hook, i.e. the moment the result lands)."""
        self._append({
            "kind": "point",
            "id": spec["id"],
            "point": point,
            "seconds": seconds,
            "degraded": bool(degraded),
            "retries": int(retries),
            "timed_out": bool(timed_out),
        })
