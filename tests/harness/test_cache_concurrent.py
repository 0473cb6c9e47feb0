"""Disk-cache safety under concurrent writers.

Bench workers share one store directory; several processes can decide
to compute and store the same entry at the same time.  The contract,
at the object layer (``get_object`` / ``put_object``) the artifact
store sits on: no reader ever crashes or sees a half-written entry (a
mid-write file reads as a miss at worst), and the last atomic rename
wins with a valid payload.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.harness.cache import ExperimentCache
from repro.harness.runner import run_baseline
from repro.machine.fingerprint import case_fingerprint
from repro.workloads import get_workload

pytestmark = pytest.mark.parallel_smoke

KIND = "artifact"


def _load_or_run(cache: ExperimentCache, case) -> dict:
    """The store's run-or-reuse shape over one baseline interpretation."""
    key = case_fingerprint(case)
    data = cache.get_object(KIND, key)
    if data is None:
        run = run_baseline(case)
        data = {"trace": run.trace, "regs": run.regs}
        cache.put_object(KIND, key, data)
    return data


def _hammer(persist_dir: str, worker: int, rounds: int, out_queue) -> None:
    """Worker body: repeatedly load-or-compute the same entry."""
    try:
        case = get_workload("wc").build(scale=30)
        for _ in range(rounds):
            cache = ExperimentCache(persist_dir=persist_dir)
            data = _load_or_run(cache, case)
            out_queue.put((worker, "ok",
                           (len(data["trace"]), sorted(data["regs"].items()),
                            cache.corrupt_evictions)))
    except BaseException as exc:  # noqa: BLE001 - reported to the driver
        out_queue.put((worker, "err", repr(exc)))


class TestConcurrentWriters:
    def test_two_processes_hammer_one_cache_dir(self, tmp_path):
        persist = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        rounds = 6
        procs = [ctx.Process(target=_hammer,
                             args=(persist, w, rounds, queue))
                 for w in range(2)]
        for p in procs:
            p.start()
        outcomes = [queue.get(timeout=120) for _ in range(2 * rounds)]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        errors = [o for o in outcomes if o[1] == "err"]
        assert not errors, errors
        # Every load-or-compute converged on the same functional answer.
        answers = {(trace_len, tuple(regs))
                   for trace_len, regs, _ in (o[2] for o in outcomes)}
        assert len(answers) == 1
        # No tmp droppings left behind by the atomic-rename protocol.
        leftovers = [name for name in os.listdir(persist) if ".tmp." in name]
        assert not leftovers

    def test_reader_treats_vanishing_entry_as_plain_miss(self, tmp_path):
        persist = str(tmp_path / "cache")
        case = get_workload("wc").build(scale=30)
        writer = ExperimentCache(persist_dir=persist)
        _load_or_run(writer, case)
        path = writer._entry_path(KIND, case_fingerprint(case))
        assert os.path.exists(path)
        os.remove(path)
        reader = ExperimentCache(persist_dir=persist)
        data = _load_or_run(reader, case)
        assert len(data["trace"]) > 0
        # Vanished-before-open is a miss, never a corrupt eviction.
        assert reader.corrupt_evictions == 0
        assert reader.misses == 1

    def test_truncated_entry_is_evicted_and_recomputed(self, tmp_path):
        persist = str(tmp_path / "cache")
        case = get_workload("wc").build(scale=30)
        writer = ExperimentCache(persist_dir=persist)
        reference = _load_or_run(writer, case)
        path = writer._entry_path(KIND, case_fingerprint(case))
        blob = pickle.dumps({"kind": KIND, "data": {}})
        with open(path, "wb") as fh:
            fh.write(blob[:max(1, len(blob) // 2)])  # mid-write shape
        reader = ExperimentCache(persist_dir=persist)
        data = _load_or_run(reader, case)
        assert len(data["trace"]) == len(reference["trace"])
        assert reader.corrupt_evictions == 1

    def test_tmp_names_are_unique_per_store(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(src)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        cache = ExperimentCache(persist_dir=str(tmp_path / "cache"))
        case = get_workload("wc").build(scale=30)
        _load_or_run(cache, case)
        cache.put_object(KIND, "other", {"payload": 1})
        cache.put_object(KIND, "other", {"payload": 2})
        assert len(seen) >= 3
        assert len(set(seen)) == len(seen)
