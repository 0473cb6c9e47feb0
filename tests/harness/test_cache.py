"""Object cache: entries persist across instances, corrupt entries are
counted misses, and case fingerprints track everything that changes
functional behaviour."""

import glob
import os
import pickle

import pytest

from repro.harness.cache import ExperimentCache
from repro.machine.fingerprint import case_fingerprint
from repro.workloads import get_workload

SCALE = 120

#: Two entries in the shape the store writes: a stage artefact and a
#: receipt.
ENTRIES = {
    ("artifact", "a" * 64): {"trace": list(range(200)), "regs": {"r1": 3}},
    ("receipt", "b" * 64): {"outputs": {"artifact": "a" * 64}, "meta": {}},
}


class TestDigest:
    def test_identical_cases_share_a_digest(self):
        a = get_workload("mcf").build(scale=SCALE)
        b = get_workload("mcf").build(scale=SCALE)
        assert a is not b
        assert case_fingerprint(a) == case_fingerprint(b)

    def test_scale_changes_the_digest(self):
        a = get_workload("mcf").build(scale=SCALE)
        b = get_workload("mcf").build(scale=SCALE + 1)
        assert case_fingerprint(a) != case_fingerprint(b)

    def test_memory_contents_change_the_digest(self):
        a = get_workload("wc").build(scale=SCALE)
        b = get_workload("wc").build(scale=SCALE)
        b.memory.write(0x9999, 123)
        assert case_fingerprint(a) != case_fingerprint(b)

    def test_initial_regs_change_the_digest(self):
        a = get_workload("wc").build(scale=SCALE)
        b = get_workload("wc").build(scale=SCALE)
        reg = next(iter(b.initial_regs))
        b.initial_regs[reg] += 1
        assert case_fingerprint(a) != case_fingerprint(b)


class TestPersistence:
    """Disk layer: entries survive across cache instances, and corrupt
    entries are misses (logged, evicted, counted) -- never errors."""

    def _fill(self, directory, log=None):
        """Load-or-store every entry, the way the artifact store does."""
        cache = ExperimentCache(persist_dir=directory, log=log)
        for (kind, key), value in ENTRIES.items():
            if cache.get_object(kind, key) is None:
                cache.put_object(kind, key, value)
        return cache

    def test_entries_survive_across_instances(self, tmp_path):
        d = str(tmp_path)
        first = self._fill(d)
        assert first.stats()["misses"] == 2
        fresh = ExperimentCache(persist_dir=d)
        for (kind, key), value in ENTRIES.items():
            assert fresh.get_object(kind, key) == value
        assert fresh.stats() == {**fresh.stats(), "hits": 2, "misses": 0}

    @pytest.mark.robustness_smoke
    @pytest.mark.parametrize("corruption", ["truncate", "garbage", "empty"])
    def test_corrupt_entries_are_misses(self, tmp_path, corruption):
        d = str(tmp_path)
        self._fill(d)
        for path in glob.glob(os.path.join(d, "*.pkl")):
            if corruption == "truncate":
                with open(path, "r+b") as fh:
                    fh.truncate(6)
            elif corruption == "garbage":
                with open(path, "wb") as fh:
                    fh.write(b"\x00not a pickle")
            else:
                open(path, "wb").close()
        logs = []
        cache = self._fill(d, log=logs.append)
        stats = cache.stats()
        assert stats["corrupt_evictions"] == 2
        assert stats["misses"] == 2, "corrupt entries must re-run"
        assert len(logs) == 2 and all("evicting corrupt" in m for m in logs)
        # Evicted entries were re-stored in loadable form.
        again = self._fill(d)
        assert again.stats()["corrupt_evictions"] == 0
        assert again.stats()["hits"] == 2

    def test_wrong_shape_payload_is_evicted(self, tmp_path):
        d = str(tmp_path)
        self._fill(d)
        for path in glob.glob(os.path.join(d, "artifact-*.pkl")):
            with open(path, "wb") as fh:
                pickle.dump(["unexpected", "shape"], fh)
        cache = self._fill(d)
        assert cache.stats()["corrupt_evictions"] == 1

    def test_without_persist_dir_nothing_is_written(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ExperimentCache()
        for (kind, key), value in ENTRIES.items():
            cache.put_object(kind, key, value)
            assert cache.get_object(kind, key) == value
        assert glob.glob(os.path.join(str(tmp_path), "*")) == []
        assert cache.stats()["corrupt_evictions"] == 0


class TestObjectLayerStats:
    """Per-kind object-layer counters: get/put hits, misses and bytes
    land in ``stats()`` as flat ints a sweep driver can difference."""

    def test_get_put_counts_per_kind(self, tmp_path):
        cache = ExperimentCache(persist_dir=str(tmp_path))
        assert cache.get_object("widget", ("k",)) is None
        cache.put_object("widget", ("k",), {"payload": list(range(50))})
        assert cache.get_object("widget", ("k",)) == {
            "payload": list(range(50))}
        stats = cache.stats()
        assert stats["object.widget.misses"] == 1
        assert stats["object.widget.hits"] == 1
        assert stats["object.widget.puts"] == 1
        assert stats["object.widget.put_bytes"] > 0
        # A second cache over the same dir hits the disk layer.
        other = ExperimentCache(persist_dir=str(tmp_path))
        assert other.get_object("widget", ("k",)) is not None
        assert other.stats()["object.widget.hits"] == 1

    def test_kinds_are_tracked_separately_and_stay_ints(self, tmp_path):
        cache = ExperimentCache(persist_dir=str(tmp_path))
        cache.get_object("a", 1)
        cache.put_object("a", 1, "x")
        cache.put_object("b", 2, "y")
        stats = cache.stats()
        assert stats["object.a.misses"] == 1
        assert stats["object.b.puts"] == 1
        assert "object.b.misses" not in stats
        assert all(isinstance(v, int) for v in stats.values())

    def test_in_memory_only_counts_no_bytes(self):
        cache = ExperimentCache()
        cache.put_object("widget", "k", "value")
        assert cache.get_object("widget", "k") == "value"
        stats = cache.stats()
        assert stats["object.widget.puts"] == 1
        assert "object.widget.put_bytes" not in stats

    def test_object_stats_survive_into_bench_cache_deltas(self, tmp_path):
        """The bench worker differences two snapshots; new keys must
        appear cleanly (before.get(k, 0) semantics)."""
        cache = ExperimentCache(persist_dir=str(tmp_path))
        before = cache.stats()
        cache.get_object("batch-ann", ("digest",))
        after = cache.stats()
        delta = {k: after[k] - before.get(k, 0) for k in after}
        assert delta["object.batch-ann.misses"] == 1
