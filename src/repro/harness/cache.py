"""Content-keyed object cache: the persistence layer under the store.

:class:`ExperimentCache` maps ``(kind, key)`` to a picklable object, in
memory and -- with ``persist_dir`` set -- on disk, so entries survive
across processes: that is how bench workers, later sweeps and the
compile service share stage artefacts.  Callers supply their own keys;
the :class:`~repro.incr.store.ArtifactStore` keys artefacts by
semantic content digest and receipts by stage key
(:mod:`repro.incr.dag`), which is where code versions and inputs enter.

Disk entries are pickled and written atomically: a unique tmp file per
writer, then one ``os.replace``, so concurrent writers of one entry
both leave a valid file.  An entry that fails to load for *any*
reason -- truncated file, pickle garbage, a payload whose shape does
not match -- is treated as a plain miss: it is logged, evicted
(deleted) and the caller recomputes it, and
``stats()['corrupt_evictions']`` counts how often that happened.  A
corrupt cache can cost time; it must never cost correctness or crash
the sweep.

:class:`ShardedExperimentCache` banks several caches behind per-shard
locks for concurrent callers; the store and the service's response
cache sit on it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from typing import Callable, Optional


class ExperimentCache:
    """Content-keyed objects in memory and, optionally, on disk.

    ``persist_dir`` enables the on-disk layer; ``log`` receives one
    line per evicted-corrupt entry (default: silent).  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) mirrors the hit/miss/
    corrupt-evict counts as ``cache.hits`` / ``cache.misses`` /
    ``cache.corrupt_evictions`` counters.
    """

    _tmp_counter = 0

    def __init__(self, persist_dir: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None,
                 metrics=None) -> None:
        self._objects: dict[tuple, object] = {}
        self.persist_dir = persist_dir
        self._log = log or (lambda message: None)
        self._metrics = metrics
        self.hits = 0
        self.misses = 0
        self.corrupt_evictions = 0
        #: Per-kind object-layer traffic, flat int keys (``object.<kind>
        #: .hits`` / ``.misses`` / ``.puts`` / ``.put_bytes``) so sweep
        #: drivers can difference two :meth:`stats` snapshots with plain
        #: integer arithmetic.  ``put_bytes`` counts pickled bytes
        #: written to the disk layer (0 when in-memory only).
        self._object_counts: dict[str, int] = {}

    def _bump(self, key: str, value: int = 1) -> None:
        self._object_counts[key] = self._object_counts.get(key, 0) + value

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    # ------------------------------------------------------------------
    # Disk layer.  Corruption policy: any load failure is a miss, never
    # an error -- the entry is logged, deleted and recomputed.
    # ------------------------------------------------------------------
    def _entry_path(self, kind: str, key) -> str:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        return os.path.join(self.persist_dir, f"{kind}-{digest}.pkl")

    def _load_entry(self, kind: str, key) -> Optional[dict]:
        if self.persist_dir is None:
            return None
        path = self._entry_path(kind, key)
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            # Absent -- including vanishing between a concurrent writer's
            # eviction and our open -- is a plain miss, not corruption.
            return None
        try:
            with fh:
                payload = pickle.load(fh)
            if not isinstance(payload, dict) or payload.get("kind") != kind:
                raise ValueError("malformed cache payload")
            return payload["data"]
        except Exception as exc:  # truncated, garbage, wrong shape, ...
            self.corrupt_evictions += 1
            self._count("cache.corrupt_evictions")
            self._log(f"cache: evicting corrupt entry {path} "
                      f"({type(exc).__name__}: {exc}); re-running")
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _store_entry(self, kind: str, key, data: dict) -> None:
        if self.persist_dir is None:
            return
        path = self._entry_path(kind, key)
        # pid + per-process counter: concurrent writers (bench workers
        # sharing one cache dir) each write their own tmp file and race
        # only on the atomic rename, which either order leaves valid.
        ExperimentCache._tmp_counter += 1
        tmp = f"{path}.tmp.{os.getpid()}.{ExperimentCache._tmp_counter}"
        try:
            os.makedirs(self.persist_dir, exist_ok=True)
            blob = pickle.dumps({"kind": kind, "data": data})
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            self._bump(f"object.{kind}.put_bytes", len(blob))
        except Exception:
            # Persistence is an optimisation: an unpicklable artefact or
            # a full disk degrades to in-memory-only caching.
            try:
                os.remove(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def get_object(self, kind: str, key) -> Optional[object]:
        """Content-keyed lookup (memory, then disk); ``None`` on a miss."""
        memo_key = (kind, key)
        obj = self._objects.get(memo_key)
        if obj is not None:
            self.hits += 1
            self._count("cache.hits")
            self._bump(f"object.{kind}.hits")
            return obj
        data = self._load_entry(kind, key)
        if data is not None and "object" in data:
            self.hits += 1
            self._count("cache.hits")
            self._bump(f"object.{kind}.hits")
            obj = data["object"]
            self._objects[memo_key] = obj
            return obj
        self.misses += 1
        self._count("cache.misses")
        self._bump(f"object.{kind}.misses")
        return None

    def put_object(self, kind: str, key, obj: object) -> None:
        """Store a generic artefact under ``(kind, key)``."""
        self._objects[(kind, key)] = obj
        self._bump(f"object.{kind}.puts")
        self._store_entry(kind, key, {"object": obj})

    def has_object(self, kind: str, key) -> bool:
        """Existence probe (memory memo or disk file), no load, no
        hit/miss accounting.  The incremental planner uses it to prove
        a stage's artefacts are present without decoding them; a probe
        that passes but whose entry is later unreadable still degrades
        to a plain miss at load time."""
        if (kind, key) in self._objects:
            return True
        if self.persist_dir is None:
            return False
        return os.path.exists(self._entry_path(kind, key))

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_evictions": self.corrupt_evictions,
            **self._object_counts,
        }


class ShardedExperimentCache:
    """A bank of :class:`ExperimentCache` shards for concurrent readers.

    One :class:`ExperimentCache` is single-threaded by design.  The
    compile service has a different shape: many asyncio requests and a
    dispatcher thread all consult one shared response/artefact cache.
    Sharding gives it safe concurrency without a global lock: keys
    route to a shard by content hash (stable across processes and
    runs), each shard is guarded by its own mutex, and readers of
    different shards never contend.  Shard ``i`` persists under
    ``<persist_dir>/shard-<i>``, so the disk layer inherits the same
    partitioning and two shards never race on one file.

    It exposes the same object layer (:meth:`get_object`,
    :meth:`put_object`, :meth:`has_object`) and :meth:`stats`.
    """

    def __init__(self, persist_dir: Optional[str] = None, shards: int = 8,
                 log: Optional[Callable[[str], None]] = None,
                 metrics=None) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.shards = shards
        self._locks = [threading.Lock() for _ in range(shards)]
        self._shards = [
            ExperimentCache(
                persist_dir=(os.path.join(persist_dir, f"shard-{i}")
                             if persist_dir is not None else None),
                log=log, metrics=metrics,
            )
            for i in range(shards)
        ]

    def shard_index(self, key) -> int:
        """Stable shard routing: content hash of the key's repr."""
        digest = hashlib.sha256(repr(key).encode()).digest()
        return int.from_bytes(digest[:4], "big") % self.shards

    # ------------------------------------------------------------------
    def get_object(self, kind: str, key) -> Optional[object]:
        index = self.shard_index(key)
        with self._locks[index]:
            return self._shards[index].get_object(kind, key)

    def put_object(self, kind: str, key, obj: object) -> None:
        index = self.shard_index(key)
        with self._locks[index]:
            self._shards[index].put_object(kind, key, obj)

    def has_object(self, kind: str, key) -> bool:
        index = self.shard_index(key)
        with self._locks[index]:
            return self._shards[index].has_object(kind, key)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Aggregated counters across every shard (flat ints, so two
        snapshots difference with plain integer arithmetic, exactly
        like :meth:`ExperimentCache.stats`)."""
        totals: dict[str, int] = {}
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                snapshot = shard.stats()
            for key, value in snapshot.items():
                totals[key] = totals.get(key, 0) + value
        return totals
