"""Store garbage collection: LRU by atime, corruption-aware, pin-safe.

``python -m repro cache gc --max-bytes N`` drives :func:`collect` over
one store directory.  The pass is deliberately simple and safe against
concurrent writers:

1. stale ``*.tmp.*`` droppings (a writer died mid-publish) older than a
   grace period are removed -- they were never visible to readers;
2. every ``.pkl`` entry is validated by unpickling; corrupt entries are
   evicted immediately and counted as ``corrupt_evicted`` (the same
   corruption-is-a-miss discipline readers apply, applied eagerly);
3. remaining entries are deleted oldest-access-first until the store
   fits ``max_bytes`` -- except entries pinned by an in-flight plan
   (``pins/*.json``, see :meth:`~repro.incr.store.ArtifactStore.pin`),
   which are never collected while their pin is live.

Deleting an entry a racing reader is mid-way through loading is safe:
the open file handle keeps the bytes readable on POSIX, and a
subsequent miss is recomputed.  Deleting an entry a racing *writer* is
republishing is equally safe: the writer's atomic rename wins or loses
whole, never torn.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Callable, Optional

from repro.incr.store import ArtifactStore

#: Tmp droppings younger than this may belong to a live writer between
#: open and rename; leave them alone.
TMP_GRACE_SECONDS = 15 * 60


def entry_files(persist_dir: str):
    """Yield ``(relpath, abspath)`` for every store entry file,
    skipping the pins directory."""
    for dirpath, dirnames, filenames in os.walk(persist_dir):
        dirnames[:] = [d for d in dirnames if d != "pins"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            yield os.path.relpath(path, persist_dir), path


def collect(persist_dir: str, max_bytes: Optional[int] = None,
            log: Optional[Callable[[str], None]] = None,
            dry_run: bool = False) -> dict:
    """One collection pass; returns flat-int/byte stats.

    ``max_bytes=None`` validates and sweeps tmp droppings without
    evicting live entries.  ``dry_run`` reports what would be deleted
    without touching the filesystem (corrupt entries included).
    """
    emit = log or (lambda message: None)
    stats = {
        "scanned": 0,
        "bytes_before": 0,
        "bytes_after": 0,
        "evicted": 0,
        "evicted_bytes": 0,
        "corrupt_evicted": 0,
        "tmp_removed": 0,
        "pinned_kept": 0,
    }
    if not os.path.isdir(persist_dir):
        return stats

    pinned = ArtifactStore.pinned_paths(persist_dir)
    now = time.time()
    entries = []  # (atime, size, relpath, path)
    for rel, path in entry_files(persist_dir):
        try:
            st = os.stat(path)
        except OSError:
            continue
        if ".tmp." in os.path.basename(rel):
            # A dead writer's dropping -- never visible to readers.
            if now - st.st_mtime > TMP_GRACE_SECONDS:
                stats["tmp_removed"] += 1
                if not dry_run:
                    try:
                        os.remove(path)
                    except OSError:
                        pass
            continue
        if not rel.endswith(".pkl"):
            continue
        stats["scanned"] += 1
        stats["bytes_before"] += st.st_size
        try:
            with open(path, "rb") as fh:
                pickle.load(fh)
        except Exception:
            stats["corrupt_evicted"] += 1
            stats["evicted"] += 1
            stats["evicted_bytes"] += st.st_size
            emit(f"gc: corrupt entry evicted: {rel}")
            if not dry_run:
                try:
                    os.remove(path)
                except OSError:
                    pass
            continue
        entries.append((st.st_atime, st.st_size, rel, path))

    live_bytes = sum(size for _, size, _, _ in entries)
    if max_bytes is not None and live_bytes > max_bytes:
        entries.sort()  # oldest atime first
        for atime, size, rel, path in entries:
            if live_bytes <= max_bytes:
                break
            if rel in pinned:
                stats["pinned_kept"] += 1
                emit(f"gc: pinned, kept: {rel}")
                continue
            stats["evicted"] += 1
            stats["evicted_bytes"] += size
            live_bytes -= size
            if not dry_run:
                try:
                    os.remove(path)
                except OSError:
                    pass
    stats["bytes_after"] = live_bytes
    return stats
