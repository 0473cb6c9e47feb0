"""Canonical content hashing for the whole pipeline.

This module is the single hasher every layer keys on
(``docs/INCREMENTAL.md``):

* :func:`canonical_json` / :func:`content_digest` -- deterministic
  serialisation and sha256 of any JSON-able structure (sorted keys,
  compact separators), stable across processes and
  ``PYTHONHASHSEED``; the primitive under every derived key below and
  under the incremental stage keys (:mod:`repro.incr.dag`).
* :func:`case_fingerprint` -- a workload case's functional identity
  (rendered IR, loop selection, memory image, registers, call
  handlers); every stage key (:mod:`repro.incr.stages`) starts from
  it, in bench sweeps and in the service alike.
* :func:`trace_digest` -- everything the timing model reads from a
  trace; :func:`repro.machine.batch.trace_timing_digest` is this plus
  the codegen-version salt.
* :func:`sim_fingerprint` -- deep digest of a
  :class:`~repro.machine.stats.SimResult`: instruction/flow counts,
  completion clocks, every stall record, cache hit/miss statistics,
  branch-predictor state, and the full per-queue visible/freed event
  lists.  Two results with equal fingerprints are bit-identical for
  every table the CLI or the figures can print.

The compile service uses :func:`sim_fingerprint` to stamp every
served result so clients -- and the ``serve_smoke`` tier -- can prove a
served experiment bit-identical to an in-process
:func:`~repro.harness.runner.run_experiment` (``docs/SERVICE.md``);
the batched simulator's differential campaigns compare results with
it.

Everything here must stay *cross-process stable*: two interpreters
(different machines, different hash seeds) hashing the same logical
content must produce the same digest, because stage artifacts written
by one bench worker are addressed by another -- and by the service --
through these digests.  ``tests/incr/test_fingerprint_stability.py``
regresses that property with a subprocess.
"""

from __future__ import annotations

import hashlib
import json


# ----------------------------------------------------------------------
# Canonical serialisation primitives
# ----------------------------------------------------------------------

def canonical_json(data) -> str:
    """Deterministic JSON: sorted keys, compact separators.

    Tuples serialise as arrays; dict keys are sorted, so insertion
    order (the only process-varying part of a dict) never reaches the
    bytes.  Raises ``TypeError`` on non-JSON-able content -- a key
    that silently fell back to ``repr`` could smuggle process-local
    identity (object addresses) into a supposedly content-derived
    digest.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_digest(payload) -> str:
    """sha256 over the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def memory_digest(snapshot: dict) -> str:
    """Order-independent digest of a memory image ``{addr: value}``.

    Memory images run to tens of thousands of cells and are hashed on
    every case fingerprint and every interpret-stage output digest, so
    the sort runs through numpy (little-endian int64 columns: all
    addresses in address order, then their values).  The pure-python
    fallback -- no numpy, or a cell outside int64 -- feeds the hasher
    the *same* little-endian bytes for every in-range cell, so the two
    paths agree wherever both are defined: an environment without
    numpy addresses the same content at the same digest
    (``tests/incr/test_fingerprint_stability.py``).
    """
    h = hashlib.sha256()
    h.update(b"memory:%d;" % len(snapshot))
    if not snapshot:
        return h.hexdigest()
    try:
        import numpy as np

        keys = np.fromiter(snapshot.keys(), dtype=np.int64,
                           count=len(snapshot))
        values = np.fromiter(snapshot.values(), dtype=np.int64,
                             count=len(snapshot))
        order = np.argsort(keys, kind="stable")
        h.update(keys[order].astype("<i8").tobytes())
        h.update(values[order].astype("<i8").tobytes())
    except (ImportError, OverflowError, ValueError):
        items = sorted(snapshot.items())
        for addr, _ in items:
            h.update(_int64_bytes(addr))
        for _, value in items:
            h.update(_int64_bytes(value))
    return h.hexdigest()


def _int64_bytes(value: int) -> bytes:
    """One memory cell as the fallback path encodes it: the numpy
    column encoding when the value fits int64, a length-unambiguous
    decimal marker when it cannot."""
    try:
        return value.to_bytes(8, "little", signed=True)
    except OverflowError:
        return b"big:%d;" % value


# ----------------------------------------------------------------------
# Workload-case identity
# ----------------------------------------------------------------------

def case_fingerprint(case) -> str:
    """SHA-256 over everything that determines a case's functional
    behaviour: program text, loop selection, memory image, initial
    registers and the set of installed call handlers."""
    from repro.ir.printer import render_function

    h = hashlib.sha256()
    h.update(render_function(case.function).encode())
    h.update(case.loop_header.encode())
    h.update(memory_digest(case.memory.snapshot()).encode())
    for reg, value in sorted(case.initial_regs.items(),
                             key=lambda item: str(item[0])):
        h.update(b"%s=%d;" % (str(reg).encode(), value))
    for name in sorted(case.call_handlers):
        h.update(name.encode() + b";")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Trace identity
# ----------------------------------------------------------------------

def trace_digest(trace, salt: str = "") -> str:
    """Content digest of everything the timing model reads from a trace.

    Covers the dynamic columns (static ids, addresses, branch
    outcomes) and the timing-relevant identity of each static
    instruction; two traces with equal digests replay identically on
    any machine configuration.  ``salt`` namespaces consumers whose
    derived artefacts change shape independently of the trace (the
    batched simulator salts with its codegen version).

    A static's identity includes its root instruction (the branch
    predictor's key), hashed as the rank of its uid among the trace's
    root uids.  Uids come from a process-wide counter, so the same
    trace built after another workload carries shifted uids; the rank
    keeps what the timing model observes (which statics share a
    predictor entry) and drops the offset.  ``sim_fingerprint`` hashes
    predictor state in the same rank order."""
    from repro.interp.trace import as_columnar

    trace = as_columnar(trace)
    h = hashlib.sha256()
    if salt:
        h.update(salt.encode())
    for part in trace.column_bytes():
        h.update(part if isinstance(part, (bytes, bytearray)) else bytes(part))
    rank = {uid: index for index, uid in
            enumerate(sorted({s.root_uid for s in trace.statics}))}
    for s in trace.statics:
        inst = s.inst
        h.update(repr((
            inst.render(), s.block, rank[s.root_uid],
            inst.attrs.get("call_cycles", 0) if inst.attrs else 0,
        )).encode())
    return h.hexdigest()


def sim_fingerprint(sim) -> str:
    """Deep content digest of a :class:`~repro.machine.stats.SimResult`."""
    payload = []
    for core in sim.cores:
        payload.append((
            core.index,
            core.instructions_executed,
            core.flow_instructions,
            core.last_completion,
            tuple((s.kind, s.start, s.end, s.queue) for s in core.stalls),
            tuple(sorted(core.caches.stats().items())),
            # Predictor counters are keyed by instruction uid -- a
            # process-global allocation counter, so absolute keys shift
            # between two builds of the same workload (and between a
            # service worker and an in-process reference run).  The
            # *relative* uid order of a deterministic build is stable,
            # so hash the counters in key-rank order instead of by raw
            # key: content identity survives the offset, divergence in
            # any counter value or site count still changes the digest.
            tuple(value for _, value in
                  sorted(core.predictor._counters.items())),
            core.predictor.lookups,
            core.predictor.mispredicts,
        ))
    if sim.queues is not None:
        payload.append((
            tuple(sorted((q, tuple(v))
                         for q, v in sim.queues.visible.items())),
            tuple(sorted((q, tuple(v))
                         for q, v in sim.queues.freed.items())),
        ))
    return hashlib.sha256(repr(payload).encode()).hexdigest()
