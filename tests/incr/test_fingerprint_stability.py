"""Cross-process stability of every key the artifact store addresses by.

Stage artifacts written by one bench worker are read back by other
workers, by later driver processes, and by the compile service -- all
through content-derived keys (:mod:`repro.machine.fingerprint`,
:mod:`repro.incr.dag`).  Any process-local identity leaking into a
digest (hash-seed-dependent iteration order, ``id()``-based repr,
pickle bytes) silently turns every warm run cold.  The regression
here recomputes the full key set in subprocesses under two different
``PYTHONHASHSEED`` values and requires byte equality.  The second
subprocess builds another workload first, so the probed case's
instruction uids (a process-wide counter) start at a different offset,
as they do in a pool worker that has already served another workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

from repro.machine.fingerprint import content_digest, memory_digest

_PROBE = r"""
import json, sys
from repro.incr import dag
from repro.incr.stages import case_fp, traces_content
from repro.machine.fingerprint import (
    case_fingerprint, content_digest, memory_digest, trace_digest,
)
from repro.harness.runner import run_baseline
from repro.workloads import get_workload

for name in sys.argv[1:]:
    get_workload(name).build(scale=20)
case = get_workload("wc").build(scale=20)
run = run_baseline(case, check=False)
cfp = case_fp(case)
traces = traces_content([run.trace])
machine = {"core": "full", "comm_latency": 5, "queue_size": 32}
skey = dag.simulate_key(traces, machine)
print(json.dumps({
    "case_fp": cfp,
    "memory": memory_digest(case.memory.snapshot()),
    "trace": trace_digest(run.trace),
    "content": content_digest({"a": [1, 2], "b": {"x": 0}}),
    "interpret": dag.interpret_key(cfp, True),
    "transform": dag.transform_key(cfp, "upstream-content", check=True),
    "simulate": skey,
    "figure": dag.figure_key("fig9a", 20, [skey]),
    "pipeline_version": dag.pipeline_version(),
}, sort_keys=True))
"""


def _probe(hashseed: str, *prebuilt: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(os.getcwd(), "src"),
                    env.get("PYTHONPATH")] if p)
    out = subprocess.run([sys.executable, "-c", _PROBE, *prebuilt], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_keys_stable_across_hash_seeds():
    first = _probe("0")
    second = _probe("12345", "mcf")
    assert first == second
    # And every value really is a hex digest, not a repr fallback.
    for name, value in first.items():
        if name == "pipeline_version":
            continue
        assert isinstance(value, str) and len(value) == 64, name


def test_memory_digest_matches_pure_python_spec():
    # The numpy fast path must produce the exact digest the documented
    # pure-python fallback defines: all addresses in address order as
    # little-endian int64, then their values.
    snapshot = {7: -3, 0: 12, 1024: 2**40, -5: 0}
    h = hashlib.sha256()
    h.update(b"memory:%d;" % len(snapshot))
    items = sorted(snapshot.items())
    for addr, _ in items:
        h.update(addr.to_bytes(8, "little", signed=True))
    for _, value in items:
        h.update(value.to_bytes(8, "little", signed=True))
    assert memory_digest(snapshot) == h.hexdigest()


def test_memory_digest_fallback_on_oversized_cells():
    # A cell outside int64 forces the pure-python path; the digest is
    # still a function of content alone.
    snapshot = {0: 2**70, 1: 5}
    assert memory_digest(snapshot) == memory_digest(dict(snapshot))
    assert memory_digest({}) != memory_digest({0: 0})


def test_content_digest_rejects_non_json_content():
    # A key that silently fell back to repr() could smuggle object
    # addresses into a digest; it must raise instead.
    class Opaque:
        pass

    try:
        content_digest({"x": Opaque()})
    except TypeError:
        pass
    else:
        raise AssertionError("content_digest accepted a non-JSON payload")
