"""The experiment stage graph and its content-addressed keys.

The pipeline every figure point runs is a fixed four-stage chain::

    interpret --(baseline trace+profile)--> transform --(thread traces)
              --> simulate --(point summary)--> figure

Each stage's *key* is a content hash of everything that can change its
output, and nothing else:

* a **code-version fingerprint** -- sha256 over the source text of the
  packages the stage executes, so editing ``machine/`` rolls only the
  simulate keys and editing the analyses rolls transform but not
  interpret;
* the **upstream output digests** -- *semantic* content digests of the
  artefacts the stage consumes (trace content, profile counts), not
  serialisation bytes, so a re-run upstream stage that reproduces
  identical output leaves the downstream key unchanged (early cutoff);
* the **parameters** -- case fingerprint, partition/alias/threads
  knobs, canonical machine spec.

Workload *content* enters only through the case fingerprint: editing
one workload's body invalidates exactly that workload's subtree, and
editing the workload *package* invalidates nothing (the registry is
deliberately outside every stage's code fingerprint).  The planner
reads each case fingerprint from a receipt under :func:`case_key`, so
proving a warm chain never rebuilds a workload.

All hashing goes through :mod:`repro.machine.fingerprint` -- the same
canonical hasher the experiment cache, the batched simulator and the
service protocol key on -- so one stage artefact is addressable from
bench, batch and serve paths alike.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
from typing import Optional

from repro.machine.fingerprint import content_digest

#: Stage kinds, in pipeline order.  ``figure`` is the driver-side
#: aggregation stage; the first three are the compute stages workers
#: execute.
STAGE_INTERPRET = "interpret"
STAGE_TRANSFORM = "transform"
STAGE_SIMULATE = "simulate"
STAGE_FIGURE = "figure"
STAGES = (STAGE_INTERPRET, STAGE_TRANSFORM, STAGE_SIMULATE, STAGE_FIGURE)
COMPUTE_STAGES = (STAGE_INTERPRET, STAGE_TRANSFORM, STAGE_SIMULATE)

#: The packages whose source text versions each stage.  ``repro.ir``
#: and ``repro.interp`` feed interpret; the transform adds the
#: analyses and the partitioner; simulate is the timing model alone.
#: ``repro.workloads`` appears nowhere: workload content is keyed by
#: the case fingerprint, per workload.
STAGE_PACKAGES = {
    STAGE_INTERPRET: ("repro.ir", "repro.interp"),
    STAGE_TRANSFORM: ("repro.ir", "repro.interp", "repro.analysis",
                      "repro.core"),
    STAGE_SIMULATE: ("repro.machine",),
    STAGE_FIGURE: (),
}

#: Bump when the figure aggregation (point summary shape, ordering)
#: changes meaning.
FIGURE_VERSION = 1

#: Test hook: extra salt mixed into one stage's version, so the
#: invalidation tests can model "this layer's code changed" without
#: rewriting source files.  Empty in production.
_VERSION_SALTS: dict[str, str] = {}

_code_fp_memo: dict[str, str] = {}


def code_fingerprint(package: str) -> str:
    """sha256 over a package's ``.py`` source files, path-relative.

    Memoised per process -- source files do not change under a running
    driver, and a sweep computes thousands of stage keys.  Files are
    walked in sorted relative order so the digest is independent of
    directory enumeration order, and file *paths* are hashed alongside
    contents so moving code between modules registers as a change.
    """
    cached = _code_fp_memo.get(package)
    if cached is not None:
        return cached
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        raise ValueError(f"cannot locate package {package!r}")
    h = hashlib.sha256()
    for root in sorted(spec.submodule_search_locations):
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                h.update(rel.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
                h.update(b"\0")
    digest = h.hexdigest()
    _code_fp_memo[package] = digest
    return digest


def stage_version(kind: str) -> str:
    """The code-version component of one stage kind's keys: the
    package source fingerprints plus the stage's test salt (read at
    call time, so a salted stage behaves exactly like an edit to its
    packages)."""
    parts: list = [kind, [code_fingerprint(p) for p in STAGE_PACKAGES[kind]],
                   _VERSION_SALTS.get(kind, "")]
    if kind == STAGE_FIGURE:
        parts.append(FIGURE_VERSION)
        # A figure aggregates simulate output, so a simulate-layer
        # change reaches it through the simulate *keys* it digests --
        # no code fingerprint of its own needed beyond the version.
    return content_digest(parts)


def pipeline_version() -> str:
    """One digest covering every compute stage's version -- the code
    component of the service's response-cache keys."""
    return content_digest([stage_version(kind) for kind in COMPUTE_STAGES])


# ----------------------------------------------------------------------
# Stage keys
# ----------------------------------------------------------------------

def case_key(workload: str, scale: int, seed: int) -> str:
    """The receipt key recording the case fingerprint of
    ``get_workload(workload).build(scale, seed)``.

    A build is a deterministic function of the workload's source, its
    scale and seed, and the interpreter's :mod:`random` (hence the
    Python major.minor version), so a receipt under this key proves the
    fingerprint without rebuilding.  The whole ``repro`` package's
    source stands in for the workload's: any edit re-derives it."""
    return content_digest({"kind": "case", "workload": workload,
                           "scale": scale, "seed": seed,
                           "code": code_fingerprint("repro"),
                           "python": list(sys.version_info[:2])})


def _stage_key(kind: str, payload: dict) -> str:
    return content_digest({"stage": kind, "version": stage_version(kind),
                           **payload})


def interpret_key(case_fp: str, check: bool = True) -> str:
    """Baseline interpretation of one case (trace + profile + final
    functional state)."""
    return _stage_key(STAGE_INTERPRET, {"case": case_fp, "check": check})


def transform_key(
    case_fp: str,
    baseline_content: str,
    partition_key=None,
    alias_key: Optional[str] = None,
    threads: int = 2,
    check: bool = True,
) -> str:
    """DSWP transform + pipeline execution (thread traces).

    ``baseline_content`` is the *semantic* digest of the interpret
    stage's output (recorded in its receipt), so an interpret re-run
    with identical output leaves this key -- and every cached
    transform -- valid.
    """
    return _stage_key(STAGE_TRANSFORM, {
        "case": case_fp,
        "baseline": baseline_content,
        "partition": partition_key,
        "alias": alias_key,
        "threads": threads,
        "check": check,
    })


def simulate_key(traces_content: str, machine_spec: dict) -> str:
    """Timing simulation of one trace set on one machine config.

    Keyed on the traces' semantic content digest -- not on which stage
    produced them -- so the base and dswp flavours, bench and service,
    all address the same simulation."""
    return _stage_key(STAGE_SIMULATE, {"traces": traces_content,
                                       "machine": machine_spec})


def figure_key(figure: str, scale: int, simulate_keys: list) -> str:
    """Figure aggregation over the ordered simulate stages.

    Digests the simulate *keys* (not their output digests): any
    rescheduled simulate stage -- including a pure code-version bump --
    re-runs the aggregation, which is what makes a warm no-op run's
    ``scheduled == 0`` a meaningful proof."""
    return _stage_key(STAGE_FIGURE, {"figure": figure, "scale": scale,
                                     "simulates": list(simulate_keys)})
