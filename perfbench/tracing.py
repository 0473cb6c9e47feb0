"""Traced mode: spans around each layer's public functions, from outside.

:func:`install` replaces the functions listed in :data:`FUNCTIONS` and
:data:`METHODS` with wrappers that record one span each -- name, start,
end and parent -- in memory, plus a few counts read off the results.
Nothing under ``src/`` is edited: a module-level function is rebound in
every loaded module that imported it by name, a method on its class.

Forked processes (each ``figures-pool`` sweep and its pool workers)
inherit the wrappers.  A forked process's spans stay in its own memory,
so each time it finishes a top-level span it appends that batch to
``<spill_dir>/<pid>.jsonl``; :meth:`collect`
merges the batches back when the run ends.  ``perf_counter`` is
system-wide on Linux, so spans from every process share one clock.

A layer's self time is its spans' durations minus the time their direct
child spans cover (children nest, so they never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Callable, Optional

#: Self-time metric of each span name.  Several wrapped functions may
#: share a span name (both partition steps are ``core.partition``).
SELF_TIME = {
    "analysis.pdg": "analysis.pdg_s",
    "analysis.scc": "analysis.scc_s",
    "core.dswp": "core.dswp_s",
    "core.partition": "core.partition_s",
    "core.split": "core.split_s",
    "core.estimate": "core.estimate_s",
    "ir.verify": "ir.verify_s",
    "interp.run": "interp.run_s",
    "interp.pipeline": "interp.pipeline_s",
    "machine.simulate": "machine.simulate_s",
    "machine.batch": "machine.batch_s",
    "machine.fingerprint": "machine.fingerprint_s",
    "incr.plan": "incr.plan_s",
    "incr.finalize": "incr.finalize_s",
    "incr.get": "incr.get_s",
    "incr.put": "incr.put_s",
    "workloads.build": "workloads.build_s",
    "harness.journal": "harness.journal_s",
    "harness.bench": "harness.bench_s",
}

def _count_graph(counts, graph, args, kwargs):
    counts["analysis.arcs"] += len(graph.arcs)


def _count_dag(counts, dag, args, kwargs):
    counts["analysis.sccs"] += len(dag)


def _count_dswp(counts, result, args, kwargs):
    counts["ir.insts"] += result.function.instruction_count()
    if result.applied:
        counts["core.stages"] += len(result.partition)
        counts["core.flows"] += sum(result.flow_counts().values())
    else:
        counts["core.declined"] += 1


def _count_steps(counts, result, args, kwargs):
    counts["interp.insts"] += result.steps


def _count_sim(counts, sim, args, kwargs):
    counts["machine.sim_insts"] += sim.instructions


def _count_batch(counts, outcomes, args, kwargs):
    simulator = args[0]
    for phase, seconds in simulator.last_phase_seconds.items():
        counts[f"machine.batch.{phase}_s"] += seconds
    for lane in simulator.last_lanes:
        for kind in ("vector", "scalar", "oracle"):
            counts[f"machine.lanes.{kind}"] += lane[kind]
        counts["machine.chunk_hits"] += lane.get("chunk_hits", 0)
        counts["machine.chunk_misses"] += lane.get("chunk_misses", 0)


def _count_get(counts, value, args, kwargs):
    counts["incr.gets"] += 1


def _put_bytes(store) -> int:
    return sum(value for key, value in store.objects.stats().items()
               if key.endswith(".put_bytes"))


#: ``(module, function, span name, count hook)``; each function is
#: rebound wherever a loaded module holds it.
FUNCTIONS = (
    ("repro.analysis.pdg", "build_dependence_graph", "analysis.pdg",
     _count_graph),
    ("repro.core.dswp", "dswp", "core.dswp", _count_dswp),
    ("repro.core.partition", "estimated_scc_cycles", "core.partition", None),
    ("repro.core.partition", "heuristic_partition", "core.partition", None),
    ("repro.core.estimate", "estimate_partition", "core.estimate", None),
    ("repro.ir.verifier", "verify_function", "ir.verify", None),
    ("repro.interp.interpreter", "run_function", "interp.run", _count_steps),
    ("repro.interp.multithread", "run_threads", "interp.pipeline",
     _count_steps),
    ("repro.machine.cmp", "simulate", "machine.simulate", _count_sim),
    ("repro.machine.fingerprint", "sim_fingerprint", "machine.fingerprint",
     None),
    ("repro.incr.plan", "build_figure_plan", "incr.plan", None),
    ("repro.incr.plan", "finalize_figure", "incr.finalize", None),
    ("repro.harness.bench", "run_bench", "harness.bench", None),
    # The pool's task functions: the top-level spans inside a worker.
    ("repro.harness.bench", "_batch_task", "harness.bench", None),
    ("repro.harness.bench", "_point_task", "harness.bench", None),
)

#: ``(module, class, method, span name, count hook)``.
METHODS = (
    ("repro.analysis.pdg", "DependenceGraph", "dag_scc", "analysis.scc",
     _count_dag),
    ("repro.core.splitter", "LoopSplitter", "split", "core.split", None),
    ("repro.machine.batch", "BatchedSimulator", "simulate_batch",
     "machine.batch", _count_batch),
    ("repro.incr.store", "ArtifactStore", "get_artifact", "incr.get",
     _count_get),
    ("repro.incr.store", "ArtifactStore", "get_receipt", "incr.get",
     _count_get),
    ("repro.incr.store", "ArtifactStore", "put_artifact", "incr.put", None),
    ("repro.incr.store", "ArtifactStore", "put_receipt", "incr.put", None),
    ("repro.workloads.base", "Workload", "build", "workloads.build", None),
    ("repro.harness.journal", "SweepJournal", "start", "harness.journal",
     None),
    ("repro.harness.journal", "SweepJournal", "record_point",
     "harness.journal", None),
)

_PUTS = {"put_artifact", "put_receipt"}


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent index]`` and counts."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.enabled = False
        #: ``owner`` runs the benchmark; ``pid`` is the process whose
        #: spans the buffers hold (a forked worker takes them over).
        self.owner = self.pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable],
             puts: bool = False) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            if os.getpid() != recorder.pid:
                # First span in a forked worker: drop the copy of the
                # parent's buffers the fork inherited.
                recorder.pid = os.getpid()
                recorder._reset()
            before = _put_bytes(args[0]) if puts else 0
            index = len(recorder.spans)
            parent = recorder.stack[-1] if recorder.stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            recorder.spans.append(span)
            recorder.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                recorder.stack.pop()
            if puts:
                recorder.counts["incr.puts"] += 1
                recorder.counts["incr.put_bytes"] += (
                    _put_bytes(args[0]) - before)
            if hook is not None:
                hook(recorder.counts, result, args, kwargs)
            if not recorder.stack and recorder.pid != recorder.owner:
                recorder._spill()
            return result

        return traced

    def _spill(self) -> None:
        """Append a worker's finished spans to its own file."""
        path = os.path.join(self.spill_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans,
                                 "counts": dict(self.counts)}) + "\n")
        self._reset()

    def collect(self) -> tuple[list[list], Counter]:
        """This process's spans and counts plus every worker's spills."""
        spans = [list(span) for span in self.spans]
        counts = Counter(self.counts)
        for name in sorted(os.listdir(self.spill_dir)):
            with open(os.path.join(self.spill_dir, name),
                      encoding="utf-8") as fh:
                for line in fh:
                    batch = json.loads(line)
                    base = len(spans)
                    for sname, start, end, parent in batch["spans"]:
                        spans.append([sname, start, end,
                                      parent + base if parent >= 0 else -1])
                    counts.update(batch["counts"])
        return spans, counts


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded module's global bound to ``original`` at
    ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None) or {}
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(spill_dir: str) -> SpanRecorder:
    """Wrap every function in :data:`FUNCTIONS` and :data:`METHODS`.

    The recorder starts disabled: the caller enables it around the
    measured part only, so set-up and output checks record nothing.
    """
    os.makedirs(spill_dir, exist_ok=True)
    recorder = SpanRecorder(spill_dir)
    for module_name, attr, name, hook in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, recorder.wrap(name, original, hook))
    for module_name, cls_name, attr, name, hook in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(
                recorder.wrap(name, raw.__func__, hook)))
        else:
            setattr(cls, attr, recorder.wrap(name, raw, hook,
                                              puts=attr in _PUTS))
    return recorder


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, minus the time of each span's children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start
                                                - child_time[index])
    return totals


def write_spans(path: str, spans: list[list]) -> None:
    """The run's spans as JSON: one ``[name, start, end, parent]`` each."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": spans}, fh)
        fh.write("\n")
