"""The repository's benchmark: one workload, one fresh process, one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs from the root of a checkout, builds nothing (the program is pure
Python under ``src/``) and prints, as the last line of its output, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the run records spans around each
layer (see ``tracing.py``) and the metrics are the per-layer ones, each
per pass of the workload's unit of work.

Each run works in a fresh directory under ``.perfbench/runs`` in the
checkout and removes it on the way out, failures included; a traced
run leaves its spans in ``.perfbench/traces/<workload>.json``.

``python3 perfbench/run.py --pin`` re-pins the compile corpus (see
``corpus.py``).  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
import time

from common import ROOT

_SCRIPT_START = time.perf_counter()


def process_start_perf() -> float:
    """The process's start on the ``time.perf_counter`` clock.

    Linux records the start in ``/proc/self/stat`` in clock ticks since
    boot; ``perf_counter`` and ``CLOCK_BOOTTIME`` differ only by the time
    spent suspended, so the offset between them maps one onto the other.
    Elsewhere the start of this script is the best available mark.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[19])  # field 22 of stat(5); two precede ")"
        start_boot = ticks / os.sysconf("SC_CLK_TCK")
        offset = time.perf_counter() - time.clock_gettime(time.CLOCK_BOOTTIME)
        return start_boot + offset
    except (OSError, ValueError, IndexError, AttributeError):
        return _SCRIPT_START


STARTED = process_start_perf()

WORKLOADS = ("compile-corpus", "figures-pool")

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_cal", "cal"),
    ("dswp_speedup", "x"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("analysis.pdg_s", "s"), ("analysis.scc_s", "s"),
    ("analysis.arcs", "count"), ("analysis.sccs", "count"),
    ("core.dswp_s", "s"), ("core.partition_s", "s"), ("core.split_s", "s"),
    ("core.estimate_s", "s"), ("core.stages", "count"),
    ("core.flows", "count"), ("core.declined", "count"),
    ("core.compile_p50_ms", "ms"), ("core.compile_p99_ms", "ms"),
    ("ir.verify_s", "s"), ("ir.insts", "count"),
    ("interp.run_s", "s"), ("interp.pipeline_s", "s"),
    ("interp.insts", "count"),
    ("machine.simulate_s", "s"), ("machine.sim_insts", "count"),
    ("machine.sim_insts_per_s", "1/s"), ("machine.batch_s", "s"),
    ("machine.batch.annotate_s", "s"), ("machine.batch.schedule_s", "s"),
    ("machine.batch.compile_s", "s"), ("machine.batch.replay_vector_s", "s"),
    ("machine.batch.replay_scalar_s", "s"),
    ("machine.lanes.vector", "count"), ("machine.lanes.scalar", "count"),
    ("machine.lanes.oracle", "count"),
    ("machine.chunk_hits", "count"), ("machine.chunk_misses", "count"),
    ("machine.fingerprint_s", "s"),
    ("incr.plan_s", "s"), ("incr.finalize_s", "s"),
    ("incr.get_s", "s"), ("incr.gets", "count"),
    ("incr.put_s", "s"), ("incr.puts", "count"), ("incr.put_bytes", "B"),
    ("incr.hits", "count"), ("incr.misses", "count"),
    ("incr.scheduled_stages", "count"), ("incr.store_mb", "MB"),
    ("workloads.build_s", "s"), ("harness.journal_s", "s"),
    ("harness.bench_s", "s"),
    ("parallel.busy_s", "s"), ("parallel.idle_s", "s"),
    ("parallel.tasks", "count"), ("parallel.steals", "count"),
    ("parallel.fallbacks", "count"),
    ("trace.sweep_s", "s"), ("trace.sweep_cal", "cal"),
)

#: Per-layer values that are a property of one pass, not a sum over it.
NOT_PER_PASS = {"core.compile_p50_ms", "core.compile_p99_ms",
                "machine.sim_insts_per_s", "incr.store_mb", "trace.sweep_s",
                "trace.sweep_cal"}


class Bench:
    """What a workload gets: its seed and run length, a fresh directory,
    and :meth:`measure` around the part that is timed (and traced)."""

    def __init__(self, seed: int, seconds: int, run_dir: str,
                 recorder=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.recorder = recorder
        self.setup_s = None

    @contextlib.contextmanager
    def measure(self):
        if self.setup_s is None:
            self.setup_s = time.perf_counter() - STARTED
        if self.recorder is not None:
            self.recorder.enabled = True
        try:
            yield
        finally:
            if self.recorder is not None:
                self.recorder.enabled = False


@contextlib.contextmanager
def run_directory(workload: str):
    parent = os.path.join(ROOT, ".perfbench", "runs")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{workload}-", dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def layer_metrics(recorder, outcome: dict) -> tuple[dict, list]:
    """Per-layer values, each per pass of the workload's unit of work."""
    import tracing

    spans, counts = recorder.collect()
    passes = outcome["passes"]
    totals = dict(counts)
    for name, seconds in tracing.self_times(spans).items():
        if name in tracing.SELF_TIME:
            totals[tracing.SELF_TIME[name]] = seconds
    totals.update(outcome["layers"])
    simulate_s = totals.get("machine.simulate_s", 0.0)
    totals["machine.sim_insts_per_s"] = (
        totals.get("machine.sim_insts", 0) / simulate_s if simulate_s else 0.0)
    totals["trace.sweep_s"] = outcome["wall_s"]
    totals["trace.sweep_cal"] = outcome["metrics"]["sweep_cal"]
    values = {}
    for name, _unit in PER_LAYER:
        value = totals.get(name, 0)
        values[name] = value if name in NOT_PER_PASS else value / passes
    return values, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the compile corpus and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import corpus
    import figures
    import tracing

    if args.pin:
        return corpus.write_pin()
    run = {
        "compile-corpus": corpus.run,
        "figures-pool": figures.run_pool,
    }[args.workload]

    with run_directory(args.workload) as run_dir:
        recorder = (tracing.install(os.path.join(run_dir, "spans"))
                    if args.trace else None)
        bench = Bench(args.seed, args.seconds, run_dir, recorder)
        try:
            outcome = run(bench)
        except corpus.CorpusDrift as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if recorder is not None:
            values, spans = layer_metrics(recorder, outcome)
            tracing.write_spans(os.path.join(
                ROOT, ".perfbench", "traces", f"{args.workload}.json"), spans)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            values = dict(outcome["metrics"], setup_s=bench.setup_s)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
