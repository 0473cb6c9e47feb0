"""figures-pool: the Fig. 9 sweeps on the worker pool, from cold.

A sweep is what ``python -m repro bench --no-compare`` does by default:
``run_bench`` for fig9a, fig9b and qsweep in turn at scale 800, on one
forked worker per core, with one output directory (and so one artifact
store) for all three.  That is 150 points over the ten Table 1 loops.

Every sweep is cold: it runs in a process forked for it from the
benchmark before any sweep, in an empty directory of its own.
``run_bench`` keeps its store and journals under the output directory
and fits its cost model from the reports it finds there, and the
program keeps process-wide memos (batch annotation, schedules, replay
tables, the worker arena, stage fingerprints), so a second sweep in the
same process or directory would be warm.  A run makes one sweep per
:data:`SWEEP_S` seconds of ``--seconds``, one after another, and
reports their mean.

Each figure is one unit of a :class:`common.Stopwatch` calibrated on as
many CPUs as there are workers.  The checks never run inside a timed
sweep: every point must satisfy two properties of the timing model, and
a seeded sample of points is recomputed from scratch by the program's
reference lane (``interp/reference.py`` and ``machine/reference.py``).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import random
import statistics
import sys
import traceback

from common import Stopwatch, peak_rss_mb

from repro.harness.bench import FIGURES, run_bench, run_point_naive, \
    sweep_points
from repro.machine.config import FULL_WIDTH_CORE, HALF_WIDTH_CORE
from repro.workloads import TABLE1_WORKLOADS

#: The scale ``python -m repro bench`` sweeps by default.
FIGURE_SCALE = 800

#: Points per run recomputed with the reference interpreter and timing
#: model (about 0.3 s each at the figure scale).
REFERENCE_SAMPLE = 6

#: Nominal seconds of one sweep: ``--seconds`` divided by this is the
#: run's fixed number of sweeps.
SWEEP_S = 6.5


def _specs() -> dict:
    return {(figure, spec["id"]): spec for figure in FIGURES
            for spec in sweep_points(figure, FIGURE_SCALE)}


def _issue_width(spec: dict) -> int:
    core = HALF_WIDTH_CORE if spec["machine"]["core"] == "half" \
        else FULL_WIDTH_CORE
    return core.issue_width


def model_failures(points: dict, specs: dict) -> set:
    """Points that break a property every timing result must have.

    * No core retires more than its issue width per cycle: each IPC is
      at most the width, and the run's cycles times the width cover each
      core's instructions.
    * The functional work does not depend on the machine: a loop's base
      instruction count, and each DSWP thread's, are the same at every
      point of every figure.
    """
    bad = set()
    counts: dict[tuple, dict] = {}
    for key, point in points.items():
        spec = specs[key]
        width = _issue_width(spec)
        if (any(ipc > width for ipc in point["ipcs"])
                or any(point["cycles"] * width < n
                       for n in point["instructions"])):
            bad.add(key)
        group = counts.setdefault((spec["workload"], spec["kind"]), {})
        group.setdefault(tuple(point["instructions"]), []).append(key)
    for variants in counts.values():
        if len(variants) > 1:
            for keys in variants.values():
                bad.update(keys)
    return bad


def reference_points(specs: dict, seed: int) -> dict:
    """Seed-sampled points recomputed by ``run_point_naive``: with
    ``interp/reference.py`` (profile and trace) and
    ``machine/reference.py``, sharing nothing with the sweep but the
    DSWP transform and its multithreaded run."""
    return {key: run_point_naive(specs[key])[0]
            for key in random.Random(seed).sample(sorted(specs),
                                                  REFERENCE_SAMPLE)}


def dswp_speedup(points: dict) -> float:
    """Geomean over the Table 1 loops of base cycles over DSWP cycles at
    the fig9b ``comm1`` points."""
    logs = [math.log(points[("fig9b", f"{w.name}:base-full")]["cycles"]
                     / points[("fig9b", f"{w.name}:dswp-full-comm1")]
                     ["cycles"])
            for w in TABLE1_WORKLOADS]
    return math.exp(sum(logs) / len(logs))


def report_layers(reports: list[dict]) -> dict:
    """Per-layer counts the reports carry: the incremental planner's
    accounting and the pool's telemetry (pool work runs in workers)."""
    layers = {"incr.hits": 0, "incr.misses": 0, "incr.scheduled_stages": 0,
              "parallel.busy_s": 0.0, "parallel.idle_s": 0.0,
              "parallel.tasks": 0, "parallel.steals": 0,
              "parallel.fallbacks": 0}
    for report in reports:
        incr = report["incr"]
        for stage in incr["stages"].values():
            layers["incr.hits"] += stage["hit"]
            layers["incr.misses"] += stage["miss"]
        layers["incr.scheduled_stages"] += incr["scheduled_total"]
        metrics = report["metrics"]
        busy = sum(v for k, v in metrics.items()
                   if k.startswith("pool.busy_seconds{"))
        layers["parallel.busy_s"] += busy
        layers["parallel.idle_s"] += (
            metrics.get("pool.workers", 0)
            * metrics.get("pool.wall_seconds", 0.0) - busy)
        for name, key in (("parallel.tasks", "pool.tasks{"),
                          ("parallel.steals", "pool.steals{")):
            layers[name] += sum(v for k, v in metrics.items()
                                if k.startswith(key))
        layers["parallel.fallbacks"] += metrics.get("pool.fallbacks", 0)
    return layers


def dir_size_mb(path: str) -> float:
    """Bytes of every regular file under ``path``, in MB."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.lstat(os.path.join(root, name)).st_size
    return total / 1e6


def cold_sweep(out: str, jobs: int) -> dict:
    """One sweep in a forked child, which sends back its reports, its
    wall and calibrated times and how many pool processes outlived it.
    A child that fails prints why and sends nothing."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            clock = Stopwatch(cpus=jobs)
            reports = []
            for figure in FIGURES:
                with clock.unit():
                    reports.append(run_bench(figure, scale=FIGURE_SCALE,
                                             jobs=jobs, out_dir=out,
                                             compare=False))
            leftover = multiprocessing.active_children()
            for child in leftover:
                child.kill()
                child.join()
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump({"reports": reports, "wall": sum(clock.wall),
                             "cal": sum(clock.cal),
                             "leftover": len(leftover)}, fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            return pickle.load(fh)
    finally:
        os.waitpid(pid, 0)


def run_pool(bench) -> dict:
    jobs = len(os.sched_getaffinity(0))
    count = max(1, round(bench.seconds / SWEEP_S))
    with bench.measure():
        sweeps = [cold_sweep(os.path.join(bench.run_dir, f"out{index}"),
                             jobs)
                  for index in range(count)]
    # The sweeps run in the workers; the largest one is the peak.
    peak = peak_rss_mb(children=True)
    specs = _specs()
    naive = reference_points(specs, bench.seed)
    failed, layers, leftover = 0, {}, 0
    for result in sweeps:
        points = {(report["figure"], point["id"]): point
                  for report in result["reports"]
                  for point in report["points"]}
        bad = model_failures(points, specs)
        bad |= {key for key, point in naive.items()
                if points.get(key) != point}
        failed += len(bad)
        leftover += result["leftover"]
        for name, value in report_layers(result["reports"]).items():
            layers[name] = layers.get(name, 0) + value
    if leftover:
        print(f"figures-pool: {leftover} pool processes outlived their "
              f"sweep", file=sys.stderr)
    layers["incr.store_mb"] = dir_size_mb(
        os.path.join(bench.run_dir, "out0", ".bench-cache"))
    return {
        "attempted": len(specs) * count,
        "failed": failed,
        "correct": not failed and not leftover,
        "passes": count,
        "wall_s": statistics.mean(r["wall"] for r in sweeps),
        "metrics": {
            "sweep_cal": statistics.mean(r["cal"] for r in sweeps),
            "dswp_speedup": dswp_speedup(points),
            "peak_rss_mb": peak,
        },
        "layers": layers,
    }
