"""compile-corpus: DSWP compilation of a seeded loop corpus at 2, 3, 4 threads.

The corpus is

* ``DRAWN`` loops drawn by the benchmark seed from the first
  ``POOL`` seeds of the loop generator at its default shape (~30
  instructions each): one from each of ``DRAWN`` equal strata of the
  pool ordered by size, so the corpus's total size, and with it the
  round time, barely depends on the seed;
* ``TAIL`` fixed generated loops at the large shape (8-16 segments,
  ~150-330 instructions), so the slow end of the latency distribution
  does not depend on the seed;
* every generated loop known to hit the generator's ``shared``-window
  overrun (see ``FOUND`` in CHANGES.md): the one in the pool, plus the
  large-shape reproducer.  They are in every corpus, whatever the seed,
  so their failed compilations are the same share of every run, and
  they are never drawn in place of another loop;
* the 16 registered workload loops.

Every loop's input -- its IR, loop header, initial memory and registers
and live-outs -- is pinned by digest in ``corpus_pin.json``: a change to
the generator or to a workload stops the benchmark instead of silently
changing its input.  ``python3 perfbench/run.py --pin`` re-pins after a
deliberate change; the compilations expected to fail are written down
here, by hand, and a re-pin that meets any other failing compilation
stops without pinning.

Compilation is the timed operation: ``dswp(..., threads=t,
require_profitable=False)``.  Each run compiles whole rounds of the same
corpus in one seeded order.  The outputs of an untimed warm-up round are
checked against sequential reference execution; every timed compilation
must then produce a pipeline with the same shape as the checked one; a
round's time is the sum of its compilations' latencies, so the
comparisons are not timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import sys
import time

from common import Stopwatch, peak_rss_mb

from repro.analysis.liveness import compute_liveness, loop_live_outs
from repro.core.dswp import dswp
from repro.fuzz.generator import GeneratorConfig, generate_case
from repro.interp.errors import InterpreterError
from repro.interp.multithread import run_threads
from repro.interp.reference import run_function_reference
from repro.ir.printer import render_function
from repro.machine.config import MachineConfig
from repro.machine.reference import simulate_reference
from repro.workloads import ALL_WORKLOADS, TABLE1_WORKLOADS

PIN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "corpus_pin.json")

THREADS = (2, 3, 4)
POOL = 2000
DRAWN = 64
TAIL = 8
#: The large loop shape; also the shape of the overrun's reproducer.
TAIL_CONFIG = GeneratorConfig(min_segments=8, max_segments=16,
                              max_straight_stmts=8, max_branch_stmts=6,
                              min_data_regs=8, max_data_regs=12)
TAIL_REPRODUCER = 10084
#: Pool seeds whose loops hit the overrun; always in the corpus.
POOL_OVERRUN = (1690,)
#: ``(loop, threads)`` compilations that fail the output check because
#: of the overrun.  Any other failure is a fault of the program.
EXPECTED_FAILURES = frozenset({
    ("gen-1690", 3), ("gen-1690", 4),
    ("gen-large-10084", 2), ("gen-large-10084", 3),
})
#: Trip count of the workload loops when their pipelines are executed.
CASE_SCALE = 100
#: Step budget of every check execution (generous for these sizes).
MAX_STEPS = 5_000_000


class CorpusDrift(RuntimeError):
    """A loop's input no longer matches its pinned digest."""


class CorpusLoop:
    """One compilation input plus what its check needs."""

    def __init__(self, name, function, loop, memory, regs, live_outs,
                 call_handlers=None):
        self.name = name
        self.function = function
        self.loop = loop
        self.memory = memory
        self.regs = dict(regs)
        self.live_outs = sorted(live_outs, key=str)
        self.call_handlers = call_handlers or {}

    def digest(self) -> str:
        """Everything a compilation and its check read from the input."""
        text = "\n".join([
            render_function(self.function),
            f"loop {self.loop.header}",
            f"memory {sorted(self.memory.snapshot().items())}",
            f"regs {sorted(self.regs.items())}",
            f"live-outs {self.live_outs}",
        ])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _generated(seed: int, large: bool) -> CorpusLoop:
    case = generate_case(seed, TAIL_CONFIG if large else None)
    name = f"gen-{'large-' if large else ''}{seed}"
    return CorpusLoop(name, case.function, case.loop, case.base_memory,
                      case.initial_regs, case.live_outs)


def _workload(workload) -> CorpusLoop:
    case = workload.build(scale=CASE_SCALE)
    loop = case.loop
    outs = loop_live_outs(case.function, loop, compute_liveness(case.function))
    return CorpusLoop(f"wl-{workload.name}", case.function, loop,
                      case.memory, case.initial_regs, outs, case.call_handlers)


def fixed_loops() -> list[CorpusLoop]:
    """The workload loops and the large generated loops."""
    loops = [_workload(w) for w in ALL_WORKLOADS]
    loops += [_generated(seed, True) for seed in range(TAIL)]
    loops.append(_generated(TAIL_REPRODUCER, True))
    return loops


def load_pin() -> dict:
    with open(PIN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build_corpus(seed: int) -> list[CorpusLoop]:
    """The run's corpus.

    Raises :class:`CorpusDrift` when any loop's input differs from the
    pin.
    """
    pin = load_pin()
    by_size = sorted((s for s in range(POOL) if s not in POOL_OVERRUN),
                     key=lambda s: (pin["pool_insts"][s], s))
    rng = random.Random(seed)
    bounds = [len(by_size) * i // DRAWN for i in range(DRAWN + 1)]
    drawn = [by_size[rng.randrange(low, high)]
             for low, high in zip(bounds, bounds[1:])]
    pinned = [(item, pin["fixed"].get(item.name)) for item in fixed_loops()]
    pinned += [(_generated(s, False), pin["pool"][s])
               for s in list(POOL_OVERRUN) + drawn]
    for item, expected in pinned:
        if item.digest() != expected:
            raise CorpusDrift(
                f"{item.name}: input digest {item.digest()} != pinned "
                f"{expected}; re-pin with python3 perfbench/run.py --pin")
    return [item for item, _ in pinned]


# ----------------------------------------------------------------------
# Output checks (never timed)
# ----------------------------------------------------------------------

class Reference:
    """Sequential execution of one loop under ``interp/reference.py``."""

    def __init__(self, item: CorpusLoop, record_trace: bool = False) -> None:
        memory = item.memory.clone()
        result = run_function_reference(
            item.function, memory, initial_regs=item.regs,
            max_steps=MAX_STEPS, record_trace=record_trace,
            call_handlers=item.call_handlers)
        self.snapshot = memory.snapshot()
        self.live = {reg: result.reg(reg) for reg in item.live_outs}
        self.trace = result.trace


def check_pipeline(item: CorpusLoop, result, reference: Reference,
                   threads: int, record_trace: bool = False):
    """Run ``result``'s pipeline and compare it with ``reference``.

    Returns ``(reason, traces)``: ``reason`` is ``None`` when the
    pipeline is correct, and ``traces`` holds its thread traces when
    ``record_trace`` is set and it is.
    """
    if len(result.partition) > threads:
        return f"{len(result.partition)} stages for {threads} threads", None
    for flow in result.flow_plan.loop_flows:
        if flow.src_thread >= flow.dst_thread:
            return f"backward flow {flow!r}", None
    memory = item.memory.clone()
    try:
        mt = run_threads(result.program, memory, initial_regs=item.regs,
                         max_steps=MAX_STEPS, record_trace=record_trace,
                         call_handlers=item.call_handlers)
    except InterpreterError as exc:
        return f"{type(exc).__name__}: {exc}", None
    if memory.snapshot() != reference.snapshot:
        return "memory image differs from sequential execution", None
    for reg, expected in reference.live.items():
        if mt.main_regs.get(reg, 0) != expected:
            return f"live-out {reg} differs from sequential execution", None
    return None, (mt.traces() if record_trace else None)


def shape(result) -> tuple:
    """What must repeat exactly when the same loop is recompiled."""
    if not result.applied:
        return (False, result.reason)
    return (True, len(result.partition),
            tuple(sorted(result.flow_counts().items())),
            tuple(fn.instruction_count() for fn in result.program.threads))


def compile_one(item: CorpusLoop, threads: int):
    return dswp(item.function, item.loop, threads=threads,
                require_profitable=False)


def table1_speedup(loops: list[CorpusLoop], traces: dict) -> float:
    """Geomean over the Table 1 loops of reference-simulated base cycles
    over 2-thread DSWP cycles, for the code this corpus compiled.

    ``traces`` holds the thread traces of each 2-thread pipeline that
    was applied and passed its check; any other loop counts as 1x.
    """
    machine = MachineConfig()
    logs = []
    for workload in TABLE1_WORKLOADS:
        name = f"wl-{workload.name}"
        item = next(loop for loop in loops if loop.name == name)
        base = simulate_reference(
            [Reference(item, record_trace=True).trace], machine,
            burst=1 << 30).cycles
        if name in traces:
            pipelined = simulate_reference(
                [t.to_entries() for t in traces[name]], machine,
                burst=1 << 30).cycles
        else:
            pipelined = base
        logs.append(math.log(base / pipelined))
    return math.exp(sum(logs) / len(logs))


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------

def run(bench) -> dict:
    loops = build_corpus(bench.seed)
    ops = [(item, t) for item in loops for t in THREADS]
    random.Random(bench.seed ^ 0xC0DE).shuffle(ops)

    # Warm-up round, untimed: the first compilation of every input.
    results = {(item.name, t): compile_one(item, t) for item, t in ops}
    expected_shape = {key: shape(result) for key, result in results.items()}

    latencies = []
    mismatched = set()
    with bench.measure():
        clock = Stopwatch()
        deadline = time.perf_counter() + bench.seconds
        while not clock.wall or time.perf_counter() < deadline:
            # A round's time is the sum of its compilations' latencies,
            # which leave out the shape comparisons.
            round_s = 0.0
            for item, threads in ops:
                t0 = time.perf_counter()
                result = compile_one(item, threads)
                latency = time.perf_counter() - t0
                latencies.append(latency)
                round_s += latency
                if shape(result) != expected_shape[(item.name, threads)]:
                    mismatched.add((item.name, threads))
            clock.lap(round_s)
    peak = peak_rss_mb()

    # Output checks, untimed: run every warm-up pipeline; the timed
    # rounds reproduced their shapes.
    table1 = {f"wl-{w.name}" for w in TABLE1_WORKLOADS}
    broken, traces = {}, {}
    for item in loops:
        reference = Reference(item)
        for threads in THREADS:
            key = (item.name, threads)
            if not results[key].applied:
                continue
            want_trace = threads == 2 and item.name in table1
            reason, thread_traces = check_pipeline(
                item, results[key], reference, threads, want_trace)
            if reason is not None:
                broken[key] = reason
            elif want_trace:
                traces[item.name] = thread_traces

    failed_ops = set(broken) | mismatched
    unexpected = failed_ops - EXPECTED_FAILURES
    for key in sorted(unexpected):
        print(f"compile-corpus: {key[0]} at {key[1]} threads failed: "
              f"{broken.get(key, 'pipeline shape changed between rounds')}",
              file=sys.stderr)
    return {
        "attempted": len(latencies),
        "failed": len(failed_ops) * len(clock.wall),
        "correct": not unexpected,
        "passes": len(clock.wall),
        "wall_s": statistics.median(clock.wall),
        "metrics": {
            "sweep_cal": statistics.median(clock.cal),
            "dswp_speedup": table1_speedup(loops, traces),
            "peak_rss_mb": peak,
        },
        "layers": {
            "core.compile_p50_ms": statistics.median(latencies) * 1e3,
            "core.compile_p99_ms": statistics.quantiles(
                latencies, n=100, method="inclusive")[98] * 1e3,
        },
    }


# ----------------------------------------------------------------------
# Re-pinning
# ----------------------------------------------------------------------

def pin() -> tuple[dict, set]:
    """Digest and size every pool loop and digest every fixed loop.

    Returns the pin and every compilation, of any loop that can be in a
    corpus, that fails its output check.
    """
    def failures(item: CorpusLoop) -> set:
        reference = Reference(item)
        bad = set()
        for threads in THREADS:
            result = compile_one(item, threads)
            if result.applied and check_pipeline(
                    item, result, reference, threads)[0] is not None:
                bad.add((item.name, threads))
        return bad

    pool, pool_insts, failed = [], [], set()
    for seed in range(POOL):
        item = _generated(seed, False)
        pool.append(item.digest())
        pool_insts.append(item.function.instruction_count())
        failed |= failures(item)
    fixed = {}
    for item in fixed_loops():
        fixed[item.name] = item.digest()
        failed |= failures(item)
    return {"pool": pool, "pool_insts": pool_insts, "fixed": fixed}, failed


def write_pin() -> int:
    """Re-pin; refuse, with status 1, when a compilation other than the
    :data:`EXPECTED_FAILURES` fails its check."""
    data, failed = pin()
    if failed != EXPECTED_FAILURES:
        for name, threads in sorted(failed - EXPECTED_FAILURES):
            print(f"pin: {name} at {threads} threads fails its output "
                  f"check", file=sys.stderr)
        for name, threads in sorted(EXPECTED_FAILURES - failed):
            print(f"pin: {name} at {threads} threads no longer fails",
                  file=sys.stderr)
        print("pin: not pinned; update EXPECTED_FAILURES (and "
              "POOL_OVERRUN) in corpus.py once each change is understood",
              file=sys.stderr)
        return 1
    with open(PIN_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(data['pool'])} pool loops and "
          f"{len(data['fixed'])} fixed loops")
    return 0
