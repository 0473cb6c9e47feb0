"""Workload framework: synthetic loops mirroring the paper's Table 1.

The paper evaluates loops from SPEC-CPU2000, Mediabench and ``wc``.  We
cannot ship those programs, so each workload here reconstructs the
*dependence structure* of the selected loop -- the recurrences (SCCs),
the latency profile (pointer chasing vs. affine array walks), the
control flow, and the memory footprint -- which is what DSWP's
applicability and speedup depend on.  Every workload provides:

* an IR function whose main loop is the DSWP target,
* an input memory image and initial registers,
* a pure-Python oracle that checks the final memory/registers, used by
  the correctness tests to validate every transformed variant,
* the Table-1 metadata (benchmark name, loop nesting depth, fraction of
  program execution the loop represents).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.interp.interpreter import CallHandler
from repro.interp.memory import Memory
from repro.ir.function import Function
from repro.ir.loops import Loop, find_loop_by_header
from repro.ir.types import Register

#: The input-generator seed of a default build: every sweep and the
#: planner's case-fingerprint receipts (:func:`repro.incr.dag.case_key`)
#: build with it.
BUILD_SEED = 7


class WorkloadCase:
    """A concrete, runnable instance of a workload."""

    def __init__(
        self,
        name: str,
        function: Function,
        loop_header: str,
        memory: Memory,
        initial_regs: dict[Register, int],
        checker: Callable[[Memory, dict[Register, int]], None],
        call_handlers: Optional[dict[str, CallHandler]] = None,
    ) -> None:
        self.name = name
        self.function = function
        self.loop_header = loop_header
        self.memory = memory
        self.initial_regs = dict(initial_regs)
        self.checker = checker
        self.call_handlers = call_handlers or {}

    @property
    def loop(self) -> Loop:
        return find_loop_by_header(self.function, self.loop_header)

    def fresh_memory(self) -> Memory:
        return self.memory.clone()


class Workload:
    """A workload definition: metadata plus a case factory."""

    #: Short name used throughout the harness.
    name: str = ""
    #: The benchmark the loop is modelled on (Table 1 row).
    paper_benchmark: str = ""
    #: Loop nesting depth of the selected loop (Table 1 "Loop Nest").
    loop_nest: int = 1
    #: Fraction of program execution time spent in the loop,
    #: representative of Table 1's "Ex.%" column (the paper reports
    #: values between 6% and 98% across the suite).
    exec_fraction: float = 0.5
    #: Number of function calls inside the loop (Table 1).
    func_calls: int = 0
    #: Default problem size (outer-loop trip count).
    default_scale: int = 1500

    def build(self, scale: Optional[int] = None,
              seed: int = BUILD_SEED) -> WorkloadCase:
        """Construct a runnable case.  Subclasses implement ``_build``."""
        return self._build(scale or self.default_scale, random.Random(seed))

    def _build(self, scale: int, rng: random.Random) -> WorkloadCase:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Workload {self.name} ({self.paper_benchmark})>"
