"""Execution profiling by direct interpretation.

Stands in for the IMPACT profiling tools: runs the program once on a
training input and records per-block execution counts, from which the
partitioner derives per-instruction weights (average executions per
loop iteration) and the loop trip statistics reported in Table 1.
"""

from __future__ import annotations

from typing import Optional

from repro.interp.interpreter import CallHandler, run_function
from repro.interp.memory import Memory
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.loops import Loop
from repro.ir.types import Register


class LoopProfile:
    """Profile information about one loop.

    A profile belongs to its loop's instructions: ``instruction_weight``
    matches them by identity, so an instruction of another build of the
    same code weighs 0.0, and ``dswp()`` refuses a profile of another
    loop.
    """

    #: instruction -> weight, derived from the counts on first use.  It
    #: is never pickled (see ``__getstate__``), so artifacts holding a
    #: profile have the same bytes before and after it is used.
    _weights: Optional[dict[Instruction, float]] = None

    def __init__(
        self,
        block_counts: dict[str, int],
        header_trips: int,
        loop: Loop,
    ) -> None:
        self.block_counts = dict(block_counts)
        #: Number of times the loop header executed.
        self.header_trips = max(header_trips, 1)
        self.loop = loop

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_weights", None)
        return state

    def block_weight(self, label: str) -> float:
        """Average executions of ``label`` per loop iteration."""
        return self.block_counts.get(label, 0) / self.header_trips

    def instruction_weight(self, inst: Instruction) -> float:
        """Average executions of ``inst`` per loop iteration (0.0 for an
        instruction outside the loop)."""
        weights = self._weights
        if weights is None:
            weights = self._weights = {
                member: self.block_weight(block.label)
                for block in self.loop.blocks()
                for member in block
            }
        return weights.get(inst, 0.0)

    @staticmethod
    def uniform(loop: Loop) -> "LoopProfile":
        """A flat profile (weight 1 everywhere) for unprofiled code."""
        counts = {b.label: 1 for b in loop.blocks()}
        return LoopProfile(counts, 1, loop)


def profile_loop(
    function: Function,
    loop: Loop,
    memory: Memory,
    initial_regs: Optional[dict[Register, int]] = None,
    max_steps: int = 10_000_000,
    call_handlers: Optional[dict[str, CallHandler]] = None,
) -> LoopProfile:
    """Run ``function`` on a *copy* of ``memory`` and profile ``loop``."""
    result = run_function(
        function,
        memory.clone(),
        initial_regs=initial_regs,
        max_steps=max_steps,
        record_profile=True,
        call_handlers=call_handlers,
    )
    counts = result.block_counts or {}
    return LoopProfile(counts, counts.get(loop.header, 0), loop)
