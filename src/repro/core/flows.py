"""Flow (produce/consume pair) planning for the DSWP splitter.

Section 2.2.4 classifies flows two ways:

by dependence type
    DATA (a register value), CONTROL (a branch direction feeding a
    duplicated branch), MEMORY (a valueless token enforcing memory or
    system-call ordering);

by loop position
    LOOP flows (inside the loop, once per occurrence of the source),
    INITIAL flows (loop live-ins delivered to auxiliary threads before
    the loop), FINAL flows (loop live-outs delivered back to the main
    thread after the loop).

:class:`FlowPlan` performs the *redundant flow elimination* of the
paper by keying loop flows on (source instruction, register, consuming
thread): a value is communicated to a thread at most once per dynamic
execution of its source, no matter how many instructions in that thread
use it.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.ir.instruction import Instruction
from repro.ir.types import Register


class FlowKind(enum.Enum):
    DATA = "data"
    CONTROL = "control"
    MEMORY = "memory"


class LoopFlow:
    """A produce/consume pair inside the loop."""

    __slots__ = ("kind", "queue", "source", "register", "src_thread", "dst_thread")

    def __init__(
        self,
        kind: FlowKind,
        queue: int,
        source: Instruction,
        register: Optional[Register],
        src_thread: int,
        dst_thread: int,
    ) -> None:
        self.kind = kind
        self.queue = queue
        self.source = source
        self.register = register
        self.src_thread = src_thread
        self.dst_thread = dst_thread

    def __repr__(self) -> str:
        return (
            f"<{self.kind.value} flow q{self.queue} t{self.src_thread}->"
            f"t{self.dst_thread} src={self.source.render()} reg={self.register}>"
        )


class BoundaryFlow:
    """An initial or final flow (register value across the loop boundary)."""

    __slots__ = ("queue", "register", "thread", "final")

    def __init__(self, queue: int, register: Register, thread: int, final: bool) -> None:
        self.queue = queue
        self.register = register
        self.thread = thread  # the auxiliary thread involved
        self.final = final

    def __repr__(self) -> str:
        direction = "final" if self.final else "initial"
        return f"<{direction} flow q{self.queue} {self.register} thread {self.thread}>"


class QueueAllocator:
    """Hands out queue ids; bounded by the synchronization array size."""

    def __init__(self, limit: int = 256) -> None:
        self.limit = limit
        self._next = 0

    def allocate(self) -> int:
        if self._next >= self.limit:
            raise RuntimeError(
                f"loop requires more than {self.limit} queues; "
                "the synchronization array is exhausted"
            )
        qid = self._next
        self._next += 1
        return qid

    @property
    def used(self) -> int:
        return self._next


class FlowPlan:
    """All flows a partitioning requires, deduplicated."""

    def __init__(self, allocator: Optional[QueueAllocator] = None) -> None:
        self.allocator = allocator or QueueAllocator()
        self.loop_flows: list[LoopFlow] = []
        self.initial_flows: list[BoundaryFlow] = []
        self.final_flows: list[BoundaryFlow] = []
        self._loop_keys: dict[tuple, LoopFlow] = {}
        #: source uid -> its loop flows, in queue order.
        self._loop_from: dict[int, list[LoopFlow]] = {}
        self._initial_keys: dict[tuple[Register, int], BoundaryFlow] = {}
        self._final_keys: dict[tuple[Register, int], BoundaryFlow] = {}

    # ------------------------------------------------------------------
    def _add_loop_flow(self, key: tuple, flow: LoopFlow) -> None:
        # Queue ids are allocated in increasing order, so appending keeps
        # every list in queue order.
        self._loop_keys[key] = flow
        self.loop_flows.append(flow)
        self._loop_from.setdefault(flow.source.uid, []).append(flow)

    def add_data_flow(
        self, source: Instruction, register: Register, src_thread: int, dst_thread: int
    ) -> LoopFlow:
        key = ("data", source.uid, register, dst_thread)
        flow = self._loop_keys.get(key)
        if flow is None:
            flow = LoopFlow(
                FlowKind.DATA, self.allocator.allocate(), source, register,
                src_thread, dst_thread,
            )
            self._add_loop_flow(key, flow)
        return flow

    def add_control_flow(
        self, branch: Instruction, src_thread: int, dst_thread: int
    ) -> LoopFlow:
        key = ("control", branch.uid, dst_thread)
        flow = self._loop_keys.get(key)
        if flow is None:
            flow = LoopFlow(
                FlowKind.CONTROL, self.allocator.allocate(), branch,
                branch.srcs[0], src_thread, dst_thread,
            )
            self._add_loop_flow(key, flow)
        return flow

    def add_memory_flow(
        self, source: Instruction, src_thread: int, dst_thread: int
    ) -> LoopFlow:
        key = ("memory", source.uid, dst_thread)
        flow = self._loop_keys.get(key)
        if flow is None:
            flow = LoopFlow(
                FlowKind.MEMORY, self.allocator.allocate(), source, None,
                src_thread, dst_thread,
            )
            self._add_loop_flow(key, flow)
        return flow

    def add_initial_flow(self, register: Register, thread: int) -> BoundaryFlow:
        key = (register, thread)
        flow = self._initial_keys.get(key)
        if flow is None:
            flow = BoundaryFlow(self.allocator.allocate(), register, thread, final=False)
            self._initial_keys[key] = flow
            self.initial_flows.append(flow)
        return flow

    def add_final_flow(self, register: Register, thread: int) -> BoundaryFlow:
        key = (register, thread)
        flow = self._final_keys.get(key)
        if flow is None:
            flow = BoundaryFlow(self.allocator.allocate(), register, thread, final=True)
            self._final_keys[key] = flow
            self.final_flows.append(flow)
        return flow

    # ------------------------------------------------------------------
    def loop_flows_from(self, source: Instruction) -> list[LoopFlow]:
        """Loop flows whose source is ``source`` (stable queue order)."""
        return list(self._loop_from.get(source.uid, ()))

    def counts(self) -> dict[str, int]:
        """Flow counts in Table 1's three columns: init / loop / final."""
        return {
            "initial": len(self.initial_flows),
            "loop": len(self.loop_flows),
            "final": len(self.final_flows),
        }
