"""Code splitting: turn one loop + partition into a thread pipeline.

Implements Steps 3 and 4 of the DSWP algorithm (Fig. 3 lines 7-8,
Sections 2.2.3 and 2.2.4):

* compute each thread's *relevant basic blocks* -- blocks holding its
  instructions, blocks holding the sources of its incoming dependences
  (so consumes sit at the position, and hence under the control
  conditions, of the dependence source), and blocks holding the
  branches it must duplicate;
* create per-thread copies of those blocks, placing owned instructions
  in original order, consumes at dependence-source positions, produces
  right after their source (or right before it for branch-condition
  flows), and duplicated branches fed by consumed predicates;
* fix branch targets whose original target has no counterpart in the
  thread by walking to the *closest relevant post-dominator*;
* insert initial flows (loop live-ins) in the main thread's preheader
  and matching consumes at each auxiliary thread's entry, and final
  flows (loop live-outs) in auxiliary post-loop code with matching
  consumes on the main thread's loop exits.

The required branch set is closed transitively over the DSWP
control-dependence arcs, and every loop-exit branch is replicated into
every thread so each thread terminates its loop on the same iteration.
As a safety net, if an "irrelevant" branch turns out to steer control
between two different relevant targets, it is promoted to a duplicated
branch and the split is re-run (this also covers conditional control
dependences the PDG pass may have expressed only indirectly).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.pdg import DependenceGraph, DepKind
from repro.core.flows import BoundaryFlow, FlowKind, FlowPlan, LoopFlow, QueueAllocator
from repro.core.partition import Partition, PartitionError
from repro.interp.multithread import ThreadProgram
from repro.ir.basicblock import BasicBlock
from repro.ir.dominance import (
    VIRTUAL_EXIT,
    postdominator_tree,
    postdominator_tree_of_graph,
)
from repro.analysis.controldep import loop_subgraph
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.loops import Loop
from repro.ir.types import Opcode


class SplitError(RuntimeError):
    """Raised when the loop cannot be split (missing preheader etc.)."""


class _PromoteBranch(Exception):
    """Internal: a branch believed irrelevant must be duplicated."""

    def __init__(self, branch: Instruction, thread: int) -> None:
        super().__init__(f"promote {branch.render()} into thread {thread}")
        self.branch = branch
        self.thread = thread


class SplitResult:
    """The transformed thread pipeline plus bookkeeping."""

    def __init__(
        self,
        program: ThreadProgram,
        flow_plan: FlowPlan,
        partition: Partition,
        assignment: dict[Instruction, int],
    ) -> None:
        self.program = program
        self.flow_plan = flow_plan
        self.partition = partition
        self.assignment = assignment


def _clone(inst: Instruction) -> Instruction:
    return Instruction(
        inst.opcode,
        dest=inst.dest,
        srcs=list(inst.srcs),
        imm=inst.imm,
        targets=list(inst.targets),
        region=inst.region,
        queue=inst.queue,
        origin=inst,
        attrs=dict(inst.attrs),
    )


class LoopSplitter:
    """Splits one loop according to a partition; see module docstring."""

    def __init__(
        self,
        function: Function,
        loop: Loop,
        graph: DependenceGraph,
        partition: Partition,
        queue_limit: int = 256,
        allocator: Optional[QueueAllocator] = None,
    ) -> None:
        self.function = function
        self.loop = loop
        self.graph = graph
        self.partition = partition
        self.threads = len(partition)
        self.queue_limit = queue_limit
        #: Shared allocator (multi-loop programs hand one in so queue
        #: ids never collide across loops); fresh per split otherwise.
        self._allocator = allocator
        self.assignment = partition.assignment()
        self._inst_block: dict[int, str] = {}
        for block in loop.blocks():
            for inst in block:
                self._inst_block[inst.uid] = block.label
        # Postdominators: within the loop region (aux retargeting) and
        # function-wide (main-thread retargeting past loop exits).
        succs, exits = loop_subgraph(loop)
        if not exits:
            raise SplitError("loop has no exit edges; cannot pipeline")
        self._pdt_loop = postdominator_tree_of_graph(succs, exits)
        self._pdt_func = postdominator_tree(function)
        # Filled by plan()/build():
        self.plan: FlowPlan = FlowPlan(QueueAllocator(queue_limit))
        self._placements: dict[int, set[Instruction]] = {}
        self._duplicated: dict[int, set[Instruction]] = {}
        self._extra_needed: dict[int, set[Instruction]] = {
            i: set() for i in range(self.threads)
        }
        self._relevant: dict[int, set[str]] = {}
        self._consumes_at: dict[tuple[int, int], list[LoopFlow]] = {}

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _exit_branches(self) -> list[Instruction]:
        out = []
        for block in self.loop.blocks():
            term = block.terminator
            if term is not None and term.is_branch and any(
                t not in self.loop.body for t in term.targets
            ):
                out.append(term)
        return out

    def _plan_flows(self) -> None:
        self.plan = FlowPlan(self._allocator or QueueAllocator(self.queue_limit))
        self._placements = {i: set() for i in range(self.threads)}
        for arc in self.graph.arcs:
            src_t = self.assignment[arc.src]
            dst_t = self.assignment[arc.dst]
            if src_t == dst_t:
                continue
            if src_t > dst_t:
                raise PartitionError(
                    f"arc {arc!r} flows backward across the pipeline"
                )
            if arc.kind is DepKind.DATA:
                self.plan.add_data_flow(arc.src, arc.register, src_t, dst_t)
                self._placements[dst_t].add(arc.src)
            elif arc.kind is DepKind.MEMORY:
                self.plan.add_memory_flow(arc.src, src_t, dst_t)
                self._placements[dst_t].add(arc.src)
            elif arc.kind is DepKind.OUTPUT:
                raise PartitionError(
                    "output-dependent live-out definitions split across "
                    f"threads: {arc!r}"
                )
            # CONTROL arcs are realised through branch duplication below.

        # Branch duplication: transitive closure over control arcs.
        ctrl_sources: dict[int, set[Instruction]] = {}
        for arc in self.graph.arcs:
            if arc.kind is DepKind.CONTROL:
                ctrl_sources.setdefault(arc.dst.uid, set()).add(arc.src)
        exit_branches = self._exit_branches()
        self._duplicated = {}
        for i in range(self.threads):
            owned = [x for x, t in self.assignment.items() if t == i]
            seeds = (
                owned
                + sorted(self._placements[i], key=lambda x: x.uid)
                + sorted(self._extra_needed[i], key=lambda x: x.uid)
                + exit_branches
            )
            seen: set[int] = set()
            present: dict[int, Instruction] = {}
            work: list[Instruction] = []
            for inst in seeds:
                if inst.uid not in seen:
                    seen.add(inst.uid)
                    present[inst.uid] = inst
                    work.append(inst)
            while work:
                node = work.pop()
                for branch in ctrl_sources.get(node.uid, ()):
                    if branch.uid not in seen:
                        seen.add(branch.uid)
                        present[branch.uid] = branch
                        work.append(branch)
            self._duplicated[i] = {
                inst
                for inst in present.values()
                if inst.is_branch and self.assignment.get(inst) != i
            }
            for branch in sorted(self._duplicated[i], key=lambda b: b.uid):
                self.plan.add_control_flow(branch, self.assignment[branch], i)

        # Boundary flows.
        for reg, consumer in self.graph.live_in_uses:
            thread = self.assignment.get(consumer)
            if thread:
                self.plan.add_initial_flow(reg, thread)
        for reg, defs in sorted(
            self.graph.live_out_defs.items(), key=lambda kv: kv[0]
        ):
            def_threads = {self.assignment[d] for d in defs}
            if len(def_threads) != 1:
                raise PartitionError(
                    f"live-out {reg} defined in threads {sorted(def_threads)}"
                )
            thread = def_threads.pop()
            if thread:
                self.plan.add_final_flow(reg, thread)
                # The definition may be conditional: seed the auxiliary
                # thread with the pre-loop value so the flown-back value
                # is correct on paths that never redefine it.
                self.plan.add_initial_flow(reg, thread)

        # Index consume placements: (thread, source uid) -> flows.
        self._consumes_at = {}
        for flow in self.plan.loop_flows:
            if flow.kind is FlowKind.CONTROL:
                continue
            key = (flow.dst_thread, flow.source.uid)
            self._consumes_at.setdefault(key, []).append(flow)
        for flows in self._consumes_at.values():
            flows.sort(key=lambda f: f.queue)

    def _compute_relevant(self) -> None:
        self._relevant = {}
        for i in range(self.threads):
            labels = {self.loop.header}
            for inst, thread in self.assignment.items():
                if thread == i:
                    labels.add(self._inst_block[inst.uid])
            for inst in self._placements[i]:
                labels.add(self._inst_block[inst.uid])
            for branch in self._duplicated[i]:
                labels.add(self._inst_block[branch.uid])
            self._relevant[i] = labels

    # ------------------------------------------------------------------
    # Retargeting
    # ------------------------------------------------------------------
    def _retarget(self, target: str, thread: int, post_label: str) -> str:
        if thread == 0:
            if target not in self.loop.body:
                return target
            for node in self._pdt_func.walk_up(target):
                if node == VIRTUAL_EXIT:
                    break
                if node in self._relevant[0]:
                    return node
                if node not in self.loop.body:
                    return node
            raise SplitError(
                f"no relevant post-dominator for {target} in main thread"
            )
        if target not in self.loop.body:
            return post_label
        for node in self._pdt_loop.walk_up(target):
            if node == "<out>":
                return post_label
            if node == VIRTUAL_EXIT:
                break
            if node in self._relevant[thread]:
                return node
        raise SplitError(
            f"no relevant post-dominator for {target} in thread {thread}"
        )

    # ------------------------------------------------------------------
    # Block construction
    # ------------------------------------------------------------------
    def _emit_consumes(self, thread: int, source: Instruction, block: BasicBlock) -> None:
        for flow in self._consumes_at.get((thread, source.uid), ()):  # sorted
            block.append(
                Instruction(
                    Opcode.CONSUME,
                    dest=flow.register,
                    queue=flow.queue,
                )
            )

    def _emit_produces(self, thread: int, source: Instruction, block: BasicBlock) -> None:
        for flow in self.plan.loop_flows_from(source):
            if flow.src_thread != thread or flow.kind is FlowKind.CONTROL:
                continue
            srcs = [flow.register] if flow.register is not None else []
            block.append(Instruction(Opcode.PRODUCE, srcs=srcs, queue=flow.queue))

    def _build_loop_block(
        self, original: BasicBlock, thread: int, func: Function, post_label: str
    ) -> None:
        new_block = func.add_block(original.label)
        term = original.terminator
        for inst in original:
            if inst is term:
                break
            owner = self.assignment.get(inst)
            if owner == thread:
                new_block.append(_clone(inst))
                self._emit_produces(thread, inst, new_block)
            elif (thread, inst.uid) in self._consumes_at:
                self._emit_consumes(thread, inst, new_block)
        # Terminator.
        if term is None:
            raise SplitError(f"loop block {original.label} unterminated")
        if term.opcode is Opcode.JMP:
            new_block.append(
                Instruction(
                    Opcode.JMP,
                    targets=[self._retarget(term.targets[0], thread, post_label)],
                )
            )
            return
        if term.opcode is Opcode.RET:
            raise SplitError("ret inside loop body")
        # Conditional branch.
        taken = self._retarget(term.targets[0], thread, post_label)
        fall = self._retarget(term.targets[1], thread, post_label)
        owner = self.assignment.get(term)
        if owner == thread:
            # Branch-condition produces go just before the branch.
            for flow in self.plan.loop_flows_from(term):
                if flow.kind is FlowKind.CONTROL and flow.src_thread == thread:
                    new_block.append(
                        Instruction(
                            Opcode.PRODUCE, srcs=[term.srcs[0]], queue=flow.queue
                        )
                    )
            new_block.append(
                Instruction(Opcode.BR, srcs=[term.srcs[0]], targets=[taken, fall],
                            origin=term)
            )
        elif term in self._duplicated[thread]:
            flow = next(
                f
                for f in self.plan.loop_flows_from(term)
                if f.kind is FlowKind.CONTROL and f.dst_thread == thread
            )
            new_block.append(
                Instruction(Opcode.CONSUME, dest=term.srcs[0], queue=flow.queue)
            )
            new_block.append(
                Instruction(Opcode.BR, srcs=[term.srcs[0]], targets=[taken, fall],
                            origin=term)
            )
        else:
            if taken != fall:
                raise _PromoteBranch(term, thread)
            new_block.append(Instruction(Opcode.JMP, targets=[taken]))

    # ------------------------------------------------------------------
    # Thread assembly
    # ------------------------------------------------------------------
    def _build_main(self) -> Function:
        func = Function(f"{self.function.name}@main")
        post_label = "<invalid>"  # main never exits to a shared post block
        for block in self.function.blocks():
            if block.label not in self.loop.body:
                copy = func.add_block(block.label, entry=block.label == self.function.entry_label)
                for inst in block:
                    copy.append(_clone(inst))
            elif block.label in self._relevant[0]:
                self._build_loop_block(block, 0, func, post_label)
        func.entry_label = self.function.entry_label

        # Initial flows: produced at the end of the preheader.
        preheader = self.loop.preheader()
        if preheader is None:
            raise SplitError(
                f"loop {self.loop.header} lacks a unique preheader"
            )
        pre_block = func.block(preheader)
        for flow in sorted(self.plan.initial_flows, key=lambda f: f.queue):
            pre_block.insert_before_terminator(
                Instruction(Opcode.PRODUCE, srcs=[flow.register], queue=flow.queue)
            )

        # Final flows: consumed on every loop exit edge, in fresh
        # staging blocks spliced onto the exit edges.
        if self.plan.final_flows:
            staging: dict[str, str] = {}
            for block in [func.block(lbl) for lbl in sorted(self._relevant[0])
                          if func.has_block(lbl)]:
                term = block.terminator
                if term is None:
                    continue
                for idx, target in enumerate(list(term.targets)):
                    if target in self.loop.body or target.startswith("dswp_exit_"):
                        continue
                    label = staging.get(target)
                    if label is None:
                        counter = len(staging)
                        label = f"dswp_exit_{counter}"
                        while func.has_block(label):
                            # The function may carry staging blocks from
                            # an earlier split (multi-loop programs).
                            counter += 1
                            label = f"dswp_exit_{counter}"
                        staging[target] = label
                        stage_block = func.add_block(label)
                        for flow in sorted(
                            self.plan.final_flows, key=lambda f: f.queue
                        ):
                            stage_block.append(
                                Instruction(
                                    Opcode.CONSUME,
                                    dest=flow.register,
                                    queue=flow.queue,
                                )
                            )
                        stage_block.append(Instruction(Opcode.JMP, targets=[target]))
                    term.targets[idx] = label
        func.sync_register_counter()
        return func

    def _build_aux(self, thread: int) -> Function:
        func = Function(f"{self.function.name}@t{thread}")
        entry = func.add_block("entry", entry=True)
        for flow in sorted(self.plan.initial_flows, key=lambda f: f.queue):
            if flow.thread == thread:
                entry.append(
                    Instruction(Opcode.CONSUME, dest=flow.register, queue=flow.queue)
                )
        entry.append(Instruction(Opcode.JMP, targets=[self.loop.header]))
        post_label = "post"
        for block in self.loop.blocks():
            if block.label in self._relevant[thread]:
                self._build_loop_block(block, thread, func, post_label)
        post = func.add_block(post_label)
        for flow in sorted(self.plan.final_flows, key=lambda f: f.queue):
            if flow.thread == thread:
                post.append(
                    Instruction(Opcode.PRODUCE, srcs=[flow.register], queue=flow.queue)
                )
        post.append(Instruction(Opcode.RET))
        func.sync_register_counter()
        return func

    # ------------------------------------------------------------------
    def split(self) -> SplitResult:
        """Run the split, retrying after branch promotions."""
        max_rounds = 4 + sum(
            1 for inst in self.loop.instructions() if inst.is_branch
        ) * self.threads
        for _ in range(max_rounds):
            self._plan_flows()
            self._compute_relevant()
            try:
                functions = [self._build_main()] + [
                    self._build_aux(i) for i in range(1, self.threads)
                ]
            except _PromoteBranch as promo:
                self._extra_needed[promo.thread].add(promo.branch)
                continue
            program = ThreadProgram(functions, name=f"{self.function.name}@dswp")
            return SplitResult(program, self.plan, self.partition, self.assignment)
        raise SplitError("branch promotion did not converge")


def split_loop(
    function: Function,
    loop: Loop,
    graph: DependenceGraph,
    partition: Partition,
    queue_limit: int = 256,
) -> SplitResult:
    """Split ``loop`` into the thread pipeline dictated by ``partition``."""
    return LoopSplitter(function, loop, graph, partition, queue_limit).split()
