"""The loop dependence graph (PDG) that drives DSWP (Fig. 3 line 1).

Nodes are the loop's instructions (branches included; pure control-flow
glue -- ``jmp``/``nop`` -- is excluded because the splitter regenerates
terminators per thread).  Arcs carry a kind, an optional register, and
a loop-carried flag:

* ``DATA`` -- register true (flow) dependences, intra-iteration and
  loop-carried.  Anti- and output-dependences on registers are ignored
  (different threads use different register files, Section 2.2.1) with
  the single exception below.
* ``CONTROL`` -- the DSWP control-dependence relation: standard control
  dependence *plus* loop-iteration control dependences (Fig. 4) *plus*
  conditional control dependences (Fig. 5a: when a dependence source is
  controlled by a branch the sink is not, the sink must also hear about
  the branch).
* ``MEMORY`` -- ordering constraints between may-aliasing memory
  operations (and impure calls), intra- and cross-iteration.
* ``OUTPUT`` -- the Fig. 5(b) rule: multiple in-loop definitions of the
  same loop live-out register are tied into one SCC so exactly one
  thread owns the final value.

The graph also records the loop boundary: which uses read loop live-in
values and which definitions produce each live-out register, feeding
the initial/final flow insertion of Section 2.2.4.

The arc list is deterministic: every set of definitions or branches is
visited in uid order (the ``EXTERNAL`` pre-loop site first), never in
the memory-address order of a set of instructions.  The splitter hands
out queue ids in arc order, so this keeps every pipeline reproducible.
``tests/analysis/reference_pdg.py`` keeps the straightforward builder
this one must match arc for arc.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.analysis.controldep import loop_iteration_control_deps_detailed
from repro.analysis.liveness import compute_liveness, loop_live_outs
from repro.analysis.memdep import AliasModel, writes_memory
from repro.analysis.scc import DagScc, condense
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.loops import Loop
from repro.ir.types import Opcode, Register

#: Pseudo definition site meaning "defined before the loop".
EXTERNAL = "<external>"

#: Shared controller set of an instruction no branch controls.
_NO_CONTROLLERS: frozenset = frozenset()


class DepKind(enum.Enum):
    DATA = "data"
    CONTROL = "control"
    MEMORY = "memory"
    OUTPUT = "output"


class DepArc:
    """One dependence arc ``src -> dst`` (src must execute before dst)."""

    __slots__ = ("src", "dst", "kind", "register", "loop_carried", "conditional")

    def __init__(
        self,
        src: Instruction,
        dst: Instruction,
        kind: DepKind,
        register: Optional[Register] = None,
        loop_carried: bool = False,
        conditional: bool = False,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.register = register
        self.loop_carried = loop_carried
        self.conditional = conditional

    def __repr__(self) -> str:
        tag = "+LC" if self.loop_carried else ""
        reg = f" {self.register}" if self.register else ""
        return (
            f"<{self.kind.value}{tag}{reg}: "
            f"{self.src.render()} -> {self.dst.render()}>"
        )


class DependenceGraph:
    """The complete loop dependence graph."""

    def __init__(self, function: Function, loop: Loop) -> None:
        self.function = function
        self.loop = loop
        self.nodes: list[Instruction] = []
        self.arcs: list[DepArc] = []
        #: (register, consumer instruction) pairs reading live-in values.
        self.live_in_uses: list[tuple[Register, Instruction]] = []
        #: live-out register -> definitions reaching the loop exits.
        self.live_out_defs: dict[Register, list[Instruction]] = {}
        self._succ_cache: Optional[dict[Instruction, set[Instruction]]] = None

    # ------------------------------------------------------------------
    def add_arc(self, arc: DepArc) -> None:
        self.arcs.append(arc)
        self._succ_cache = None

    def remove_arc(self, arc: DepArc) -> None:
        """Drop one dependence arc (fault-injection / what-if hook)."""
        self.arcs.remove(arc)
        self._succ_cache = None

    def successors(self) -> dict[Instruction, set[Instruction]]:
        if self._succ_cache is None:
            succ: dict[Instruction, set[Instruction]] = {n: set() for n in self.nodes}
            for arc in self.arcs:
                succ[arc.src].add(arc.dst)
            self._succ_cache = succ
        return self._succ_cache

    def dag_scc(self) -> DagScc:
        """Condense into the DAG_SCC (Fig. 3 lines 2-4)."""
        return condense(self.nodes, self.successors())

    def control_arcs(self) -> list[DepArc]:
        return [a for a in self.arcs if a.kind is DepKind.CONTROL]


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def build_dependence_graph(
    function: Function,
    loop: Loop,
    alias_model: Optional[AliasModel] = None,
) -> DependenceGraph:
    """Build the full dependence graph for ``loop`` (Fig. 3 line 1)."""
    alias_model = alias_model or AliasModel()
    graph = DependenceGraph(function, loop)
    blocks = loop.blocks()
    graph.nodes = [
        inst
        for block in blocks
        for inst in block
        if inst.opcode not in (Opcode.JMP, Opcode.NOP)
    ]
    _add_register_data_deps(graph, blocks)
    _add_control_deps(graph)
    _add_memory_deps(graph, blocks, alias_model)
    _add_conditional_control_deps(graph)
    _add_live_out_output_deps(graph)
    return graph


# ----------------------------------------------------------------------
# Register data dependences (reaching definitions inside the loop)
# ----------------------------------------------------------------------

def _loop_block_preds(
    loop: Loop, blocks: list[BasicBlock], include_back_edges: bool
) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in blocks}
    for block in blocks:
        for succ in block.successor_labels():
            if succ not in loop.body:
                continue
            if succ == loop.header and not include_back_edges:
                continue
            preds[succ].append(block.label)
    return preds


class _Definitions:
    """The loop's register definitions, one bit each.

    Bits ``0 .. R-1`` are the EXTERNAL sites of the ``R`` registers the
    loop defines, one per register; the definitions follow in uid order.
    A set of reaching definitions is an int, and visiting its bits from
    low to high yields EXTERNAL first, then definitions by uid.
    """

    def __init__(self, blocks: list[BasicBlock]) -> None:
        defining = sorted(
            (inst for block in blocks for inst in block
             if inst.defined_registers()),
            key=lambda inst: inst.uid,
        )
        #: register -> its EXTERNAL bit.
        self.external: dict[Register, int] = {}
        for inst in defining:
            for reg in inst.defined_registers():
                if reg not in self.external:
                    self.external[reg] = 1 << len(self.external)
        #: register -> its EXTERNAL bit and every definition bit.
        self.mask = dict(self.external)
        #: register -> (bit, defining instruction), in uid order.
        self.sites: dict[Register, list[tuple[int, Instruction]]] = {
            reg: [] for reg in self.external
        }
        #: instruction -> (register, bit) of each register it defines.
        self.bits_of: dict[Instruction, list[tuple[Register, int]]] = {}
        bit = 1 << len(self.external)
        for inst in defining:
            pairs = []
            for reg in inst.defined_registers():
                pairs.append((reg, bit))
                self.sites[reg].append((bit, inst))
                self.mask[reg] |= bit
                bit <<= 1
            self.bits_of[inst] = pairs

    def reaching(
        self, loop: Loop, blocks: list[BasicBlock], include_back_edges: bool
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Per-block IN and OUT sets of reaching definitions.

        ``out = (in & ~kill) | gen``.  The header's IN also holds a
        register's EXTERNAL bit exactly when some definition of that
        register reaches it: the pre-loop value flows in beside them.
        Registers no loop definition reaches read EXTERNAL by default
        at their use sites.
        """
        preds = _loop_block_preds(loop, blocks, include_back_edges)
        gen: dict[str, int] = {}
        kill: dict[str, int] = {}
        for block in blocks:
            last: dict[Register, int] = {}
            for inst in block:
                for reg, bit in self.bits_of.get(inst, ()):
                    last[reg] = bit
            gen[block.label] = sum(last.values())
            kill[block.label] = 0
            for reg in last:
                kill[block.label] |= self.mask[reg]
        externals = [
            (self.mask[reg] ^ ext, ext) for reg, ext in self.external.items()
        ]
        ins = dict.fromkeys(gen, 0)
        outs = dict.fromkeys(gen, 0)
        changed = True
        while changed:
            changed = False
            for label in gen:
                new_in = 0
                for pred in preds[label]:
                    new_in |= outs[pred]
                if label == loop.header:
                    for defs, ext in externals:
                        if new_in & defs:
                            new_in |= ext
                new_out = (new_in & ~kill[label]) | gen[label]
                if new_in != ins[label] or new_out != outs[label]:
                    ins[label] = new_in
                    outs[label] = new_out
                    changed = True
        return ins, outs


def _add_register_data_deps(
    graph: DependenceGraph, blocks: list[BasicBlock]
) -> None:
    loop = graph.loop
    defs = _Definitions(blocks)
    acyclic_in, _ = defs.reaching(loop, blocks, include_back_edges=False)
    full_in, full_out = defs.reaching(loop, blocks, include_back_edges=True)

    arcs = graph.arcs
    data = DepKind.DATA
    seen_live_in: set[tuple[Register, int]] = set()
    for block in blocks:
        reach_acyclic = acyclic_in[block.label]
        reach_full = full_in[block.label]
        for inst in block:
            for reg in inst.used_registers():
                reach = reach_full & defs.mask.get(reg, 0)
                if not reach or reach & defs.external[reg]:
                    key = (reg, inst.uid)
                    if key not in seen_live_in:
                        seen_live_in.add(key)
                        graph.live_in_uses.append((reg, inst))
                if not reach:
                    continue
                for bit, site in defs.sites[reg]:
                    if reach & bit:
                        carried = not reach_acyclic & bit
                        arcs.append(DepArc(site, inst, data, reg, carried))
            # Update the local reaching state past this instruction.
            for reg, bit in defs.bits_of.get(inst, ()):
                keep = ~defs.mask[reg]
                reach_acyclic = (reach_acyclic & keep) | bit
                reach_full = (reach_full & keep) | bit
    graph._succ_cache = None

    # Live-out definitions: defs reaching the loop's exit edges.
    liveness = compute_liveness(graph.function)
    live_outs = loop_live_outs(graph.function, loop, liveness)
    exit_edges = loop.exit_edges()
    for reg in sorted(live_outs):
        live_defs: list[Instruction] = []
        for src_label, target in exit_edges:
            if reg not in liveness.live_in[target]:
                continue
            reach = full_out[src_label]
            for bit, site in defs.sites.get(reg, ()):
                if reach & bit and site not in live_defs:
                    live_defs.append(site)
        if live_defs:
            graph.live_out_defs[reg] = live_defs


# ----------------------------------------------------------------------
# Control dependences
# ----------------------------------------------------------------------

def _add_control_deps(graph: DependenceGraph) -> None:
    loop = graph.loop
    deps = loop_iteration_control_deps_detailed(loop)
    node_set = set(graph.nodes)
    arcs = graph.arcs
    for dep_label, controllers in deps.items():
        dep_block = graph.function.block(dep_label)
        for ctrl_label, carried in sorted(controllers.items()):
            branch = graph.function.block(ctrl_label).terminator
            if branch is None or not branch.is_branch or branch not in node_set:
                continue
            for inst in dep_block:
                if inst in node_set and inst is not branch:
                    arcs.append(
                        DepArc(branch, inst, DepKind.CONTROL, loop_carried=carried)
                    )
    graph._succ_cache = None


def _add_conditional_control_deps(graph: DependenceGraph) -> None:
    """Fig. 5(a): if D -> U is a data/memory dependence and D is control
    dependent on branch B but U is not, U must also depend on B so the
    consuming thread knows *when* the dependence occurs.

    Arcs are visited in order and each new arc joins its sink's
    controllers at once, so a later arc out of that sink inherits it.
    """
    controllers: dict[Instruction, set[Instruction]] = {}
    for arc in graph.control_arcs():
        controllers.setdefault(arc.dst, set()).add(arc.src)
    new_arcs: list[DepArc] = []
    for arc in graph.arcs:
        if arc.kind is not DepKind.DATA and arc.kind is not DepKind.MEMORY:
            continue
        src_ctrl = controllers.get(arc.src)
        if not src_ctrl:
            continue
        dst = arc.dst
        dst_ctrl = controllers.get(dst, _NO_CONTROLLERS)
        missing = src_ctrl - dst_ctrl
        missing.discard(dst)
        if not missing:
            continue
        for branch in sorted(missing, key=lambda b: b.uid):
            new_arcs.append(
                DepArc(branch, dst, DepKind.CONTROL, conditional=True,
                       loop_carried=arc.loop_carried)
            )
        controllers[dst] = missing | dst_ctrl
    graph.arcs.extend(new_arcs)
    graph._succ_cache = None


# ----------------------------------------------------------------------
# Memory dependences
# ----------------------------------------------------------------------

def _acyclic_block_reachability(
    loop: Loop, blocks: list[BasicBlock]
) -> dict[str, set[str]]:
    """label -> labels reachable without following a back edge."""
    succs: dict[str, list[str]] = {}
    for block in blocks:
        succs[block.label] = [
            s for s in block.successor_labels()
            if s in loop.body and s != loop.header
        ]
    reach: dict[str, set[str]] = {}

    def visit(label: str) -> set[str]:
        if label in reach:
            return reach[label]
        reach[label] = set()  # cycle guard (graph is acyclic anyway)
        out: set[str] = set()
        for succ in succs[label]:
            out.add(succ)
            out |= visit(succ)
        reach[label] = out
        return out

    for block in blocks:
        visit(block.label)
    return reach


def _add_memory_deps(
    graph: DependenceGraph, blocks: list[BasicBlock], alias_model: AliasModel
) -> None:
    """Order every pair of memory operations that may conflict.

    An operation is paired only with the operations of its own alias
    bucket and of the ``None`` bucket (a ``None``-bucket operation with
    every operation), and a load only with writers: no other pair can
    alias, or needs ordering if it does.  The alias model still judges
    each remaining pair.  Pairs are visited in ``(i, j)`` order, as an
    all-pairs scan would, so the arcs come out in the same order.
    """
    mem_ops: list[tuple[Instruction, str, int]] = []
    for block in blocks:
        for pos, inst in enumerate(block):
            if inst.is_memory or (inst.is_call and not inst.attrs.get("pure", False)):
                mem_ops.append((inst, block.label, pos))
    if not mem_ops:
        return
    buckets = [alias_model.bucket(inst) for inst, _, _ in mem_ops]
    writes = [writes_memory(inst) for inst, _, _ in mem_ops]
    # bucket -> (every partner, writer partners), each in index order.
    partners: dict[Optional[str], tuple[list[int], list[int]]] = {None: ([], [])}
    for bucket in buckets:
        partners.setdefault(bucket, ([], []))
    for j, (bucket, writer) in enumerate(zip(buckets, writes)):
        for key in (partners if bucket is None else (None, bucket)):
            every, writers = partners[key]
            every.append(j)
            if writer:
                writers.append(j)

    reach = _acyclic_block_reachability(graph.loop, blocks)
    same_iteration = alias_model.conflicts_same_iteration
    cross_iteration = alias_model.conflicts_cross_iteration
    arcs = graph.arcs
    memory = DepKind.MEMORY
    for i, (u, u_block, u_pos) in enumerate(mem_ops):
        every, writers = partners[buckets[i]]
        u_reach = reach[u_block]
        for j in every if writes[i] else writers:
            if j == i:
                continue
            v, v_block, v_pos = mem_ops[j]
            # Intra-iteration arc u -> v when v can execute after u in
            # the same iteration.
            if u_block == v_block:
                intra = u_pos < v_pos
            else:
                intra = v_block in u_reach
            if intra and same_iteration(u, v):
                arcs.append(DepArc(u, v, memory))
            # Cross-iteration arc u (iter i) -> v (iter i+k).
            if cross_iteration(u, v):
                arcs.append(DepArc(u, v, memory, loop_carried=True))
    graph._succ_cache = None


# ----------------------------------------------------------------------
# Live-out output dependences (Fig. 5b)
# ----------------------------------------------------------------------

def _add_live_out_output_deps(graph: DependenceGraph) -> None:
    for reg, defs in graph.live_out_defs.items():
        if len(defs) < 2:
            continue
        for a in defs:
            for b in defs:
                if a is not b:
                    graph.add_arc(
                        DepArc(a, b, DepKind.OUTPUT, register=reg, loop_carried=True)
                    )
