"""Reference loop-dependence-graph builder: the differential oracle.

This is the straightforward builder that ``repro.analysis.pdg`` replaced:
reaching definitions as dicts of Python sets iterated to a fixpoint, and
an all-pairs scan over the loop's memory operations.  It is kept, the
way ``interp/reference.py`` is kept for the interpreter, so the tests can
check the production builder against it arc for arc.

Every set of instructions is visited in uid order (the ``EXTERNAL``
pre-loop marker first), so the arc list it produces is deterministic and
is the order the production builder must reproduce.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.controldep import loop_iteration_control_deps_detailed
from repro.analysis.liveness import compute_liveness, loop_live_outs
from repro.analysis.memdep import AliasModel, needs_ordering
from repro.analysis.pdg import EXTERNAL, DepArc, DependenceGraph, DepKind
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.loops import Loop
from repro.ir.types import Opcode, Register


def _uid_order(sites) -> list:
    """``sites`` sorted by uid, with the EXTERNAL marker first."""
    return sorted(sites, key=lambda s: -1 if s is EXTERNAL else s.uid)


def build_reference_graph(
    function: Function,
    loop: Loop,
    alias_model: Optional[AliasModel] = None,
) -> DependenceGraph:
    """Build the full dependence graph for ``loop`` the reference way."""
    alias_model = alias_model or AliasModel()
    graph = DependenceGraph(function, loop)
    graph.nodes = [
        inst
        for inst in loop.instructions()
        if inst.opcode not in (Opcode.JMP, Opcode.NOP)
    ]
    _add_register_data_deps(graph)
    _add_control_deps(graph)
    _add_memory_deps(graph, alias_model)
    _add_conditional_control_deps(graph)
    _add_live_out_output_deps(graph)
    return graph


# ----------------------------------------------------------------------
# Register data dependences (reaching definitions inside the loop)
# ----------------------------------------------------------------------

def _loop_block_preds(loop: Loop, include_back_edges: bool) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in loop.blocks()}
    for block in loop.blocks():
        for succ in block.successor_labels():
            if succ not in loop.body:
                continue
            if succ == loop.header and not include_back_edges:
                continue
            preds[succ].append(block.label)
    return preds


def _reaching_defs(
    loop: Loop, include_back_edges: bool
) -> dict[str, dict[str, dict[Register, set]]]:
    """Per-block IN and OUT sets: register -> set of defining
    instructions (or the EXTERNAL marker).  The header's IN contains
    EXTERNAL for every register some loop definition of which reaches
    it, standing for pre-loop definitions.
    """
    blocks = loop.blocks()
    preds = _loop_block_preds(loop, include_back_edges)

    gen: dict[str, dict[Register, Instruction]] = {}
    kill: dict[str, set[Register]] = {}
    for block in blocks:
        last_def: dict[Register, Instruction] = {}
        for inst in block:
            for reg in inst.defined_registers():
                last_def[reg] = inst
        gen[block.label] = last_def
        kill[block.label] = set(last_def)

    ins: dict[str, dict[Register, set]] = {b.label: {} for b in blocks}
    outs: dict[str, dict[Register, set]] = {b.label: {} for b in blocks}

    def transfer(label: str, in_map: dict[Register, set]) -> dict[Register, set]:
        out: dict[Register, set] = {
            reg: set(sites) for reg, sites in in_map.items() if reg not in kill[label]
        }
        for reg, inst in gen[label].items():
            out[reg] = {inst}
        return out

    changed = True
    while changed:
        changed = False
        for block in blocks:
            label = block.label
            new_in: dict[Register, set] = {}
            for pred in preds[label]:
                for reg, sites in outs[pred].items():
                    new_in.setdefault(reg, set()).update(sites)
            if label == loop.header:
                for reg in new_in:
                    new_in[reg].add(EXTERNAL)
            if new_in != ins[label]:
                ins[label] = new_in
                outs[label] = transfer(label, new_in)
                changed = True
            else:
                new_out = transfer(label, new_in)
                if new_out != outs[label]:
                    outs[label] = new_out
                    changed = True
    return {"in": ins, "out": outs}


def _add_register_data_deps(graph: DependenceGraph) -> None:
    loop = graph.loop
    acyclic = _reaching_defs(loop, include_back_edges=False)
    full = _reaching_defs(loop, include_back_edges=True)

    node_set = set(graph.nodes)
    seen_live_in: set[tuple[Register, int]] = set()

    for block in loop.blocks():
        reach_acyclic = {r: set(s) for r, s in acyclic["in"][block.label].items()}
        reach_full = {r: set(s) for r, s in full["in"][block.label].items()}
        for inst in block:
            for reg in inst.used_registers():
                intra_defs = reach_acyclic.get(reg, {EXTERNAL})
                all_defs = reach_full.get(reg, {EXTERNAL})
                for def_site in _uid_order(all_defs):
                    if def_site is EXTERNAL:
                        key = (reg, inst.uid)
                        if key not in seen_live_in:
                            seen_live_in.add(key)
                            graph.live_in_uses.append((reg, inst))
                        continue
                    if def_site not in node_set or inst not in node_set:
                        continue
                    carried = def_site not in intra_defs
                    graph.add_arc(
                        DepArc(def_site, inst, DepKind.DATA, register=reg,
                               loop_carried=carried)
                    )
            for reg in inst.defined_registers():
                reach_acyclic[reg] = {inst}
                reach_full[reg] = {inst}

    liveness = compute_liveness(graph.function)
    live_outs = loop_live_outs(graph.function, loop, liveness)
    out_full = full["out"]
    for reg in sorted(live_outs):
        defs: list[Instruction] = []
        for src_label, target in loop.exit_edges():
            if reg not in liveness.live_in[target]:
                continue
            for def_site in _uid_order(out_full[src_label].get(reg, set())):
                if def_site is not EXTERNAL and def_site not in defs:
                    defs.append(def_site)
        if defs:
            graph.live_out_defs[reg] = defs


# ----------------------------------------------------------------------
# Control dependences
# ----------------------------------------------------------------------

def _add_control_deps(graph: DependenceGraph) -> None:
    loop = graph.loop
    deps = loop_iteration_control_deps_detailed(loop)
    node_set = set(graph.nodes)
    for dep_label, controllers in deps.items():
        dep_block = graph.function.block(dep_label)
        for ctrl_label, carried in sorted(controllers.items()):
            branch = graph.function.block(ctrl_label).terminator
            if branch is None or not branch.is_branch or branch not in node_set:
                continue
            for inst in dep_block:
                if inst in node_set and inst is not branch:
                    graph.add_arc(
                        DepArc(branch, inst, DepKind.CONTROL, loop_carried=carried)
                    )


def _add_conditional_control_deps(graph: DependenceGraph) -> None:
    """Fig. 5(a): if D -> U is a data/memory dependence and D is control
    dependent on branch B but U is not, U must also depend on B."""
    controllers: dict[Instruction, set[Instruction]] = {}
    for arc in graph.control_arcs():
        controllers.setdefault(arc.dst, set()).add(arc.src)
    new_arcs: list[DepArc] = []
    for arc in list(graph.arcs):
        if arc.kind not in (DepKind.DATA, DepKind.MEMORY):
            continue
        src_ctrl = controllers.get(arc.src, set())
        dst_ctrl = controllers.get(arc.dst, set())
        for branch in _uid_order(src_ctrl - dst_ctrl):
            if branch is arc.dst:
                continue
            new_arcs.append(
                DepArc(branch, arc.dst, DepKind.CONTROL, conditional=True,
                       loop_carried=arc.loop_carried)
            )
            dst_ctrl = dst_ctrl | {branch}
            controllers[arc.dst] = dst_ctrl
    for arc in new_arcs:
        graph.add_arc(arc)


# ----------------------------------------------------------------------
# Memory dependences
# ----------------------------------------------------------------------

def _acyclic_block_reachability(loop: Loop) -> dict[str, set[str]]:
    """label -> labels reachable without following a back edge."""
    succs: dict[str, list[str]] = {}
    for block in loop.blocks():
        succs[block.label] = [
            s for s in block.successor_labels()
            if s in loop.body and s != loop.header
        ]
    reach: dict[str, set[str]] = {}

    def visit(label: str) -> set[str]:
        if label in reach:
            return reach[label]
        reach[label] = set()
        out: set[str] = set()
        for succ in succs[label]:
            out.add(succ)
            out |= visit(succ)
        reach[label] = out
        return out

    for block in loop.blocks():
        visit(block.label)
    return reach


def _add_memory_deps(graph: DependenceGraph, alias_model: AliasModel) -> None:
    loop = graph.loop
    mem_ops: list[tuple[Instruction, str, int]] = []
    for block in loop.blocks():
        for pos, inst in enumerate(block):
            if inst.is_memory or (inst.is_call and not inst.attrs.get("pure", False)):
                mem_ops.append((inst, block.label, pos))

    reach = _acyclic_block_reachability(loop)
    for i, (u, u_block, u_pos) in enumerate(mem_ops):
        for j, (v, v_block, v_pos) in enumerate(mem_ops):
            if i == j or not needs_ordering(u, v):
                continue
            intra = (
                (u_block == v_block and u_pos < v_pos)
                or (u_block != v_block and v_block in reach[u_block])
            )
            if intra and alias_model.conflicts_same_iteration(u, v):
                graph.add_arc(DepArc(u, v, DepKind.MEMORY))
            if alias_model.conflicts_cross_iteration(u, v):
                graph.add_arc(DepArc(u, v, DepKind.MEMORY, loop_carried=True))


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
