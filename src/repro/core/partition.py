"""Thread partitioning: the TPP heuristic and partition utilities.

Implements Section 2.2.2 of the paper:

* :class:`Partition` -- a *valid partitioning* per Definition 1: an
  ordered sequence of SCC sets such that every DAG_SCC arc flows
  forward (``i <= j``), each SCC in exactly one set.
* :func:`heuristic_partition` -- the paper's load-balancing heuristic:
  keep a candidate set of SCC nodes whose predecessors are assigned;
  repeatedly take the candidate with the largest estimated cycles
  (ties broken in favour of candidates that reduce the number of
  outgoing dependences from the current partition); close a partition
  when its estimated cycles approach ``total / threads``.
* :func:`enumerate_two_way_partitions` -- all valid 2-thread cuts of
  the DAG_SCC (the "best manually directed" search of Fig. 6(a) and
  the partition sweep of Fig. 7).

The optimal TPP is NP-complete (reduction from bin packing); the
heuristic plus the exhaustive 2-way enumerator bound it from both
sides in the benchmarks.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.pdg import DependenceGraph, DepKind
from repro.analysis.profiling import LoopProfile
from repro.analysis.scc import DagScc
from repro.ir.instruction import Instruction


class PartitionError(ValueError):
    """Raised for invalid partitions or unpartitionable graphs."""


class Partition:
    """A valid partitioning: ``stages[i]`` is the set of SCC ids of
    pipeline stage *i* (stage 0 runs in the main thread)."""

    def __init__(self, dag: DagScc, stages: list[set[int]]) -> None:
        self.dag = dag
        self.stages = [set(s) for s in stages]
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check Definition 1 (valid partitioning)."""
        seen: set[int] = set()
        for stage in self.stages:
            if stage & seen:
                raise PartitionError("SCC assigned to multiple stages")
            seen |= stage
        if seen != set(range(len(self.dag))):
            raise PartitionError(
                f"stages cover {sorted(seen)} but DAG has {len(self.dag)} SCCs"
            )
        stage_of = self.stage_of_scc()
        for src, dsts in self.dag.edges.items():
            for dst in dsts:
                if stage_of[src] > stage_of[dst]:
                    raise PartitionError(
                        f"dependence SCC{src} -> SCC{dst} flows backward "
                        f"(stage {stage_of[src]} -> {stage_of[dst]})"
                    )

    def stage_of_scc(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, stage in enumerate(self.stages):
            for scc in stage:
                out[scc] = idx
        return out

    def assignment(self) -> dict[Instruction, int]:
        """Instruction -> stage index."""
        out: dict[Instruction, int] = {}
        for idx, stage in enumerate(self.stages):
            for scc_id in stage:
                for inst in self.dag.sccs[scc_id]:
                    out[inst] = idx
        return out

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return f"<Partition {[sorted(s) for s in self.stages]}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.stages == other.stages


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------

def estimated_scc_cycles(
    dag: DagScc,
    graph: DependenceGraph,
    profile: LoopProfile,
    latency_of,
) -> list[float]:
    """Estimated cycles per iteration spent in each SCC.

    ``latency_of(inst)`` supplies per-instruction latency; the profile
    supplies the average executions per loop iteration (Section 2.2.2).
    """
    cycles = []
    for members in dag.sccs:
        total = 0.0
        for inst in members:
            weight = profile.instruction_weight(inst)
            total += latency_of(inst) * weight
        cycles.append(total)
    return cycles


def cut_flow_count(dag: DagScc, stages: list[set[int]]) -> int:
    """Number of DAG_SCC arcs crossing stage boundaries (proxy for the
    produce/consume pairs a partition will need)."""
    stage_of: dict[int, int] = {}
    for idx, stage in enumerate(stages):
        for scc in stage:
            stage_of[scc] = idx
    count = 0
    for src, dsts in dag.edges.items():
        for dst in dsts:
            if stage_of.get(src) != stage_of.get(dst):
                count += 1
    return count


# ----------------------------------------------------------------------
# The TPP heuristic
# ----------------------------------------------------------------------

def heuristic_partition(
    dag: DagScc,
    scc_cycles: list[float],
    threads: int = 2,
) -> Partition:
    """The paper's load-balance heuristic (Section 2.2.2).

    Maintains the candidate set (SCCs whose predecessors are all
    assigned), picks the candidate with the largest estimated cycles,
    breaking ties toward candidates that reduce the current partition's
    outgoing dependences, and closes the current partition when its
    load reaches ``total / threads``.
    """
    if threads < 1:
        raise PartitionError("need at least one thread")
    n = len(dag)
    if n == 0:
        raise PartitionError("empty DAG_SCC")
    total = sum(scc_cycles)
    target = total / threads
    preds = dag.predecessors()
    unassigned_preds = {sid: len(ps) for sid, ps in preds.items()}
    candidates = {sid for sid, k in unassigned_preds.items() if k == 0}

    stages: list[set[int]] = [set()]
    current_load = 0.0

    def outgoing_reduction(sid: int) -> int:
        """How many arcs from the current partition land on ``sid``."""
        current = stages[-1]
        return sum(1 for p in preds[sid] if p in current)

    assigned = 0
    while assigned < n:
        best = max(
            sorted(candidates),
            key=lambda sid: (scc_cycles[sid], outgoing_reduction(sid), -sid),
        )
        # Close the current partition when its load reached its share,
        # or when adding the pick would overshoot the share by more
        # than not adding it undershoots (bin-packing style), as long
        # as more partitions may still be opened.
        if len(stages) < threads and stages[-1]:
            projected = current_load + scc_cycles[best]
            overshoot = projected - target
            undershoot = target - current_load
            if current_load >= target or (
                projected > target and overshoot > undershoot
            ):
                stages.append(set())
                current_load = 0.0
        candidates.discard(best)
        stages[-1].add(best)
        current_load += scc_cycles[best]
        assigned += 1
        for succ in dag.edges.get(best, ()):
            unassigned_preds[succ] -= 1
            if unassigned_preds[succ] == 0:
                candidates.add(succ)
    return Partition(dag, stages)


# ----------------------------------------------------------------------
# Exhaustive 2-way enumeration (Fig. 6(a) "best manual", Fig. 7)
# ----------------------------------------------------------------------

def enumerate_two_way_partitions(
    dag: DagScc, limit: int = 4096
) -> list[Partition]:
    """Every valid 2-stage partitioning of the DAG_SCC.

    A valid first stage is a non-empty, non-total *down-set* (closed
    under predecessors) of the DAG.  DAGs here are small (Table 1 shows
    3-36 SCCs), but ``limit`` guards against pathological inputs.
    """
    n = len(dag)
    preds = dag.predecessors()
    order = dag.topological_order()
    downsets: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()

    def extend(current: frozenset[int]) -> None:
        if len(downsets) >= limit:
            return
        for sid in order:
            if len(downsets) >= limit:
                return
            if sid in current:
                continue
            if all(p in current for p in preds[sid]):
                candidate = frozenset(current | {sid})
                if candidate not in seen and len(candidate) < n:
                    seen.add(candidate)
                    downsets.append(candidate)
                    extend(candidate)

    extend(frozenset())
    partitions = []
    for downset in sorted(downsets, key=lambda s: (len(s), sorted(s))):
        partitions.append(Partition(dag, [set(downset), set(range(n)) - set(downset)]))
    return partitions


def random_partition(dag: DagScc, rng, threads: int = 2) -> Partition:
    """A random *valid* partitioning with at most ``threads`` stages.

    Walks the DAG_SCC in topological order and places each SCC on a
    stage no earlier than all of its predecessors, so every arc flows
    forward (Definition 1).  Empty stages are dropped.  This is the
    partition-enumeration hook the differential fuzzer uses to explore
    cuts the TPP heuristic would never pick.

    Args:
        dag: The condensed dependence graph.
        rng: A ``random.Random``-like object (``randint`` is used).
        threads: Maximum number of pipeline stages.
    """
    if threads < 1:
        raise PartitionError("need at least one thread")
    preds = dag.predecessors()
    stage_of: dict[int, int] = {}
    for sid in dag.topological_order():
        earliest = max((stage_of[p] for p in preds[sid]), default=0)
        stage_of[sid] = rng.randint(earliest, threads - 1)
    stages: list[set[int]] = [set() for _ in range(threads)]
    for sid, stage in stage_of.items():
        stages[stage].add(sid)
    return Partition(dag, [s for s in stages if s])


def single_stage_partition(dag: DagScc) -> Partition:
    """The trivial partition (DSWP declined; everything in one thread)."""
    return Partition(dag, [set(range(len(dag)))])
