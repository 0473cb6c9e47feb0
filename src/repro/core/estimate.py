"""Static profitability estimation for candidate partitions.

After choosing a partitioning, the TPP step estimates whether it will
pay off by considering the cost of the produce and consume instructions
it requires (Section 2.2.2).  The thread pipeline's throughput is
limited by its slowest stage, so the estimate is::

    est_speedup = total_cycles / max_i(stage_cycles_i + flow_overhead_i)

where flow overhead charges one M-slot-ish cycle per produce/consume
occurrence per iteration (weighted by the profile weight of the flow's
source instruction).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.pdg import DependenceGraph
from repro.analysis.profiling import LoopProfile
from repro.analysis.scc import DagScc
from repro.core.flows import FlowPlan
from repro.core.partition import Partition, estimated_scc_cycles


class PartitionEstimate:
    """Estimated per-stage cycles and speedup for one partition."""

    def __init__(
        self,
        stage_cycles: list[float],
        flow_overhead: list[float],
        total_cycles: float,
    ) -> None:
        self.stage_cycles = stage_cycles
        self.flow_overhead = flow_overhead
        self.total_cycles = total_cycles

    @property
    def bottleneck(self) -> float:
        return max(
            s + f for s, f in zip(self.stage_cycles, self.flow_overhead)
        )

    @property
    def speedup(self) -> float:
        if self.bottleneck <= 0:
            return 1.0
        return self.total_cycles / self.bottleneck

    def profitable(self, threshold: float = 1.02) -> bool:
        """Is the estimated speedup worth the transformation?"""
        return self.speedup >= threshold

    def __repr__(self) -> str:
        stages = [
            f"{s:.1f}+{f:.1f}"
            for s, f in zip(self.stage_cycles, self.flow_overhead)
        ]
        return f"<Estimate stages=[{', '.join(stages)}] speedup={self.speedup:.2f}x>"


def estimate_partition(
    partition: Partition,
    dag: DagScc,
    graph: DependenceGraph,
    profile: LoopProfile,
    latency_of,
    flow_plan: FlowPlan,
    flow_cost: float = 1.0,
    scc_cycles: Optional[list[float]] = None,
) -> PartitionEstimate:
    """Estimate stage cycles and speedup for ``partition``.

    ``flow_plan`` must be the deduplicated plan for this partition (the
    splitter's planning pass), so the overhead counts real queues, not
    raw dependence arcs.  ``scc_cycles`` is
    :func:`~repro.core.partition.estimated_scc_cycles` of the same
    ``dag``, ``graph``, ``profile`` and ``latency_of``, for a caller that
    already has it; it is computed when omitted.
    """
    if scc_cycles is None:
        scc_cycles = estimated_scc_cycles(dag, graph, profile, latency_of)
    stage_cycles = [
        sum(scc_cycles[scc] for scc in stage) for stage in partition.stages
    ]
    overhead = [0.0] * len(partition)
    for flow in flow_plan.loop_flows:
        weight = profile.instruction_weight(flow.source)
        overhead[flow.src_thread] += flow_cost * weight
        overhead[flow.dst_thread] += flow_cost * weight
    total = sum(scc_cycles)
    return PartitionEstimate(stage_cycles, overhead, total)
