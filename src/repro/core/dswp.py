"""The DSWP driver: the algorithm of Fig. 3, end to end.

::

    DSWP(loop L)
      (1) G        <- build dependence graph(L)
      (2) SCCs     <- find strongly connected components(G)
      (3) if |SCCs| = 1 then return
      (4) DAG_SCC  <- coalesce SCCs(G, SCCs)
      (5) P        <- TPP algorithm(DAG_SCC, L)
      (6) if |P| = 1 then return
      (7) split code into loops(L, P)
      (8) insert necessary flows(L, P)

:func:`dswp` runs all eight steps and returns a :class:`DSWPResult`
either holding the transformed :class:`ThreadProgram` or explaining why
the transformation was declined (single SCC, or estimated
unprofitability), which the Table-1 and case-study benchmarks report.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.memdep import AliasModel
from repro.analysis.pdg import DependenceGraph, build_dependence_graph
from repro.analysis.profiling import LoopProfile
from repro.analysis.scc import DagScc
from repro.core.estimate import PartitionEstimate, estimate_partition
from repro.core.flows import FlowPlan
from repro.core.partition import (
    Partition,
    estimated_scc_cycles,
    heuristic_partition,
)
from repro.core.splitter import LoopSplitter, SplitResult
from repro.interp.multithread import ThreadProgram
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.loops import Loop, find_loops
from repro.ir.verifier import verify_function
from repro.machine.config import static_latency


class DSWPResult:
    """Outcome of running DSWP on one loop."""

    def __init__(
        self,
        function: Function,
        loop: Loop,
        graph: DependenceGraph,
        dag: DagScc,
        applied: bool,
        reason: Optional[str] = None,
        partition: Optional[Partition] = None,
        estimate: Optional[PartitionEstimate] = None,
        split: Optional[SplitResult] = None,
    ) -> None:
        self.function = function
        self.loop = loop
        self.graph = graph
        self.dag = dag
        self.applied = applied
        self.reason = reason
        self.partition = partition
        self.estimate = estimate
        self._split = split

    @property
    def program(self) -> ThreadProgram:
        if self._split is None:
            raise ValueError(f"DSWP was not applied: {self.reason}")
        return self._split.program

    @property
    def flow_plan(self) -> FlowPlan:
        if self._split is None:
            raise ValueError(f"DSWP was not applied: {self.reason}")
        return self._split.flow_plan

    @property
    def num_sccs(self) -> int:
        return len(self.dag)

    def flow_counts(self) -> dict[str, int]:
        """Initial/loop/final flow counts (Table 1's last columns)."""
        if self._split is None:
            return {"initial": 0, "loop": 0, "final": 0}
        return self.flow_plan.counts()

    def __repr__(self) -> str:
        state = "applied" if self.applied else f"declined ({self.reason})"
        return f"<DSWP {self.function.name}/{self.loop.header}: {state}>"


def dswp(
    function: Function,
    loop: Optional[Loop] = None,
    threads: int = 2,
    alias_model: Optional[AliasModel] = None,
    profile: Optional[LoopProfile] = None,
    latency_of: Callable[[Instruction], float] = static_latency,
    partition: Optional[Partition] = None,
    queue_limit: int = 256,
    require_profitable: bool = True,
    profit_threshold: float = 1.02,
    graph_transform: Optional[Callable[[DependenceGraph], None]] = None,
) -> DSWPResult:
    """Apply DSWP to ``loop`` (default: the largest loop of ``function``).

    Args:
        function: The function containing the loop.  It is not
            modified; the result holds fresh per-thread functions.
        loop: Target loop; must have a unique preheader.
        threads: Maximum pipeline stages (``t`` in Definition 1).
        alias_model: Memory analysis precision (default: region-based).
        profile: Execution profile of ``loop``; uniform weights if
            omitted.  A profile of another loop, or of the same loop in
            another build of the function, raises ``ValueError``: its
            instructions would all weigh 0.0.
        latency_of: Per-instruction latency estimate for the heuristic.
        partition: Use this partition instead of the TPP heuristic
            (the "manually directed" mode of Fig. 6(a)).
        queue_limit: Synchronization-array queue budget.
        require_profitable: Decline the transformation when the static
            estimate sees no speedup (Fig. 3 line 6).  The estimate is
            still attached to the result when a partition was given.
        profit_threshold: Minimum estimated speedup to proceed.
        graph_transform: Optional mutation applied to the freshly built
            dependence graph before SCC condensation.  Used by the
            differential fuzzer's fault injector to emulate splitter
            bugs (dropped cross-thread dependence arcs); never set on
            correctness-critical paths.
    """
    if loop is None:
        loops = find_loops(function)
        if not loops:
            raise ValueError(f"{function.name} contains no loops")
        loop = loops[0]
    if profile is not None:
        if profile.loop.function is not function:
            raise ValueError(
                f"profile belongs to another {profile.loop.function.name} "
                "function object; its instructions would all weigh 0.0"
            )
        if profile.loop.header != loop.header:
            raise ValueError(
                f"profile belongs to loop {profile.loop.header}, "
                f"not {loop.header}"
            )
    for other in find_loops(function):
        if other.header != loop.header and loop.body < other.body:
            # The loop is entered once per iteration of an enclosing
            # loop; the single-shot thread pipeline built here would
            # desynchronise on the second entry.  The master-queue
            # runtime (repro.core.program.dswp_program) handles this
            # case, exactly as Section 3 of the paper prescribes.
            graph = build_dependence_graph(function, loop, alias_model)
            return DSWPResult(
                function, loop, graph, graph.dag_scc(), applied=False,
                reason=(
                    "loop is nested inside another loop (re-entered); "
                    "use dswp_program's master-queue runtime"
                ),
            )
    graph = build_dependence_graph(function, loop, alias_model)
    if graph_transform is not None:
        graph_transform(graph)
    dag = graph.dag_scc()
    if len(dag) <= 1:
        return DSWPResult(
            function, loop, graph, dag, applied=False,
            reason="dependence graph has a single SCC",
        )
    profile = profile or LoopProfile.uniform(loop)
    scc_cycles = estimated_scc_cycles(dag, graph, profile, latency_of)
    if partition is None:
        partition = heuristic_partition(dag, scc_cycles, threads=threads)
    if len(partition) <= 1:
        return DSWPResult(
            function, loop, graph, dag, applied=False,
            reason="heuristic produced a single partition",
            partition=partition,
        )

    splitter = LoopSplitter(function, loop, graph, partition, queue_limit)
    split = splitter.split()
    estimate = estimate_partition(
        partition, dag, graph, profile, latency_of, split.flow_plan,
        scc_cycles=scc_cycles,
    )
    if require_profitable and not estimate.profitable(profit_threshold):
        return DSWPResult(
            function, loop, graph, dag, applied=False,
            reason=f"estimated speedup {estimate.speedup:.2f}x below threshold",
            partition=partition, estimate=estimate,
        )
    for fn in split.program.threads:
        verify_function(fn)
    return DSWPResult(
        function, loop, graph, dag, applied=True,
        partition=partition, estimate=estimate, split=split,
    )
