"""Workload characterization: the dynamic profile of each loop.

Not a paper table per se, but the evidence that the synthetic suite
exercises the behaviours Table 1's loops were chosen for: dynamic
instruction mix (loads/stores/branches), branch-mispredict rates,
L1 miss rates, and the recurrence fraction (share of dynamic
instructions inside the largest SCC -- the quantity that decides how
much of the loop is pinned to one pipeline stage).
"""

from __future__ import annotations

from repro.harness.reporting import format_table
from repro.machine.cmp import simulate
from repro.workloads import TABLE1_WORKLOADS


def test_workload_characterization(benchmark, suite, full_machine):
    def run():
        rows = []
        for workload in TABLE1_WORKLOADS:
            name = workload.name
            baseline = suite.baseline(name)
            trace = baseline.trace
            loads = sum(1 for e in trace if e.inst.is_load)
            stores = sum(1 for e in trace if e.inst.is_store)
            branches = sum(1 for e in trace if e.inst.is_branch)
            total = len(trace)
            sim = simulate([trace], full_machine)
            cache_stats = sim.cores[0].caches.stats()
            predictor = sim.cores[0].predictor
            probe = suite.dswp(name).result
            scc_sizes = {i: len(m) for i, m in enumerate(probe.dag.sccs)}
            weights = {
                i: sum(
                    baseline.profile.instruction_weight(inst)
                    for inst in members
                )
                for i, members in enumerate(probe.dag.sccs)
            }
            total_weight = sum(weights.values()) or 1.0
            recurrence_frac = max(weights.values()) / total_weight
            rows.append([
                name,
                total,
                loads / total,
                stores / total,
                branches / total,
                cache_stats["l1_miss_rate"],
                predictor.mispredict_rate,
                recurrence_frac,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Workload characterization (single-threaded runs)")
    print(format_table(
        ["loop", "dyn instrs", "load%", "store%", "branch%",
         "L1 miss", "mispredict", "largest-SCC share"],
        rows,
    ))
    # Shapes: realistic mixes (every loop has loads and branches), a
    # spread of memory behaviours (some cache-hostile, some friendly),
    # and a spread of recurrence weights (the DOALL loops near zero,
    # the recurrence-bound loops much higher).
    for row in rows:
        assert 0.0 < row[2] < 0.6      # load fraction
        assert 0.0 < row[4] < 0.5      # branch fraction
    miss_rates = [r[5] for r in rows]
    assert max(miss_rates) > 0.15 and min(miss_rates) < 0.10
    shares = [r[7] for r in rows]
    assert max(shares) > 0.4 and min(shares) < 0.3
