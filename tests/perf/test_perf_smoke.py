"""Bounded perf-smoke tier (``-m perf_smoke``).

Differential guardrails for the performance layer: the predecoded
interpreter and the columnar trace format must stay *functionally
identical* to the preserved reference implementations on the fuzz
generator's seeded loops (irregular control flow, random operand
shapes -- a much nastier population than the curated workloads), and
the event-driven timing model must reproduce the reference timing
model cycle-for-cycle on those traces.  The bit-vector, alias-bucketed
dependence-graph builder must match the reference builder
(``tests/analysis/reference_pdg.py``) arc for arc, in order.

The tier is bounded (fixed seeds, small loop bounds) so it runs inside
the normal test suite; deselect with ``-m 'not perf_smoke'``.
"""

import pytest

from repro.analysis.memdep import AliasModel
from repro.analysis.pdg import build_dependence_graph
from repro.fuzz.generator import generate_case
from repro.interp.interpreter import run_function
from repro.interp.predecode import predecode
from repro.interp.reference import run_function_reference
from repro.interp.trace import ColumnarTrace
from repro.machine.cmp import simulate
from repro.ir.loops import find_loops
from repro.machine.config import HALF_WIDTH_MACHINE, MachineConfig
from repro.machine.reference import simulate_reference
from repro.workloads import ALL_WORKLOADS
from tests.analysis.reference_pdg import build_reference_graph
from tests.conftest import LARGE_SHAPE

#: Fixed generator seeds: deterministic, structurally diverse loops.
SEEDS = tuple(range(12))

MAX_STEPS = 2_000_000

pytestmark = pytest.mark.perf_smoke


def _runs(seed):
    case = generate_case(seed)
    fast = run_function(
        case.function, case.fresh_memory(), initial_regs=case.initial_regs,
        max_steps=MAX_STEPS, record_trace=True, record_profile=True,
    )
    ref = run_function_reference(
        case.function, case.fresh_memory(), initial_regs=case.initial_regs,
        max_steps=MAX_STEPS, record_trace=True, record_profile=True,
    )
    return case, fast, ref


@pytest.mark.parametrize("seed", SEEDS)
def test_predecoded_interpreter_matches_reference(seed):
    case, fast, ref = _runs(seed)
    assert fast.regs == ref.regs
    assert fast.steps == ref.steps
    assert fast.block_counts == ref.block_counts
    assert fast.memory.snapshot() == ref.memory.snapshot()
    for reg in case.live_outs:
        assert fast.reg(reg) == ref.reg(reg)


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_trace_matches_reference_trace(seed):
    _, fast, ref = _runs(seed)
    assert isinstance(fast.trace, ColumnarTrace)
    assert len(fast.trace) == len(ref.trace)
    for got, want in zip(fast.trace, ref.trace):
        assert got.inst is want.inst
        assert got.addr == want.addr
        assert got.taken == want.taken
        assert got.block == want.block


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_timing_model_matches_reference_on_fuzz_traces(seed):
    _, fast, ref = _runs(seed)
    for machine in (MachineConfig(), HALF_WIDTH_MACHINE):
        new_sim = simulate([fast.trace], machine)
        old_sim = simulate_reference([ref.trace], machine, burst=1 << 30)
        assert new_sim.cycles == old_sim.cycles
        assert new_sim.ipcs() == old_sim.ipcs()


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_predecode_reuse_is_pure(seed):
    # Reusing one DecodedFunction across runs (the cache's fast path)
    # must not leak state between executions.
    case = generate_case(seed)
    decoded = predecode(case.function)
    first = run_function(
        case.function, case.fresh_memory(), initial_regs=case.initial_regs,
        max_steps=MAX_STEPS, decoded=decoded,
    )
    second = run_function(
        case.function, case.fresh_memory(), initial_regs=case.initial_regs,
        max_steps=MAX_STEPS, decoded=decoded,
    )
    assert first.regs == second.regs
    assert first.steps == second.steps
    assert first.memory.snapshot() == second.memory.snapshot()


# ----------------------------------------------------------------------
# Dependence graph vs the reference builder
# ----------------------------------------------------------------------

ALIAS_MODELS = {"regions": AliasModel.regions,
                "conservative": AliasModel.conservative}


def _pdg_loops():
    """Every loop of the registered workloads, 200 default-shape and 20
    large-shape generated loops."""
    for workload in ALL_WORKLOADS:
        function = workload.build(scale=20).function
        for loop in find_loops(function):
            yield f"{workload.name}/{loop.header}", function, loop
    for seed in range(200):
        case = generate_case(seed)
        yield f"gen-{seed}", case.function, case.loop
    for seed in range(20):
        case = generate_case(seed, LARGE_SHAPE)
        yield f"gen-large-{seed}", case.function, case.loop


def _graph_view(graph) -> tuple:
    return (
        [(a.src, a.dst, a.kind, a.register, a.loop_carried, a.conditional)
         for a in graph.arcs],
        graph.nodes,
        graph.live_in_uses,
        list(graph.live_out_defs.items()),
    )


@pytest.mark.parametrize("model", sorted(ALIAS_MODELS))
def test_dependence_graph_matches_reference_builder(model):
    alias_model = ALIAS_MODELS[model]()
    checked, mismatched = 0, []
    for name, function, loop in _pdg_loops():
        got = build_dependence_graph(function, loop, alias_model)
        want = build_reference_graph(function, loop, alias_model)
        checked += 1
        if _graph_view(got) != _graph_view(want):
            mismatched.append(name)
    assert checked >= 236
    assert mismatched == []
