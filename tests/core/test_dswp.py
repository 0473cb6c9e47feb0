"""Tests for the top-level DSWP driver (the Fig. 3 algorithm)."""

import pytest

from repro.analysis.pdg import build_dependence_graph
from repro.analysis.profiling import LoopProfile
from repro.core.dswp import dswp
from repro.core.partition import Partition
from repro.fuzz.generator import generate_case
from repro.ir.builder import IRBuilder
from repro.ir.loops import find_loop_by_header
from repro.ir.printer import render_function
from repro.ir.types import Opcode
from repro.ir.verifier import verify_function
from repro.workloads import GzipWorkload, WcWorkload
from tests.conftest import LARGE_SHAPE


class TestDecline:
    def test_single_scc_loop_declined(self):
        """Step (3): a single-SCC graph is not partitionable (gzip)."""
        case = GzipWorkload().build(scale=64)
        result = dswp(case.function, case.loop, require_profitable=False)
        assert not result.applied
        assert "single SCC" in result.reason
        assert result.num_sccs == 1
        with pytest.raises(ValueError):
            _ = result.program

    def test_unprofitable_partition_declined(self, lol):
        """Step (6): an estimated slowdown declines the transformation."""
        func, header, _ = lol
        result = dswp(func, find_loop_by_header(func, header),
                      require_profitable=True, profit_threshold=1e9)
        assert not result.applied
        assert "below threshold" in result.reason
        assert result.estimate is not None

    def test_function_without_loops_raises(self):
        b = IRBuilder("flat")
        b.block("entry", entry=True)
        b.ret()
        with pytest.raises(ValueError, match="no loops"):
            dswp(b.done())


class TestApply:
    def test_applied_result_contents(self, lol):
        func, header, _ = lol
        result = dswp(func, find_loop_by_header(func, header),
                      require_profitable=False)
        assert result.applied
        assert result.reason is None
        assert result.num_sccs == 5
        assert len(result.program) == 2
        assert result.estimate is not None
        counts = result.flow_counts()
        assert counts["loop"] >= 1

    def test_original_function_untouched(self, lol):
        func, header, _ = lol
        before = func.render()
        dswp(func, find_loop_by_header(func, header), require_profitable=False)
        assert func.render() == before

    def test_threads_verify(self, lol):
        func, header, _ = lol
        result = dswp(func, find_loop_by_header(func, header),
                      require_profitable=False)
        for fn in result.program.threads:
            verify_function(fn)

    def test_defaults_to_largest_loop(self, lol):
        func, header, _ = lol
        result = dswp(func, require_profitable=False)
        assert result.loop.header == header

    def test_explicit_partition_used(self, lol):
        func, header, _ = lol
        probe = dswp(func, find_loop_by_header(func, header),
                     require_profitable=False)
        dag = probe.dag
        manual = Partition(dag, [{0}, set(range(1, len(dag)))])
        result = dswp(func, find_loop_by_header(func, header),
                      partition=manual, require_profitable=False)
        assert result.partition is manual

    def test_flow_counts_zero_when_declined(self):
        case = GzipWorkload().build(scale=64)
        result = dswp(case.function, case.loop, require_profitable=False)
        assert result.flow_counts() == {"initial": 0, "loop": 0, "final": 0}

    def test_queue_instructions_only_in_transformed_code(self, lol):
        func, header, _ = lol
        result = dswp(func, find_loop_by_header(func, header),
                      require_profitable=False)
        for fn in result.program.threads:
            flows = [i for i in fn.instructions() if i.is_flow]
            assert flows, f"{fn.name} should contain produce/consume"
            assert all(i.queue is not None for i in flows)

    def test_repr(self, lol):
        func, header, _ = lol
        result = dswp(func, find_loop_by_header(func, header),
                      require_profitable=False)
        assert "applied" in repr(result)


class TestProfileOwnership:
    """A profile weighs its own loop's instructions by identity, so one
    taken on another build or another loop would weigh every
    instruction 0.0; ``dswp`` refuses it instead of silently
    partitioning by an all-zero profile."""

    def test_profile_of_another_build_raises(self):
        mine = WcWorkload().build(scale=20)
        other = WcWorkload().build(scale=20)
        foreign = LoopProfile.uniform(other.loop)
        with pytest.raises(ValueError, match="another"):
            dswp(mine.function, mine.loop, profile=foreign,
                 require_profitable=False)

    def test_profile_of_another_loop_raises(self, lol):
        func, header, _ = lol
        inner = LoopProfile.uniform(find_loop_by_header(func, "BB4"))
        with pytest.raises(ValueError, match="BB4"):
            dswp(func, find_loop_by_header(func, header), profile=inner,
                 require_profitable=False)


def _positions(function) -> dict:
    return {inst: (block.label, index)
            for block in function.blocks()
            for index, inst in enumerate(block)}


def _arc_list(function, loop) -> list[tuple]:
    pos = _positions(function)
    return [(pos[a.src], pos[a.dst], a.kind, a.register, a.loop_carried,
             a.conditional)
            for a in build_dependence_graph(function, loop).arcs]


def _programs(function, loop) -> list:
    out = []
    for threads in (2, 3, 4):
        result = dswp(function, loop, threads=threads,
                      require_profitable=False)
        out.append([render_function(fn) for fn in result.program.threads]
                   if result.applied else result.reason)
    return out


#: Generated loops where several definitions or branches meet at one
#: site, so visiting a set of instructions in address order would
#: reorder arcs and renumber queues.
DETERMINISM_CASES = (
    [(seed, False) for seed in (*range(40), 305, 1643, 1862)]
    + [(seed, True) for seed in (0, 3, 5)]
)


class TestDeterminism:
    """Two builds of the same code compile to the same pipeline: the
    dependence graph visits definitions and branches in uid order, not
    in the memory-address order of a set of instructions."""

    @pytest.mark.parametrize("seed,large", DETERMINISM_CASES)
    def test_two_builds_compile_identically(self, seed, large):
        shape = LARGE_SHAPE if large else None
        # Both builds stay alive, so their instructions sit at
        # different addresses.
        first = generate_case(seed, shape)
        second = generate_case(seed, shape)
        assert (_arc_list(first.function, first.loop)
                == _arc_list(second.function, second.loop))
        assert (_programs(first.function, first.loop)
                == _programs(second.function, second.loop))
