"""Tests for interpreter-based loop profiling."""

import pickle

from repro.analysis.profiling import LoopProfile, profile_loop
from repro.interp.memory import Memory
from repro.ir.loops import find_loop_by_header


class TestProfileLoop:
    def test_counts_and_trips(self, counted):
        func, header, regs = counted
        memory = Memory()
        base = memory.store_array([1] * 6)
        out = memory.alloc(1)
        profile = profile_loop(
            func, find_loop_by_header(func, header), memory,
            initial_regs={regs["n"]: 6, regs["base"]: base, regs["out"]: out},
        )
        assert profile.header_trips == 7  # 6 iterations + exit test
        assert profile.block_counts["body"] == 6

    def test_block_weight_is_per_iteration(self, counted):
        func, header, regs = counted
        memory = Memory()
        base = memory.store_array([1] * 4)
        out = memory.alloc(1)
        loop = find_loop_by_header(func, header)
        profile = profile_loop(
            func, loop, memory,
            initial_regs={regs["n"]: 4, regs["base"]: base, regs["out"]: out},
        )
        assert profile.block_weight("header") == 1.0
        assert 0.7 < profile.block_weight("body") < 1.0

    def test_profiling_does_not_mutate_memory(self, counted):
        func, header, regs = counted
        memory = Memory()
        base = memory.store_array([1, 2])
        out = memory.alloc(1)
        profile_loop(
            func, find_loop_by_header(func, header), memory,
            initial_regs={regs["n"]: 2, regs["base"]: base, regs["out"]: out},
        )
        assert memory.read(out) == 0

    def test_instruction_weight(self, counted):
        func, header, regs = counted
        memory = Memory()
        base = memory.store_array([1] * 5)
        out = memory.alloc(1)
        loop = find_loop_by_header(func, header)
        profile = profile_loop(
            func, loop, memory,
            initial_regs={regs["n"]: 5, regs["base"]: base, regs["out"]: out},
        )
        load = next(i for i in loop.instructions() if i.is_load)
        assert profile.instruction_weight(load) == profile.block_weight("body")
        # Instructions outside the loop weigh nothing.
        store = func.block("exit").instructions[0]
        assert profile.instruction_weight(store) == 0.0


class TestUniformProfile:
    def test_uniform_weights(self, counted):
        func, header, _ = counted
        loop = find_loop_by_header(func, header)
        profile = LoopProfile.uniform(loop)
        assert profile.block_weight("header") == 1.0
        assert profile.block_weight("body") == 1.0
        assert profile.block_weight("not_in_loop") == 0.0


class TestPickledProfile:
    def test_weight_lookups_leave_the_pickled_bytes_unchanged(self, counted):
        """The instruction -> weight map is derived state: it never
        reaches the pickle, so a stored profile has the same bytes
        whether or not it was used."""
        func, header, _ = counted
        loop = find_loop_by_header(func, header)
        profile = LoopProfile({"header": 5, "body": 4}, 5, loop)
        before = pickle.dumps(profile)
        load = next(i for i in loop.instructions() if i.is_load)
        assert profile.instruction_weight(load) == 0.8
        assert pickle.dumps(profile) == before

    def test_unpickled_profile_weighs_its_own_copy_of_the_loop(self, counted):
        func, header, _ = counted
        loop = find_loop_by_header(func, header)
        profile = LoopProfile({"header": 5, "body": 4}, 5, loop)
        profile.instruction_weight(loop.instructions()[0])
        copy = pickle.loads(pickle.dumps(profile))
        load = next(i for i in copy.loop.instructions() if i.is_load)
        assert copy.instruction_weight(load) == 0.8
        # The original's instructions are foreign to the copy.
        original = next(i for i in loop.instructions() if i.is_load)
        assert copy.instruction_weight(original) == 0.0
