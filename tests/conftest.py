"""Shared fixtures: canonical IR functions used across the test suite."""

from __future__ import annotations

import pytest

from repro.fuzz.generator import GeneratorConfig
from repro.interp.memory import Memory
from repro.ir.builder import IRBuilder
from repro.ir.types import gen_reg, pred_reg

#: The fuzz generator's large loop shape (8-16 segments, ~150-330
#: instructions), the shape of the benchmark corpus's fixed tail.
LARGE_SHAPE = GeneratorConfig(min_segments=8, max_segments=16,
                              max_straight_stmts=8, max_branch_stmts=6,
                              min_data_regs=8, max_data_regs=12)


def build_list_of_lists():
    """The paper's Fig. 2(a) loop: sum a list of lists.

    Returns (function, outer-loop header label, registers dict).
    """
    b = IRBuilder("lol")
    r0, r1, r2, r3 = gen_reg(0), gen_reg(1), gen_reg(2), gen_reg(3)
    r_out = gen_reg(4)
    p1, p2 = pred_reg(1), pred_reg(2)
    b.block("entry", entry=True)
    b.mov(r0, imm=0)
    b.jmp("BB2")
    b.block("BB2")
    b.cmp_eq(p1, r1, imm=0)
    b.br(p1, "BB7", "BB3")
    b.block("BB3")
    b.load(r2, r1, offset=2, region="outer")
    b.jmp("BB4")
    b.block("BB4")
    b.cmp_eq(p2, r2, imm=0)
    b.br(p2, "BB6", "BB5")
    b.block("BB5")
    b.load(r3, r2, offset=3, region="inner")
    b.add(r0, r0, r3)
    b.load(r2, r2, offset=0, region="inner")
    b.jmp("BB4")
    b.block("BB6")
    b.load(r1, r1, offset=1, region="outer")
    b.jmp("BB2")
    b.block("BB7")
    b.store(r0, r_out, offset=0, region="result")
    b.ret()
    func = b.done()
    regs = {"sum": r0, "outer": r1, "inner": r2, "val": r3, "out": r_out,
            "p_outer": p1, "p_inner": p2}
    return func, "BB2", regs


def build_list_of_lists_memory(rng, count=20):
    """Memory image for the Fig. 2 loop; returns (memory, head, out, total)."""
    memory = Memory()
    total = 0
    inner_heads = []
    for _ in range(count):
        values = [rng.randrange(100) for _ in range(rng.randrange(1, 6))]
        total += sum(values)
        nodes = [memory.alloc(4) for _ in values]
        for addr, value in zip(nodes, values):
            memory.write(addr + 3, value)
        for cur, nxt in zip(nodes, nodes[1:]):
            memory.write(cur, nxt)
        memory.write(nodes[-1], 0)
        inner_heads.append(nodes[0])
    outer = [memory.alloc(4) for _ in inner_heads]
    for addr, inner in zip(outer, inner_heads):
        memory.write(addr + 2, inner)
    for cur, nxt in zip(outer, outer[1:]):
        memory.write(cur + 1, nxt)
    memory.write(outer[-1] + 1, 0)
    out_addr = memory.alloc(1)
    return memory, outer[0], out_addr, total


def build_counted_loop(n=10):
    """A simple counted loop: sum += arr[i] for i in range(n).

    Returns (function, header label, regs dict).
    """
    b = IRBuilder("counted")
    r_i, r_n, r_base, r_acc, r_v, r_addr, r_out = (
        gen_reg(0), gen_reg(1), gen_reg(2), gen_reg(3), gen_reg(4),
        gen_reg(5), gen_reg(6),
    )
    p = pred_reg(0)
    b.block("entry", entry=True)
    b.mov(r_i, imm=0)
    b.mov(r_acc, imm=0)
    b.jmp("header")
    b.block("header")
    b.cmp_ge(p, r_i, r_n)
    b.br(p, "exit", "body")
    b.block("body")
    b.add(r_addr, r_base, r_i)
    b.load(r_v, r_addr, offset=0, region="arr",
           attrs={"affine": True, "affine_base": "arr"})
    b.add(r_acc, r_acc, r_v)
    b.add(r_i, r_i, imm=1)
    b.jmp("header")
    b.block("exit")
    b.store(r_acc, r_out, offset=0, region="result")
    b.ret()
    func = b.done()
    regs = {"i": r_i, "n": r_n, "base": r_base, "acc": r_acc, "out": r_out}
    return func, "header", regs


@pytest.fixture
def lol():
    return build_list_of_lists()


@pytest.fixture
def counted():
    return build_counted_loop()
