"""Memory dependence analysis (may-alias model).

The paper uses IMPACT's "accurate but conservative" memory analysis and
shows (Section 5.1, epicdec) how much SCC structure depends on its
precision.  We reproduce that with a region-based model in three
precision levels:

* ``CONSERVATIVE`` -- every pair of memory operations may alias (what
  earlier optimisation passes left the epicdec loop with).
* ``REGIONS`` -- operations carry symbolic region tags (``"arr:result"``,
  ``"list"``, ...); distinct tags never alias, same or missing tags may.
* ``REGIONS`` + *affine* annotations -- ops marked
  ``attrs["affine"] = True`` address ``base + f(iteration)`` with an
  injective ``f``; two affine ops in the same region with the same
  address expression alias only within an iteration (no loop-carried
  dependence), and with provably different offsets never alias.  This
  emulates the assembly-level analysis of [10] that rescues epicdec.

CALL instructions are treated as reading and writing all of memory
unless marked ``attrs["pure"] = True``.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.ir.instruction import Instruction


class AliasMode(enum.Enum):
    CONSERVATIVE = "conservative"
    REGIONS = "regions"


class AliasModel:
    """Answers may-alias and loop-carried-conflict queries."""

    def __init__(self, mode: AliasMode = AliasMode.REGIONS) -> None:
        self.mode = mode

    @classmethod
    def conservative(cls) -> "AliasModel":
        """Every memory pair may alias (pre-[10] analysis precision)."""
        return cls(AliasMode.CONSERVATIVE)

    @classmethod
    def regions(cls) -> "AliasModel":
        """Region-accurate model with affine refinement (the default)."""
        return cls(AliasMode.REGIONS)

    # ------------------------------------------------------------------
    def bucket(self, inst: Instruction) -> Optional[str]:
        """The alias bucket of a memory operation or call.

        Two operations in different non-``None`` buckets never alias.
        Calls, untagged operations and every operation under
        ``CONSERVATIVE`` are in the ``None`` bucket, which may alias
        anything.
        """
        if inst.is_call or self.mode is AliasMode.CONSERVATIVE:
            return None
        return inst.region

    def _touches_memory(self, inst: Instruction) -> bool:
        if inst.is_memory:
            return True
        return inst.is_call and not inst.attrs.get("pure", False)

    def may_alias(self, a: Instruction, b: Instruction) -> bool:
        """May ``a`` and ``b`` touch the same address (any iterations)?"""
        if not (self._touches_memory(a) and self._touches_memory(b)):
            return False
        if a.is_call or b.is_call:
            return True
        if self.mode is AliasMode.CONSERVATIVE:
            return True
        if a.region is None or b.region is None:
            return True
        if a.region != b.region:
            return False
        if self._affine_pair(a, b) and (a.imm or 0) != (b.imm or 0):
            # Same affine base expression, provably different offsets.
            if a.attrs.get("affine_base") == b.attrs.get("affine_base"):
                return False
        return True

    def conflicts_same_iteration(self, a: Instruction, b: Instruction) -> bool:
        """May ``a`` and ``b`` conflict within one loop iteration?"""
        return self.may_alias(a, b)

    def conflicts_cross_iteration(self, a: Instruction, b: Instruction) -> bool:
        """May ``a`` (iteration i) conflict with ``b`` (iteration j>i)?"""
        if not self.may_alias(a, b):
            return False
        if self.mode is AliasMode.CONSERVATIVE:
            return True
        if self._affine_pair(a, b) and a.attrs.get("affine_base") == b.attrs.get(
            "affine_base"
        ):
            # Injective per-iteration addressing: different iterations
            # touch different addresses.
            return False
        return True

    @staticmethod
    def _affine_pair(a: Instruction, b: Instruction) -> bool:
        return bool(a.attrs.get("affine")) and bool(b.attrs.get("affine"))


def writes_memory(inst: Instruction) -> bool:
    """Does ``inst`` write memory (a store or an impure call)?"""
    return inst.is_store or (inst.is_call and not inst.attrs.get("pure", False))


def needs_ordering(a: Instruction, b: Instruction) -> bool:
    """Do ``a`` then ``b`` need an ordering dependence if they alias?

    Load/load pairs never do; any pair involving a store or an impure
    call does.
    """
    return writes_memory(a) or writes_memory(b)
