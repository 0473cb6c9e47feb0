"""Dynamic-trace records emitted by the interpreters.

The timing model (:mod:`repro.machine`) replays these: it needs the
instruction (for opcode/operands/latency class), the effective memory
address for cache simulation, the branch outcome for the predictor, and
the queue id for produce/consume handshakes.

Two representations exist:

* :class:`TraceEntry` -- the legacy object form, one heap object per
  dynamic instruction.  Still accepted everywhere (tests build traces
  from literal entries) and still produced on demand as a *view*.
* :class:`ColumnarTrace` -- the native format the interpreters emit.
  A dynamic trace revisits a small set of *static* instructions, so the
  per-entry payload is three parallel columns (static id, effective
  address, branch outcome) stored in compact ``array`` buffers, plus a
  shared table of :class:`StaticOp` records carrying the per-site
  constants (instruction, block label, ``root().uid``).  This cuts the
  memory and allocation cost of a trace by roughly an order of
  magnitude versus a list of :class:`TraceEntry` objects, and lets the
  timing model index plain integer/array columns in its hot loop.

``as_columnar`` normalises either representation, so consumers written
against one format keep working with the other.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Union

from repro.ir.instruction import Instruction

#: Sentinel for "no effective address" in the address column.  Chosen at
#: the edge of the signed-64-bit range ``array('q')`` can store; real
#: addresses that fall outside int64 entirely are kept in a side table.
NO_ADDR = -(1 << 63)

#: Branch-outcome encoding in the ``takens`` column.
TAKEN_NONE = -1
TAKEN_FALSE = 0
TAKEN_TRUE = 1


class TraceEntry:
    """One executed dynamic instruction (object view).

    ``root_uid`` caches ``inst.root().uid`` -- the stable identity the
    branch predictor and the warm-up pass key on -- so replaying a
    branch does not walk the ``origin`` chain per dynamic instance.
    """

    __slots__ = ("inst", "addr", "taken", "block", "root_uid")

    def __init__(
        self,
        inst: Instruction,
        addr: Optional[int] = None,
        taken: Optional[bool] = None,
        block: Optional[str] = None,
        root_uid: Optional[int] = None,
    ) -> None:
        self.inst = inst
        self.addr = addr
        self.taken = taken
        self.block = block
        self.root_uid = inst.root().uid if root_uid is None else root_uid

    def __repr__(self) -> str:
        extra = []
        if self.addr is not None:
            extra.append(f"addr={self.addr:#x}")
        if self.taken is not None:
            extra.append(f"taken={self.taken}")
        suffix = f" [{' '.join(extra)}]" if extra else ""
        return f"<T {self.inst.render()}{suffix}>"


class StaticOp:
    """Per-static-instruction constants shared by all dynamic instances."""

    __slots__ = ("inst", "block", "root_uid", "sid")

    def __init__(self, inst: Instruction, block: Optional[str], sid: int) -> None:
        self.inst = inst
        self.block = block
        self.root_uid = inst.root().uid
        self.sid = sid

    def __repr__(self) -> str:
        return f"<S{self.sid} {self.inst.render()} @{self.block}>"


class ColumnarTrace:
    """Columnar dynamic trace: parallel columns over a static-op table.

    Columns (all aligned, one element per dynamic instruction):

    * ``sids``   -- index into :attr:`statics` (``array('i')``);
    * ``addrs``  -- effective address or :data:`NO_ADDR` (``array('q')``);
    * ``takens`` -- branch outcome (:data:`TAKEN_NONE` /
      :data:`TAKEN_FALSE` / :data:`TAKEN_TRUE`, ``array('b')``).

    Indexing and iteration materialise :class:`TraceEntry` views on
    demand, so code written against the legacy object format (tests,
    the sharing analysis, repr in error messages) keeps working.
    """

    __slots__ = ("statics", "sids", "addrs", "takens", "_addr_overflow",
                 "_sid_index", "__weakref__")

    def __init__(self, statics: Optional[list[StaticOp]] = None) -> None:
        #: Static-op table; append-only, may be shared with a decoder.
        self.statics: list[StaticOp] = statics if statics is not None else []
        self.sids = array("i")
        self.addrs = array("q")
        self.takens = array("b")
        #: Addresses outside the int64 range (pathological fuzz values).
        self._addr_overflow: dict[int, int] = {}
        #: Interning map for :meth:`intern` -- (inst uid, block) -> sid.
        self._sid_index: dict[tuple[int, Optional[str]], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def intern(self, inst: Instruction, block: Optional[str]) -> int:
        """Return the static id for ``inst`` executing in ``block``."""
        key = (inst.uid, block)
        sid = self._sid_index.get(key)
        if sid is None:
            sid = len(self.statics)
            self.statics.append(StaticOp(inst, block, sid))
            self._sid_index[key] = sid
        return sid

    def append_plain(self, sid: int) -> None:
        self.sids.append(sid)
        self.addrs.append(NO_ADDR)
        self.takens.append(TAKEN_NONE)

    def append_mem(self, sid: int, addr: int) -> None:
        self.sids.append(sid)
        try:
            self.addrs.append(addr)
        except OverflowError:
            self._addr_overflow[len(self.sids) - 1] = addr
            self.addrs.append(NO_ADDR)
        self.takens.append(TAKEN_NONE)

    def append_br(self, sid: int, taken: bool) -> None:
        self.sids.append(sid)
        self.addrs.append(NO_ADDR)
        self.takens.append(TAKEN_TRUE if taken else TAKEN_FALSE)

    def append_entry(self, entry: TraceEntry) -> None:
        """Append a legacy object entry (interning its instruction)."""
        sid = self.intern(entry.inst, entry.block)
        if entry.taken is not None:
            self.append_br(sid, entry.taken)
        elif entry.addr is not None:
            self.append_mem(sid, entry.addr)
        else:
            self.append_plain(sid)

    @classmethod
    def from_entries(cls, entries: "TraceLike") -> "ColumnarTrace":
        """Build a columnar trace from any iterable of entries."""
        if isinstance(entries, ColumnarTrace):
            return entries
        trace = cls()
        for entry in entries:
            trace.append_entry(entry)
        return trace

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def addr_at(self, index: int) -> Optional[int]:
        addr = self.addrs[index]
        if addr == NO_ADDR:
            return self._addr_overflow.get(index)
        return addr

    def taken_at(self, index: int) -> Optional[bool]:
        taken = self.takens[index]
        if taken == TAKEN_NONE:
            return None
        return bool(taken)

    def static_at(self, index: int) -> StaticOp:
        return self.statics[self.sids[index]]

    # ------------------------------------------------------------------
    # Object view
    # ------------------------------------------------------------------
    def entry(self, index: int) -> TraceEntry:
        static = self.statics[self.sids[index]]
        return TraceEntry(
            static.inst,
            addr=self.addr_at(index),
            taken=self.taken_at(index),
            block=static.block,
            root_uid=static.root_uid,
        )

    def __len__(self) -> int:
        return len(self.sids)

    def __bool__(self) -> bool:
        return bool(self.sids)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TraceEntry, list[TraceEntry]]:
        if isinstance(index, slice):
            return [self.entry(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        return self.entry(index)

    def __iter__(self) -> Iterator[TraceEntry]:
        for i in range(len(self.sids)):
            yield self.entry(i)

    def to_entries(self) -> list[TraceEntry]:
        """Materialise the legacy object form (tests, debugging)."""
        return [self.entry(i) for i in range(len(self))]

    def column_bytes(self) -> tuple[bytes, bytes, bytes]:
        """The three columns as raw buffers ``(sids, addrs, takens)``.

        :func:`~repro.machine.fingerprint.trace_digest` hashes these:
        they are the bulk of a trace's content, and their bytes are the
        same in every process that recorded the same execution.
        """
        return (self.sids.tobytes(), self.addrs.tobytes(),
                self.takens.tobytes())

    def __repr__(self) -> str:
        return (f"<ColumnarTrace {len(self)} entries over "
                f"{len(self.statics)} static ops>")


#: Anything the timing model accepts as one thread's trace.
TraceLike = Union[ColumnarTrace, list]


def as_columnar(trace: TraceLike) -> ColumnarTrace:
    """Normalise a trace to the columnar representation."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_entries(trace)


#: Legacy alias: a thread trace used to be a plain list[TraceEntry].
Trace = list
