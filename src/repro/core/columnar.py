"""Struct-of-arrays event batches for the columnar fast path.

Interpreting one Python tuple per event spends most of the engine's
steady-state time on tuple allocation and the per-element object
protocol.  :class:`EventColumns` stores the compact-event stream as six
parallel integer columns (``array('q')``/``array('b')``) so the
engine's code-generated dispatch kernel (:mod:`repro.core.fastpath`) can
iterate over raw machine integers via ``memoryview``s — no per-event
allocation on the hit path.

The format is lossless with respect to the compact tuple wire format
(:mod:`repro.core.events`).  Column layout per opcode:

======================  ========  =========  ========  ========  ======
opcode                  thread    callsite   caller    callee    kind
======================  ========  =========  ========  ========  ======
``EV_CALL``             thread    callsite   caller    callee    kind
``EV_RETURN``           thread    0          0         0         0
``EV_SAMPLE``           thread    0          0         0         0
``EV_THREAD_START``     thread    0          parent    entry     0
``EV_THREAD_EXIT``      thread    0          0         0         0
``EV_LIBRARY_LOAD``     thread    lib index  0         0         0
======================  ========  =========  ========  ========  ======

``EV_LIBRARY_LOAD`` carries a string payload; the name is interned in a
side table (``_libraries``) and the callsite column stores its index, so
round-tripping through columns reproduces the original tuple exactly.

Batches are reusable: producers preallocate once (``with_capacity``),
fill via the ``push_*`` mutators, hand the batch to
``DacceEngine.process_columns``, then ``clear()`` and refill.  ``clear``
resets the logical length without releasing storage, so a long-lived
tracer buffer never reallocates.  While the engine holds the batch's
``memoryview``s the arrays must not grow; ``process_columns`` releases
its views before returning.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Tuple

from .events import (
    EV_CALL,
    EV_LIBRARY_LOAD,
    EV_RETURN,
    EV_SAMPLE,
    EV_THREAD_EXIT,
    EV_THREAD_START,
    OPCODE_ARITY,
    CompactEvent,
)

#: The trimmed column views handed to the dispatch kernel:
#: ``(op, thread, callsite, caller, callee, kind)``.
ColumnViews = Tuple[
    "memoryview", "memoryview", "memoryview", "memoryview", "memoryview", "memoryview"
]


class EventColumns:
    """A struct-of-arrays batch of compact events (see module docs)."""

    __slots__ = (
        "op",
        "thread",
        "callsite",
        "caller",
        "callee",
        "kind",
        "_libraries",
        "_n",
    )

    def __init__(self, capacity: int = 0) -> None:
        zeros_b = bytes(capacity)
        zeros_q = array("q", bytes(8 * capacity)) if capacity else array("q")
        self.op: array[int] = array("b", zeros_b)
        self.thread: array[int] = array("q", zeros_q)
        self.callsite: array[int] = array("q", zeros_q)
        self.caller: array[int] = array("q", zeros_q)
        self.callee: array[int] = array("q", zeros_q)
        self.kind: array[int] = array("b", zeros_b)
        self._libraries: List[str] = []
        self._n = 0

    @classmethod
    def with_capacity(cls, capacity: int) -> "EventColumns":
        """A reusable batch preallocated for ``capacity`` events."""
        return cls(capacity)

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        """Events the batch can hold before its arrays grow."""
        return len(self.op)

    def clear(self) -> None:
        """Reset the logical length; storage is retained for reuse."""
        self._n = 0
        if self._libraries:
            del self._libraries[:]

    # ------------------------------------------------------------------
    # mutators
    # ------------------------------------------------------------------
    def _slot(self) -> int:
        """Index of the next write slot, growing the arrays if full."""
        i = self._n
        if i >= len(self.op):
            self.op.append(0)
            self.thread.append(0)
            self.callsite.append(0)
            self.caller.append(0)
            self.callee.append(0)
            self.kind.append(0)
        self._n = i + 1
        return i

    def push_call(
        self,
        thread: int,
        callsite: int,
        caller: int,
        callee: int,
        kind: int = 0,
    ) -> None:
        """Append an ``EV_CALL`` event."""
        i = self._slot()
        self.op[i] = EV_CALL
        self.thread[i] = thread
        self.callsite[i] = callsite
        self.caller[i] = caller
        self.callee[i] = callee
        self.kind[i] = kind

    def push_return(self, thread: int) -> None:
        """Append an ``EV_RETURN`` event."""
        i = self._slot()
        self.op[i] = EV_RETURN
        self.thread[i] = thread
        self.callsite[i] = 0
        self.caller[i] = 0
        self.callee[i] = 0
        self.kind[i] = 0

    def push(self, record: CompactEvent) -> None:
        """Append one compact tuple of any opcode (lossless)."""
        op = record[0]
        i = self._slot()
        ops = self.op
        ops[i] = op
        self.thread[i] = record[1]
        if op == EV_CALL:
            self.callsite[i] = record[2]
            self.caller[i] = record[3]
            self.callee[i] = record[4]
            self.kind[i] = record[5]
            return
        self.kind[i] = 0
        if op == EV_THREAD_START:
            self.callsite[i] = 0
            self.caller[i] = record[2]
            self.callee[i] = record[3]
        elif op == EV_LIBRARY_LOAD:
            libraries = self._libraries
            self.callsite[i] = len(libraries)
            # The tuple layout smuggles the name as an untyped payload.
            libraries.append(record[2])  # type: ignore[arg-type]
            self.caller[i] = 0
            self.callee[i] = 0
        else:
            if op not in (EV_RETURN, EV_SAMPLE, EV_THREAD_EXIT):
                self._n = i  # roll back the reserved slot
                raise TypeError("cannot columnise unknown opcode %r" % (op,))
            self.callsite[i] = 0
            self.caller[i] = 0
            self.callee[i] = 0

    def extend(self, records: Iterable[CompactEvent]) -> None:
        """Append every compact tuple in ``records``."""
        push = self.push
        for record in records:
            push(record)

    # ------------------------------------------------------------------
    # converters
    # ------------------------------------------------------------------
    @classmethod
    def from_compact(cls, records: Iterable[CompactEvent]) -> "EventColumns":
        """Columnise a compact-tuple stream losslessly."""
        cols = cls()
        cols.extend(records)
        return cols

    def record(self, i: int) -> CompactEvent:
        """Materialise the single compact tuple at index ``i``.

        The general-path primitive: the dispatch kernel hands over an
        index, and only that one event pays tuple allocation on its way
        to ``DacceEngine.on_event``.
        """
        if not 0 <= i < self._n:
            raise IndexError("event index %d out of range" % (i,))
        op = self.op[i]
        if op == EV_CALL:
            return (
                op,
                self.thread[i],
                self.callsite[i],
                self.caller[i],
                self.callee[i],
                self.kind[i],
            )
        if op == EV_THREAD_START:
            return (op, self.thread[i], self.caller[i], self.callee[i])
        if op == EV_LIBRARY_LOAD:
            name = self._libraries[self.callsite[i]]
            return (op, self.thread[i], name)  # type: ignore[return-value]
        return (op, self.thread[i])

    def iter_compact(self) -> Iterator[CompactEvent]:
        """Yield every event as a compact tuple, in order."""
        record = self.record
        for i in range(self._n):
            yield record(i)

    def to_compact(self) -> List[CompactEvent]:
        """The full batch as a list of compact tuples (lossless)."""
        return list(self.iter_compact())

    def views(self) -> ColumnViews:
        """Zero-copy ``memoryview``s trimmed to the logical length.

        The caller must release every view (or drop all references)
        before the batch is mutated again — exported buffers pin the
        arrays against resizing.
        """
        n = self._n
        return (
            memoryview(self.op)[:n],
            memoryview(self.thread)[:n],
            memoryview(self.callsite)[:n],
            memoryview(self.caller)[:n],
            memoryview(self.callee)[:n],
            memoryview(self.kind)[:n],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EventColumns(len=%d, capacity=%d)" % (self._n, len(self.op))


__all__ = ["ColumnViews", "EventColumns", "OPCODE_ARITY"]
