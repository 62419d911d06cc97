"""Out-of-order core timing model (Table 2 'Core' row).

The model is trace-driven: the workload supplies a stream of
``TraceItem``s, each carrying the number of non-memory instructions
preceding a memory reference. Timing rules:

* non-memory instructions retire at ``issue_width`` per cycle;
* a load occupies a miss slot until its data returns; the core stalls
  when ``max_outstanding`` (16) loads are in flight;
* the reorder window holds ``window_size`` (64) instructions: the core
  cannot run further ahead of the oldest incomplete load than that;
* ``DEP_LOAD`` items are serializing loads (pointer chases): the core
  waits for the data before issuing anything else — how low-MLP,
  latency-bound applications such as mcf and art express themselves;
* stores retire into the same outstanding-request budget but do not
  close the window (fire-and-forget past the store buffer).
"""

from __future__ import annotations

import enum
from array import array
from collections import deque
from itertools import repeat
from operator import itemgetter
from typing import (Deque, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.common.config import CoreConfig


class TraceKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    DEP_LOAD = "dep_load"

    @property
    def is_write(self) -> bool:
        return self is TraceKind.STORE


class TraceItem(NamedTuple):
    """``gap`` non-memory instructions, then one reference to ``block``.

    A tuple rather than a dataclass: a trace holds one per reference,
    and a tuple is both cheaper to build and smaller to keep."""

    gap: int
    block: int
    kind: TraceKind


#: The ``array`` typecode of the 64-bit ``gaps`` and ``blocks`` columns:
#: "l" where a C long is 64 bits (it packs a list of ints about twice as
#: fast as "q"), else "q".
INT64 = "l" if array("l").itemsize == 8 else "q"
#: Each ``TraceKind`` at the index of its one-byte code in ``Trace.kinds``.
KINDS = (TraceKind.LOAD, TraceKind.STORE, TraceKind.DEP_LOAD)
LOAD_CODE, STORE_CODE, DEP_LOAD_CODE = range(3)
# ``bytes.translate`` tables deriving the ``writes``/``deps`` flags
# from the kind codes in one C-level pass.
_WRITE_TABLE = bytes(code == STORE_CODE for code in range(256))
_DEP_TABLE = bytes(code == DEP_LOAD_CODE for code in range(256))


class Trace:
    """One core's materialized trace, stored as columns.

    The generator packs ``gaps`` and ``blocks`` into signed 64-bit
    ``array``s (:data:`INT64`), and ``kinds`` holds one byte per
    reference, the index of its kind in :data:`KINDS`: 17 bytes per
    reference, where a list of ``TraceItem`` tuples takes about 90. The
    derived ``writes`` and ``deps`` flags (one 0/1 byte per reference
    each) are built on first use and kept, so every architecture that
    replays a memoized trace shares them (threads that race to build
    them build equal bytes). Iterating yields
    ``TraceItem``s; :meth:`rows` yields plain tuples.

    A trace is shared by every point that replays it, so nothing may
    mutate its columns once it is built.
    """

    __slots__ = ("gaps", "blocks", "kinds", "_writes", "_deps")

    def __init__(self, gaps: Sequence[int], blocks: Sequence[int],
                 kinds: bytes) -> None:
        if not len(gaps) == len(blocks) == len(kinds):
            raise ValueError("trace columns differ in length")
        self.gaps = gaps
        self.blocks = blocks
        self.kinds = kinds
        self._writes: Optional[bytes] = None
        self._deps: Optional[bytes] = None

    @classmethod
    def from_items(cls, items: Iterable[TraceItem]) -> "Trace":
        """The columns of a sequence or iterator of ``TraceItem``s.

        ``gaps`` and ``blocks`` stay lists here: such a trace is built
        for one point (an item list handed to the vectorized engine, a
        trace file being written), so packing it would only cost time.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        store, dep_load = TraceKind.STORE, TraceKind.DEP_LOAD
        # C-level passes per column; the kind codes take one
        # comprehension (an enum member hashes in Python, so a dict
        # lookup per item is the slower form).
        return cls(list(map(itemgetter(0), items)),
                   list(map(itemgetter(1), items)),
                   bytes([STORE_CODE if kind is store
                          else DEP_LOAD_CODE if kind is dep_load
                          else LOAD_CODE
                          for kind in map(itemgetter(2), items)]))

    @property
    def writes(self) -> bytes:
        """1 where the reference is a store, else 0."""
        if self._writes is None:
            self._writes = self.kinds.translate(_WRITE_TABLE)
        return self._writes

    @property
    def deps(self) -> bytes:
        """1 where the reference is a serializing ``DEP_LOAD``, else 0."""
        if self._deps is None:
            self._deps = self.kinds.translate(_DEP_TABLE)
        return self._deps

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[TraceItem]:
        return trace_items(self.gaps, self.blocks, self.kinds)

    def rows(self) -> Iterator[Tuple[int, int, TraceKind]]:
        """Plain ``(gap, block, kind)`` tuples, for the reference
        engine's loop, which only unpacks them. Building ``TraceItem``s
        instead measured about 3% of the reference engine's time per
        ``cold_grid`` point (median of 80 paired points against item
        lists); rows measured within 1% of item lists."""
        return zip(self.gaps, self.blocks,
                   [KINDS[code] for code in self.kinds])

    def __getitem__(self, index: int) -> TraceItem:
        return TraceItem(self.gaps[index], self.blocks[index],
                         KINDS[self.kinds[index]])


def trace_items(gaps: Iterable[int], blocks: Iterable[int],
                kinds: Iterable[int]) -> Iterator[TraceItem]:
    """``TraceItem``s over parallel gap, block and kind-code columns,
    built at C level (``tuple.__new__`` skips ``TraceItem``'s
    Python-level constructor)."""
    return map(tuple.__new__, repeat(TraceItem),
               zip(gaps, blocks, [KINDS[code] for code in kinds]))


def as_trace(trace: Iterable[TraceItem]) -> Trace:
    """``trace`` itself if it is a :class:`Trace`, else the columns of
    its items: the one place item lists and iterators (tests, synthetic
    traces, trace files) become columns."""
    if isinstance(trace, Trace):
        return trace
    return Trace.from_items(trace)


class CoreModel:
    """Per-core clock, window and miss-level-parallelism bookkeeping."""

    def __init__(self, core_id: int, config: CoreConfig) -> None:
        self.core_id = core_id
        self.config = config
        self.clock = 0
        self.instructions = 0
        self.memory_refs = 0
        self.stall_cycles = 0
        # (completion_time, instruction_index) of in-flight loads/stores,
        # in issue order (completion order may differ; window checks use
        # the head, MLP checks use the earliest completion).
        self._outstanding: Deque[Tuple[int, int]] = deque()

    # -- bookkeeping helpers ---------------------------------------------------

    def _retire_completed(self) -> None:
        out = self._outstanding
        while out and out[0][0] <= self.clock:
            out.popleft()

    def _wait_until(self, when: int) -> None:
        if when > self.clock:
            self.stall_cycles += when - self.clock
            self.clock = when
        self._retire_completed()

    def _wait_for_slot(self) -> None:
        """Block until an outstanding-request slot frees (MLP limit)."""
        while len(self._outstanding) >= self.config.max_outstanding:
            earliest = min(t for t, _ in self._outstanding)
            self._wait_until(earliest)
            before = len(self._outstanding)
            self._outstanding = deque(
                (t, i) for t, i in self._outstanding if t > self.clock)
            if len(self._outstanding) == before:  # pragma: no cover - guard
                break

    def _enforce_window(self) -> None:
        """The core cannot issue past window_size of the oldest miss."""
        out = self._outstanding
        while out and self.instructions - out[0][1] >= self.config.window_size:
            self._wait_until(out[0][0])
            if out and out[0][0] <= self.clock:
                out.popleft()

    # -- the trace-driven step --------------------------------------------------

    def advance_gap(self, gap: int) -> None:
        """Execute ``gap`` non-memory instructions at issue_width IPC."""
        if gap:
            self.instructions += gap
            self.clock += -(-gap // self.config.issue_width)  # ceil div
            self._retire_completed()
            self._enforce_window()

    def issue_time(self) -> int:
        """The cycle at which the next memory reference issues."""
        return self.clock

    def complete_memory(self, kind: TraceKind, complete_time: int) -> None:
        """Account a memory reference whose data returns at
        ``complete_time`` (absolute cycles)."""
        self.instructions += 1
        self.memory_refs += 1
        self._retire_completed()
        self._wait_for_slot()
        if kind is TraceKind.DEP_LOAD:
            # Serializing load: nothing issues until the data is back.
            self._wait_until(complete_time)
            return
        self._outstanding.append((complete_time, self.instructions))
        self._enforce_window()

    def drain(self) -> None:
        """Wait for all in-flight requests (end of trace)."""
        if self._outstanding:
            last = max(t for t, _ in self._outstanding)
            self._wait_until(last)
            self._outstanding.clear()

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)
