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
from collections import deque
from typing import Deque, NamedTuple, Tuple

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
