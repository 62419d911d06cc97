"""Per-access event tracing for protocol debugging.

``AccessTracer`` records, for every demand reference, what the protocol
did: supplier, latency, the block's classification afterwards. The
directed protocol tests assert on aggregate behaviour; the tracer is
for *watching* a handful of accesses when something looks wrong — the
simulator's printf.

Since the unified tracing layer (:mod:`repro.obs`) this is a **view
over the system's event stream**, not a monkey-patcher: it subscribes
to the system's tracer (installing a private listener-only tracer via
the supported :meth:`CmpSystem.set_tracer` seam when tracing is off)
and rebuilds :class:`AccessEvent` records from the ``access`` span
events the system emits. Use it as a context manager::

    with AccessTracer(system) as tracer:
        engine.run(...)
    print(tracer.format(last=20))

so an exception mid-run cannot leave the subscription installed.
When a user tracer is already active the view shares its sampling and
category filters (a ``--sample 100`` trace shows the view 1 in 100
accesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.obs.trace import PH_SPAN, TraceEvent, TracerView
from repro.sim.request import Supplier
from repro.sim.system import CmpSystem


@dataclass
class AccessEvent:
    sequence: int
    core: int
    block: int
    is_write: bool
    issue: int
    complete: int
    supplier: Supplier
    classification: str = ""
    note: str = ""

    @property
    def latency(self) -> int:
        return self.complete - self.issue

    def format(self) -> str:
        rw = "W" if self.is_write else "R"
        cls = f" [{self.classification}]" if self.classification else ""
        return (f"#{self.sequence:<6d} t={self.issue:<9d} core {self.core} "
                f"{rw} {self.block:#012x} -> {self.supplier.value:16s} "
                f"{self.latency:5d} cyc{cls}{self.note}")


class AccessTracer(TracerView):
    """Record (optionally filtered) access events of a live system."""

    def __init__(self, system: CmpSystem, limit: int = 10_000,
                 block_filter: Optional[Callable[[int], bool]] = None,
                 core_filter: Optional[Callable[[int], bool]] = None) -> None:
        TracerView.__init__(self, system, categories=("access",))
        self.system = system
        self.limit = limit
        self.block_filter = block_filter
        self.core_filter = core_filter
        self.events: List[AccessEvent] = []
        self.dropped = 0
        self._sequence = 0

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "AccessTracer":
        self._attach()
        return self

    def __exit__(self, *exc_info) -> None:
        self._detach()

    # -- the view ----------------------------------------------------------------

    def _view_event(self, event: TraceEvent) -> None:
        if event.phase != PH_SPAN or event.category != "access":
            return
        self._sequence += 1
        block = int(event.args["block"], 16)
        core = int(event.tid[len("core"):])
        if self.block_filter and not self.block_filter(block):
            return
        if self.core_filter and not self.core_filter(core):
            return
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(AccessEvent(
            sequence=self._sequence, core=core, block=block,
            is_write=event.name == "write",
            issue=int(event.ts), complete=int(event.ts + event.dur),
            supplier=Supplier(event.args["supplier"]),
            classification=self._classification(block)))

    def _classification(self, block: int) -> str:
        classifier = getattr(self.system.architecture, "classifier", None)
        if classifier is None:
            return ""
        return classifier.classify(block).value

    # -- queries ---------------------------------------------------------------

    def for_block(self, block: int) -> List[AccessEvent]:
        return [e for e in self.events if e.block == block]

    def by_supplier(self, supplier: Supplier) -> List[AccessEvent]:
        return [e for e in self.events if e.supplier is supplier]

    def format(self, last: Optional[int] = None) -> str:
        events = self.events[-last:] if last else self.events
        lines = [e.format() for e in events]
        if self.dropped:
            lines.append(f"... {self.dropped} events beyond the "
                         f"{self.limit}-event limit were dropped")
        return "\n".join(lines)
