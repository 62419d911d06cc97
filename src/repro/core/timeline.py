"""Time-series instrumentation of the dueling controller (Figure 3).

The paper's Figure 3 illustrates how the reference/explorer/
conventional hit-rate monitors drive ``nmax`` in small-working-set vs
high-utility phases. ``TimelineRecorder`` samples exactly those
quantities during a live run, so the adaptation can be plotted — see
``examples/adaptive_nmax.py`` and the phase-change tests.

Since the unified tracing layer (:mod:`repro.obs`) the recorder is a
**view over the duel controller's event stream**: the controller emits
a ``duel-observe`` detail event per monitored lookup (emitted only when
something opted in — this recorder, or a trace capture listing the
category explicitly), and the recorder counts those events and
snapshots the per-bank duel state every ``period`` of them. Use it as
a context manager::

    with TimelineRecorder(architecture, period=256) as recorder:
        engine.run(...)
    print(recorder.format())

so an exception mid-run cannot leave the subscription installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.esp_nuca import EspNuca
from repro.obs.trace import TraceEvent, TracerView

SPARK = "▁▂▃▄▅▆▇█"


@dataclass
class TimelineSample:
    events: int
    average_nmax: float
    hr_reference: float
    hr_conventional: float
    hr_explorer: float
    per_bank_nmax: List[int] = field(default_factory=list)


class TimelineRecorder(TracerView):
    """Samples duel state every ``period`` monitored events."""

    def __init__(self, architecture: EspNuca, period: int = 256,
                 focus_bank: Optional[int] = None) -> None:
        if architecture.duel is None:
            raise ValueError("timeline recording needs the protected "
                             "(dueling) ESP-NUCA variant")
        if architecture.system is None:
            raise ValueError("timeline recording needs a bound "
                             "architecture (construct the CmpSystem first)")
        TracerView.__init__(self, architecture.system,
                            categories=(), detail=("duel-observe",))
        self.architecture = architecture
        self.period = period
        self.focus_bank = focus_bank
        self.samples: List[TimelineSample] = []
        self._events = 0

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "TimelineRecorder":
        self._attach()
        return self

    def __exit__(self, *exc_info) -> None:
        self._detach()

    # -- the view ----------------------------------------------------------------

    def _view_event(self, event: TraceEvent) -> None:
        if event.category != "duel-observe":
            return
        self._events += 1
        if self._events % self.period == 0:
            self._snapshot()

    def _snapshot(self) -> None:
        arch = self.architecture
        duel = arch.duel
        states = [duel.state_of(b.bank_id) for b in arch.banks]
        focus = (duel.state_of(self.focus_bank)
                 if self.focus_bank is not None else states[0])
        self.samples.append(TimelineSample(
            events=self._events,
            average_nmax=sum(s.nmax for s in states) / len(states),
            hr_reference=focus.hr_reference.hit_rate(),
            hr_conventional=focus.hr_conventional.hit_rate(),
            hr_explorer=focus.hr_explorer.hit_rate(),
            per_bank_nmax=[s.nmax for s in states],
        ))

    # -- rendering ----------------------------------------------------------------

    def sparkline(self, attribute: str = "average_nmax",
                  width: Optional[int] = None) -> str:
        """A one-line unicode chart of one sampled attribute."""
        values = [getattr(s, attribute) for s in self.samples]
        if not values:
            return ""
        if width and len(values) > width:
            stride = len(values) / width
            values = [values[int(i * stride)] for i in range(width)]
        low, high = min(values), max(values)
        span = (high - low) or 1.0
        return "".join(
            SPARK[min(int((v - low) / span * (len(SPARK) - 1)),
                      len(SPARK) - 1)]
            for v in values)

    def format(self) -> str:
        if not self.samples:
            return "no samples"
        last = self.samples[-1]
        return "\n".join([
            f"samples: {len(self.samples)} "
            f"(every {self.period} monitored events)",
            f"nmax    {self.sparkline('average_nmax')}  "
            f"now {last.average_nmax:.2f}",
            f"HR_ref  {self.sparkline('hr_reference')}  "
            f"now {last.hr_reference:.2f}",
            f"HR_conv {self.sparkline('hr_conventional')}  "
            f"now {last.hr_conventional:.2f}",
            f"HR_expl {self.sparkline('hr_explorer')}  "
            f"now {last.hr_explorer:.2f}",
        ])
