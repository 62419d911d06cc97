"""Layer attribution from outside the program: boundary spans and a stack sampler.

Two instruments, both installed only for the traced run and both
living in the benchmark, so nothing under ``src/`` knows about them:

* :class:`SpanLog` wraps public layer entry points (``JobStore``
  methods, ``RunCache.get``/``put``, ``WorkerPool.run_batch``, ...) by
  replacing the class attribute with a timing wrapper. Each call
  appends ``(layer, start, end)``; ``list.append`` is atomic under the
  interpreter lock, so gateway, dispatcher and client threads can all
  record into one log.
* :class:`LayerSampler` attributes host CPU time inside the engine,
  where layers call each other ~10^5 times a second and wrappers would
  cost more than the work. ``ITIMER_PROF`` delivers ``SIGPROF`` every
  :data:`SAMPLE_INTERVAL_S` of process CPU time; the handler walks the
  interrupted stack to the innermost frame whose file lies in the
  ``repro`` package, so stdlib, numpy and dataclass-generated
  ``<string>`` frames are charged to the repro code that called them.
"""

from __future__ import annotations

import inspect
import os
import signal
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: CPU seconds between samples (~250 samples per CPU second).
SAMPLE_INTERVAL_S = 0.004

#: Sampler layers, in report order, with the ``repro`` module prefixes
#: charged to each. The first matching prefix wins, so the contention
#: kernels are carved out of the rest of ``repro.sim.vector``.
LAYER_PREFIXES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("contention", ("sim.vector.contention",)),
    ("noc", ("noc.",)),
    ("mem", ("mem.",)),
    ("ledger", ("coherence.",)),
    ("policy", ("architectures.", "core.")),
    ("schedule", ("sim.vector.",)),
    ("core", ("sim.cpu", "sim.engine", "sim.system")),
    ("cache", ("cache.",)),
    ("stats", ("common.statsreg", "common.stats")),
)
LAYERS = tuple(name for name, _ in LAYER_PREFIXES) + ("other",)


def layer_of_module(dotted: str) -> str:
    """Sampler layer of a module path relative to ``repro``."""
    for layer, prefixes in LAYER_PREFIXES:
        for prefix in prefixes:
            if dotted == prefix.rstrip(".") or dotted.startswith(prefix):
                return layer
    return "other"


class LayerSampler:
    """Statistical host-time profiler keyed by (label, layer).

    ``label`` is set by the caller around the code it wants attributed
    (the benchmark sets it to the engine name around build + run);
    samples taken while it is ``None`` are dropped.
    """

    def __init__(self, package_dir: str) -> None:
        self.prefix = os.path.join(os.path.abspath(package_dir), "")
        self.label: Optional[str] = None
        self.samples: Dict[Tuple[str, str], int] = {}
        self._layer_of_code: Dict[object, Optional[str]] = {}
        self._previous = None

    def _code_layer(self, code) -> Optional[str]:
        filename = code.co_filename
        if not filename.startswith(self.prefix):
            return None
        rel = filename[len(self.prefix):]
        if rel.endswith(".py"):
            rel = rel[:-3]
        dotted = rel.replace(os.sep, ".")
        if dotted.endswith(".__init__"):
            dotted = dotted[:-len(".__init__")]
        return layer_of_module(dotted)

    def _handler(self, signum, frame) -> None:
        label = self.label
        if label is None:
            return
        cache = self._layer_of_code
        layer = "other"
        while frame is not None:
            code = frame.f_code
            try:
                found = cache[code]
            except KeyError:
                found = cache[code] = self._code_layer(code)
            if found is not None:
                layer = found
                break
            frame = frame.f_back
        key = (label, layer)
        self.samples[key] = self.samples.get(key, 0) + 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def seconds(self, labels: Optional[Sequence[str]] = None
                ) -> Dict[str, float]:
        """CPU seconds per layer (samples x SAMPLE_INTERVAL_S), over ``labels``
        (default: every label)."""
        out = {layer: 0.0 for layer in LAYERS}
        for (label, layer), count in self.samples.items():
            if labels is None or label in labels:
                out[layer] += count * SAMPLE_INTERVAL_S
        return out

    def count(self, labels: Optional[Sequence[str]] = None) -> int:
        return sum(n for (label, _), n in self.samples.items()
                   if labels is None or label in labels)

    def metrics(self) -> Dict[str, float]:
        """The ``host.*`` per-layer metrics, over every label."""
        seconds = self.seconds()
        out: Dict[str, float] = {f"host.{layer}_s": seconds[layer]
                                 for layer in LAYERS}
        out["host.samples"] = self.count()
        return out

    def share_table(self, labels: Sequence[str]) -> List[str]:
        """Report lines: each layer's share of the samples, per label."""
        lines = ["host time by layer (share of samples):",
                 "  layer       " + "".join(f"{label:>12}"
                                            for label in labels)]
        counts = {label: self.count([label]) for label in labels}
        for layer in LAYERS:
            cells = "".join(
                f"{self.samples.get((label, layer), 0) / max(counts[label], 1):>12.1%}"
                for label in labels)
            lines.append(f"  {layer:<12}{cells}")
        lines.append("  samples     " + "".join(
            f"{counts[label]:>12d}" for label in labels))
        return lines


class SpanLog:
    """Timing wrappers around public entry points, recorded as spans."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []
        self._restore: List[Tuple[type, str, object]] = []

    def wrap(self, owner: type, name: str, layer: str) -> None:
        """Replace ``owner.name`` with a wrapper that records a span."""
        raw = inspect.getattr_static(owner, name)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        spans = self.spans
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                spans.append((layer, start, clock()))

        self._restore.append((owner, name, raw))
        setattr(owner, name, classmethod(timed) if is_classmethod else timed)

    def restore(self) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    def durations(self, layer: str, start: float = float("-inf"),
                  end: float = float("inf")) -> List[float]:
        """Durations (s) of ``layer`` spans lying inside [start, end]."""
        return [t1 - t0 for name, t0, t1 in list(self.spans)
                if name == layer and t0 >= start and t1 <= end]

    def covered(self, layers: Sequence[str],
                windows: Sequence[Tuple[float, float]]) -> List[float]:
        """Per window, seconds of ``layers`` spans lying inside it.
        Windows must be disjoint and in time order."""
        chosen = sorted((t0, t1) for name, t0, t1 in list(self.spans)
                        if name in layers)
        out = []
        i = 0
        for start, end in windows:
            while i < len(chosen) and chosen[i][0] < start:
                i += 1
            total = 0.0
            j = i
            while j < len(chosen) and chosen[j][0] <= end:
                if chosen[j][1] <= end:
                    total += chosen[j][1] - chosen[j][0]
                j += 1
            out.append(total)
        return out
