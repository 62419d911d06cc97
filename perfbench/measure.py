"""Shared measurement helpers: run context, percentiles, result checks."""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10

#: Operations every timed phase completes, whatever ``--seconds`` says:
#: enough that p90 has TAIL_SAMPLES beyond it.
MIN_OPS = 100

#: A run that has not met its minimum counts by then gives up.
HARD_LIMIT_S = 150.0

#: Default ``--seed``, and the held-out seed reserved for confirming a
#: claim on inputs not used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

Spans = Sequence[Tuple[float, float]]

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "digests.json")


class BenchError(RuntimeError):
    """The run cannot produce a valid result (not a failed operation)."""


@dataclass
class Run:
    """Everything a workload needs from the command line."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    workdir: str
    src: str
    #: Re-recording digests: skip the comparison with digests.json.
    record: bool = False
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: point id -> digest of its canonical result, for digests.json.
    digests: Dict[str, str] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    probe: "HostProbe" = field(default_factory=lambda: HostProbe())

    @property
    def mode(self) -> str:
        return "quick" if self.quick else "full"

    def rng(self, purpose: str) -> random.Random:
        """Deterministic input stream for (workload, seed, purpose)."""
        return random.Random(f"perfbench/{self.workload}/{purpose}/"
                             f"{self.seed}")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check_deadline(self, what: str) -> None:
        if time.perf_counter() - self.started > HARD_LIMIT_S:
            raise BenchError(f"{what}: minimum sample counts not reached "
                             f"within {HARD_LIMIT_S:.0f}s")

    def note(self, line: str) -> None:
        self.report.append(line)


class HostProbe:
    """Host-speed index, sampled while a workload runs.

    Host speed on a shared machine shifts by a third between runs a
    minute apart and in bursts within a run, so longer windows do not
    average it out (NOTES.md, "Host noise"). Every time-based
    end-to-end metric is therefore scaled to a nominal host. The probe
    times a fixed pointer chase and dictionary walk over 28 MiB of
    Python objects (memory-bound, like the simulator; no repro code)
    every ``EVERY_S``; an operation timed over [start, end] is scaled by
    ``NOMINAL_S`` over the median probe within ``WINDOW_S`` of it.
    Raw numbers stay in the report. NOTES.md ("Does the probe stay put
    when the program changes?") has the evidence that program changes
    do not move it, forks aside (:meth:`touch`).
    """

    NODES = 150_000
    STEPS = 3_000
    #: Probe seconds on the nominal host (a typical median here).
    NOMINAL_S = 0.0025
    #: Least time between two samples, so probing costs ~3% of a phase.
    EVERY_S = 0.1
    #: Probes this close to an operation describe the host it ran on.
    WINDOW_S = 0.5
    MIN_PROBES = 5

    def __init__(self) -> None:
        before = current_rss_mb()
        rng = random.Random(12345)
        order = list(range(self.NODES))
        rng.shuffle(order)
        nodes = [_Node() for _ in range(self.NODES)]
        for i, index in enumerate(order):
            nodes[index].next = nodes[order[(i + 1) % self.NODES]]
            nodes[index].value = i
        self._head = nodes[order[0]]
        self._table = {(i * 2654435761) % (1 << 40): i
                       for i in range(self.NODES)}
        keys = list(self._table)
        rng.shuffle(keys)
        self._keys = keys[:self.STEPS]
        del order, nodes, keys
        #: MiB the probe's own objects keep resident, left out of
        #: :func:`peak_rss_mb`.
        self.footprint_mb = current_rss_mb() - before
        #: (midpoint time, seconds) of every probe, in time order.
        self.samples: List[Tuple[float, float]] = []

    def sample(self, force: bool = False) -> None:
        """Time the probe once, at most every EVERY_S unless forced."""
        now = time.perf_counter()
        if not force and self.samples and \
                now - self.samples[-1][0] < self.EVERY_S:
            return
        node, total, table = self._head, 0, self._table
        start = time.perf_counter()
        for _ in range(self.STEPS):
            node = node.next
            total += node.value
        for key in self._keys:
            total += table[key]
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))

    def touch(self) -> None:
        """Walk every probe object once, untimed. Call right after the
        process forks: reading a Python object writes its reference
        count, so the fork leaves every probe page copy-on-write and
        the next timed walk would pay the page copies (6-13 ms against
        ~1.7 ms, measured) and misread the host. Walking all of the
        probe, not just its timed path, leaves that path out of the
        small caches, as it is when a sample follows an operation."""
        node, total = self._head, 0
        for _ in range(self.NODES):
            node = node.next
            total += node.value
        for value in self._table.values():
            total += value
        for _key in self._keys:
            pass

    def factor(self, start: float, end: float) -> float:
        """Nominal-host factor for an operation timed over [start, end]:
        the median of the probes within WINDOW_S of it, or of the
        MIN_PROBES nearest when fewer fall inside."""
        lo = bisect.bisect_left(self.samples, (start - self.WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (end + self.WINDOW_S,))
        if hi - lo < self.MIN_PROBES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            window = nearest[:self.MIN_PROBES]
        else:
            window = self.samples[lo:hi]
        return self.NOMINAL_S / statistics.median(d for _, d in window)

    def scaled(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Durations of ``spans`` on the nominal host."""
        return [(end - start) * self.factor(start, end)
                for start, end in spans]


class _Node:
    __slots__ = ("next", "value")


def end_to_end(run: Run, *, setup: Spans, cold: Spans, cold_refs: int,
               oracle: Spans, oracle_refs: int, hits: Spans,
               rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics from timed spans and ``rss_mb``, a
    :func:`peak_rss_mb` reading.

    ``cold`` spans are default-engine operations that simulated
    ``cold_refs`` references in all; ``oracle`` spans are reference-
    engine simulations of ``oracle_refs``; ``hits`` are cache-answered
    operations; ``setup`` are repeated set-ups. Every duration is
    scaled to the nominal host (:class:`HostProbe`); the unscaled values
    go to the report.
    """
    def metrics(durations) -> Dict[str, float]:
        s, c, o, h = (durations(spans) for spans in (setup, cold, oracle,
                                                     hits))
        return {
            "setup_s": median(s),
            "sim_krefs_per_s": cold_refs / sum(c) / 1e3,
            "oracle_krefs_per_s": oracle_refs / sum(o) / 1e3,
            "cold_job_p50_ms": percentile(c, 0.5) * 1e3,
            "cold_job_p90_ms": percentile(c, 0.9) * 1e3,
            "cold_jobs_per_s": len(c) / sum(c),
            "hit_submit_p50_ms": percentile(h, 0.5) * 1e3,
            "hit_submit_p90_ms": percentile(h, 0.9) * 1e3,
            "hit_submits_per_s": len(h) / sum(h),
        }

    raw = metrics(lambda spans: [end - start for start, end in spans])
    run.note("unscaled: " + ", ".join(
        f"{name}={value:.6g}" for name, value in raw.items()))
    probes = [d for _, d in run.probe.samples]
    run.note(f"host probe: n={len(probes)} median={median(probes) * 1e3:.4f}ms "
             f"(nominal {run.probe.NOMINAL_S * 1e3:g}ms)")
    run.note(f"samples: cold={len(cold)} hits={len(hits)} "
             f"oracle={len(oracle)} setup={len(setup)}")
    run.note(f"host probe footprint: {run.probe.footprint_mb:.1f} MiB "
             f"(left out of peak_rss_mb)")
    return dict(metrics(run.probe.scaled), peak_rss_mb=rss_mb)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_digests() -> Dict[str, str]:
    try:
        with open(DIGEST_FILE, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check_digest(run: Run, recorded: Dict[str, str], point_id: str,
                 text: str) -> bool:
    """Record the point's digest; False if it contradicts digests.json
    (never while re-recording)."""
    key = f"{run.mode}/{run.workload}/{point_id}"
    value = digest(text)
    run.digests[key] = value
    expected = recorded.get(key)
    return run.record or expected is None or expected == value


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile, only if TAIL_SAMPLES samples lie beyond it."""
    last = len(values) - 1
    beyond = last - math.floor(q * last + 1e-9)
    if beyond < TAIL_SAMPLES:
        raise BenchError(f"p{q * 100:g} needs {TAIL_SAMPLES} samples beyond "
                         f"it; have {len(values)} samples")
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def current_rss_mb() -> float:
    """Resident set of this process now, in MiB (Linux ``/proc``)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 2 ** 20


def peak_rss_mb(run: Run) -> float:
    """Peak resident set of this process so far, in MiB, less the host
    probe's objects (Linux reports ``ru_maxrss`` in KiB). Workloads read
    it once, at a fixed operation count, so it does not follow
    throughput."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak - run.probe.footprint_mb


def phase_done(started: float, budget_s: float, ops: int,
               minimum: int = MIN_OPS) -> bool:
    """A closed-loop phase ends once its time budget is spent and it has
    completed at least ``minimum`` operations."""
    return ops >= minimum and time.perf_counter() - started >= budget_s


class ModelTotals:
    """Deterministic model counters summed over results (the results
    themselves are not kept: a growing heap would slow every GC pass
    and bill it to the operations being timed)."""

    FIELDS = ("l1_hits", "l1_misses", "l2_demand_lookups", "l2_hits",
              "noc_messages", "noc_queueing", "offchip_demand", "cycles")

    def __init__(self) -> None:
        self.sums = dict.fromkeys(self.FIELDS, 0)

    def add(self, result) -> None:
        for name in self.FIELDS:
            self.sums[name] += getattr(result, name)

    def metrics(self) -> Dict[str, float]:
        s = self.sums
        return {
            "model.l1_hit_rate": s["l1_hits"]
            / max(s["l1_hits"] + s["l1_misses"], 1),
            "model.l2_hit_rate": s["l2_hits"]
            / max(s["l2_demand_lookups"], 1),
            "model.l1_misses": s["l1_misses"],
            "model.noc_messages": s["noc_messages"],
            "model.noc_queueing_cycles": s["noc_queueing"],
            "model.offchip_demand": s["offchip_demand"],
            "model.cycles": s["cycles"],
        }


#: Allocations (net, as ``gc.get_count()[0]`` counts them) after which
#: :func:`collect_between` runs a collection.
GC_BETWEEN = 10_000


@contextmanager
def gc_paused():
    """Automatic collection off for a timed phase, as the repository's
    BENCH protocol does: a collection that lands inside one operation
    would bill a pause for the whole heap to that operation. The phase
    calls :func:`collect_between` after each operation instead, outside
    its timed span, so garbage never piles up."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def collect_between() -> None:
    if gc.get_count()[0] > GC_BETWEEN:
        gc.collect()


def settle_heap() -> None:
    """Collect, then move every live object to the permanent generation,
    so GC passes during the timed phases do not re-scan set-up state."""
    gc.collect()
    gc.freeze()
