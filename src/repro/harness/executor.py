"""Parallel execution of independent run points.

The evaluation grid is embarrassingly parallel: every (architecture,
workload, seed) point is an independent simulation — paired comparisons
come from *regenerating the same trace deterministically*, not from
shared mutable state. This module fans run points out over
``multiprocessing`` workers while preserving exactly the serial
semantics:

* **paired traces** — trace materialization is deterministic in
  (workload spec, seed), so every worker replays byte-identical traces
  against its architecture (:func:`materialize_traces` is the single
  shared implementation; the serial runner delegates to it too);
* **identical results** — a parallel batch returns the same
  :class:`SimResult` values the serial loop would (tested field-for-field
  in ``tests/test_executor.py``);
* **persistent caching** — results are read from / written to the
  on-disk :class:`~repro.harness.runcache.RunCache` keyed by a content
  hash of the run point, so a second invocation of the same experiment
  (even in a new process) simulates nothing.

Worker count comes from ``REPRO_JOBS`` (default ``os.cpu_count()``);
``REPRO_JOBS=1`` is a deterministic serial fallback that never spawns a
process. Parallel batches route through the shared worker fabric
(:mod:`repro.harness.fabric`): a persistent pool of worker processes
pulling jobs from one queue, with heartbeats, crash detection and
requeue-once recovery — the same pool the simulation service drives,
so direct runs and ``esp-nuca gateway serve --workers N`` share one
implementation. Every run point names a registered architecture (a
variant such as a Section 5.2 ablation is that name plus its config),
so every point of a parallel batch can go to the fabric.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.architectures.registry import make_architecture
from repro.common.config import SystemConfig
from repro.harness.runcache import RunCache, cache_key, env_int
from repro.obs import trace as obs
from repro.obs.logging import get_logger
from repro.sim.cpu import Trace
from repro.sim.engines import build_engine
from repro.sim.results import SimResult
from repro.sim.system import CmpSystem
from repro.workloads.base import TraceGenerator, WorkloadSpec
from repro.workloads.registry import get_workload


_log = get_logger("executor")


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` or the machine's CPU count."""
    return env_int("REPRO_JOBS", os.cpu_count() or 1, minimum=1)


@dataclass(frozen=True)
class RunPoint:
    """One independent simulation: everything a worker needs.

    ``arch`` is a registry name, built with ``config``. ``name`` keys
    the caches and labels the result; it differs from ``arch`` for a
    variant under a non-default config (an ablation), and must then
    encode the config's parameters. ``settings`` is a
    :class:`~repro.harness.runner.RunSettings`.
    """

    name: str
    workload: str
    seed: int
    config: SystemConfig
    settings: "RunSettings"  # noqa: F821 — runner imports this module
    arch: str

    @property
    def key(self) -> str:
        return cache_key(self.config, self.settings, self.name,
                         self.workload, self.seed)


# -- trace materialization (shared by serial runner and workers) -------------

def prepare_spec(settings, workload: str) -> WorkloadSpec:
    """The scaled workload spec a run uses — single source of truth for
    trace pairing: serial runner and every worker call this."""
    spec = get_workload(workload)
    spec = spec.capacity_scaled(settings.capacity_factor)
    total = settings.refs_per_core + settings.warmup_refs_per_core
    return spec.scaled(total)


def materialize_traces(config: SystemConfig, settings, workload: str,
                       seed: int) -> List[Optional[Trace]]:
    """Deterministically generate the per-core traces of a run point,
    as :class:`~repro.sim.cpu.Trace` columns."""
    return TraceGenerator(prepare_spec(settings, workload),
                          seed).materialize(config.num_cores)


#: Per-process memo of materialized traces, bounded because an entry
#: grows with the reference budget: at recorded fidelity (20 000 + 12 000
#: references per core) one (workload, seed) entry takes about 4 MiB as
#: ``Trace`` columns, where ``TraceItem`` lists took about 20 MiB
#: (docs/harness.md §2). Grouping run points by (workload, seed) before
#: dispatch keeps the hit rate high with a small bound.
_TRACE_CACHE_MAX = 8
_trace_cache: "OrderedDict[Tuple, List[Optional[Trace]]]" = \
    OrderedDict()
# The simulation service runs serial batches on a thread pool, so the
# memo sees concurrent access; materialization happens outside the lock
# (it is the expensive part and duplicate work is merely wasteful).
_trace_cache_lock = threading.Lock()


def _cached_traces(point: RunPoint) -> List[Optional[Trace]]:
    """The point's traces through the per-process memo. When tracing,
    a ``materialize`` wall span (nested in the point's ``run`` span)
    shows how much of the point's wall time was trace generation."""
    tracer = obs.active()
    if not tracer.enabled:
        return _memo_traces(point)[0]
    args = {"workload": point.workload, "seed": point.seed}
    with tracer.wall_span("executor", "materialize",
                          tid=threading.current_thread().name, args=args):
        traces, args["memo_hit"] = _memo_traces(point)
        args["refs"] = sum(len(t) for t in traces if t is not None)
    return traces


def _memo_traces(point: RunPoint
                 ) -> Tuple[List[Optional[Trace]], bool]:
    """``(traces, memo hit?)`` for a point."""
    key = (point.workload, point.seed, point.settings.refs_per_core,
           point.settings.warmup_refs_per_core,
           point.settings.capacity_factor, point.config.num_cores)
    with _trace_cache_lock:
        traces = _trace_cache.get(key)
        if traces is not None:
            _trace_cache.move_to_end(key)
            return traces, True
    traces = materialize_traces(point.config, point.settings,
                                point.workload, point.seed)
    with _trace_cache_lock:
        _trace_cache[key] = traces
        while len(_trace_cache) > _TRACE_CACHE_MAX:
            _trace_cache.popitem(last=False)
    return traces, False


def simulate_point(point: RunPoint) -> SimResult:
    """Simulate one run point from scratch (modulo the trace memo).

    This is the multiprocessing worker entry; it reproduces
    ``ExperimentRunner.run_one`` / ``run_custom`` exactly.
    """
    architecture = make_architecture(point.arch, point.config)
    system = CmpSystem(point.config, architecture)
    if system.tracer.enabled:
        # Label this run's sim-clock trace process before any event
        # allocates it.
        system.set_trace_label(
            f"{point.name}/{point.workload} s{point.seed}")
    # build_engine reads the memoized Trace columns without consuming
    # them (the vectorized engine copies each column into a list; the
    # reference engine walks fresh rows) — one seam, so serial, pooled
    # and service execution all honor the point's engine selection
    # identically (docs/engine.md).
    engine = build_engine(system, _cached_traces(point),
                          point.settings.engine)
    result = engine.run(
        max_refs_per_core=point.settings.refs_per_core,
        warmup_refs_per_core=point.settings.warmup_refs_per_core)
    if point.name != point.arch:
        result.architecture = point.name
    result.workload = point.workload
    result.seed = point.seed
    return result


class Executor:
    """Runs batches of :class:`RunPoint` with caching and parallelism.

    ``jobs=1`` (or a single-point batch) never touches
    ``multiprocessing`` — the deterministic serial fallback. Results
    come back in submission order; duplicate points are simulated once.

    Parallel batches go to a persistent
    :class:`~repro.harness.fabric.WorkerPool` of ``jobs`` worker
    processes, created lazily on the first pool-sized batch and reused
    across batches (the service submits many small batches — pool
    startup is paid once, not per batch). ``close()`` tears it down;
    the fabric also registers an ``atexit`` guard.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[RunCache] = None) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.cache = cache if cache is not None else RunCache.from_env()
        #: Points actually simulated (cache misses); the simulation
        #: service asserts its cache-hit fast path against this.
        self.executed = 0
        # The service calls run() from several threads concurrently.
        self._executed_lock = threading.Lock()
        self._pool: Optional["fabric.WorkerPool"] = None  # noqa: F821
        self._pool_lock = threading.Lock()

    def run(self, points: Sequence[RunPoint]) -> List[SimResult]:
        tracer = obs.active()
        with tracer.wall_span("executor", "batch", tid="executor") as span:
            order: List[str] = []
            unique: "OrderedDict[str, RunPoint]" = OrderedDict()
            for point in points:
                key = point.key
                order.append(key)
                unique.setdefault(key, point)
            results: Dict[str, SimResult] = {}
            misses: List[Tuple[str, RunPoint]] = []
            for key, point in unique.items():
                cached = self.cache.get(key)
                if cached is not None:
                    results[key] = cached
                    if tracer.enabled and tracer.wants("executor"):
                        tracer.instant(
                            "executor", "cache hit", ts=tracer.wall_now(),
                            pid=tracer.wall_pid, tid="executor",
                            args={"point": f"{point.name}/{point.workload} "
                                           f"s{point.seed}"})
                else:
                    misses.append((key, point))
            if misses:
                for (key, point), result in zip(misses, self._execute(
                        [point for _, point in misses])):
                    self.cache.put(key, result)
                    results[key] = result
            span["points"] = len(points)
            span["unique"] = len(unique)
            span["cached"] = len(unique) - len(misses)
            span["executed"] = len(misses)
            _log.debug("batch complete", points=len(points),
                       unique=len(unique),
                       cached=len(unique) - len(misses),
                       executed=len(misses),
                       keys=[key[:12] for key, _ in misses])
            return [results[key] for key in order]

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _simulate_span(point: RunPoint) -> SimResult:
        """One in-process simulation under a wall-clock run span; the
        track is the executing thread (service workers get their own)."""
        tracer = obs.active()
        with tracer.wall_span(
                "executor", f"run {point.name}/{point.workload} s{point.seed}",
                tid=threading.current_thread().name):
            return simulate_point(point)

    def _execute(self, points: List[RunPoint]) -> List[SimResult]:
        with self._executed_lock:
            self.executed += len(points)
        if self.jobs <= 1 or len(points) <= 1:
            return [self._simulate_span(p) for p in points]
        # Contiguous (workload, seed) chunks let each worker reuse its
        # materialized traces across architectures.
        order = sorted(range(len(points)),
                       key=lambda i: (points[i].workload, points[i].seed,
                                      points[i].name))
        jobs = min(self.jobs, len(order))
        chunk = -(-len(order) // jobs)
        tracer = obs.active()
        if tracer.enabled and tracer.wants("executor"):
            # Worker processes have their own (empty) tracer slot: their
            # sim-clock events are not captured. The trace CLI forces
            # jobs=1 for this reason.
            tracer.instant(
                "executor", "pool dispatch (sim events not captured)",
                ts=tracer.wall_now(), pid=tracer.wall_pid,
                tid="executor", args={"points": len(order)})
        cache_spec = self.cache.spec()
        chunks = [order[j:j + chunk] for j in range(0, len(order), chunk)]
        payloads = [{"points": [(points[i].key, points[i]) for i in indices],
                     "cache": cache_spec}
                    for indices in chunks]
        out: List[Optional[SimResult]] = [None] * len(points)
        outcomes = self._ensure_pool().run_batch(payloads)
        for indices, (values, worker_pid) in zip(chunks, outcomes):
            for i, result in zip(indices, values):
                out[i] = result
            if tracer.enabled and tracer.wants("executor"):
                # The distinct-PID evidence that parallel batches really
                # ran in separate OS processes.
                tracer.instant(
                    "executor", "pool run", ts=tracer.wall_now(),
                    pid=tracer.wall_pid, tid="executor",
                    args={"worker_pid": worker_pid,
                          "points": len(indices)})
        return out  # type: ignore[return-value]

    # -- the worker fabric ---------------------------------------------------

    def _ensure_pool(self) -> "fabric.WorkerPool":  # noqa: F821
        """The persistent fabric pool, created on first parallel batch."""
        from repro.harness import fabric

        with self._pool_lock:
            if self._pool is None:
                self._pool = fabric.WorkerPool(self.jobs)
            return self._pool

    def prestart(self) -> None:
        """Start the worker fabric now instead of on the first parallel
        batch. Front ends that recover a persisted backlog on boot (the
        gateway) call this so re-dispatched jobs never pay pool spawn
        latency inside the first batch; a no-op for serial executors
        (``jobs == 1`` runs in-process) and when the pool already runs."""
        if self.jobs > 1:
            self._ensure_pool()

    def procs_busy(self) -> int:
        """Simulation worker processes currently executing a job (0
        when the pool has never been started)."""
        with self._pool_lock:
            pool = self._pool
        return pool.busy if pool is not None else 0

    def fabric_stats(self) -> Optional[Dict[str, Any]]:
        """The pool's :meth:`~repro.harness.fabric.WorkerPool.stats`
        snapshot, or ``None`` before the first parallel batch."""
        with self._pool_lock:
            pool = self._pool
        return pool.stats() if pool is not None else None

    def fabric_running(self) -> bool:
        """True when execution capacity is available: the pool is up,
        or the executor is serial and never needs one (the /readyz
        ``fabric_started`` check)."""
        if self.jobs <= 1:
            return True
        with self._pool_lock:
            return self._pool is not None

    def fabric_summary(self) -> Dict[str, Any]:
        """A never-``None`` digest of :meth:`fabric_stats` for status
        payloads and the /metrics fabric scope: worker population,
        per-pid heartbeat ages (and their max), and the dispatch /
        completion / requeue / crash counters — all zeros before the
        pool first spins up."""
        stats = self.fabric_stats()
        if stats is None:
            return {"running": self.jobs <= 1, "workers": 0, "busy": 0,
                    "heartbeat_age_s": {}, "heartbeat_age_max_s": None,
                    "dispatched": 0, "completed": 0, "requeued": 0,
                    "crashed": 0}
        ages = dict(stats["heartbeat_age_s"])
        return {
            "running": True,
            "workers": len(stats["alive"]),
            "busy": stats["busy"],
            "heartbeat_age_s": ages,
            "heartbeat_age_max_s": max(ages.values()) if ages else None,
            "dispatched": stats["dispatched"],
            "completed": stats["completed"],
            "requeued": stats["requeued"],
            "crashed": stats["crashed"],
        }

    def close(self) -> None:
        """Tear down the worker fabric (idempotent; a later parallel
        batch would lazily start a fresh pool)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
