"""The service core: admission, coalescing, dispatch.

The HTTP gateway (:mod:`repro.gateway`, ``esp-nuca gateway serve``)
serves simulations out of one process through this layer — everything
between "a validated grid request" and "a resolved
:class:`~repro.service.progress.Job`":

* grid expansion through :func:`~repro.harness.runner.grid_points`
  (the single source of truth that makes service results byte-identical
  to direct runs);
* the persistent run-cache fast path (hits are answered on the event
  loop and never reach a worker);
* in-flight coalescing + bounded all-or-nothing admission via
  :class:`~repro.service.queue.Scheduler` (typed
  :class:`~repro.service.queue.QueueFullError` rejects);
* ``workers`` asyncio dispatcher tasks pulling batches through the
  :class:`~repro.harness.executor.Executor` on a thread pool (the
  actual CPU work happens in the fabric's worker processes);
* the drain barrier: backlog finishes, every job resolves, dispatchers
  stop, the fabric's worker processes are torn down.

Everything here runs on one event loop thread; the gateway owns the
wire concerns (HTTP, authentication, persistence, trace capture) and
calls in.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.architectures.registry import architecture_names
from repro.common.config import CheckConfig, scaled_config
from repro.common.rng import perturbed_seeds
from repro.harness.executor import Executor
from repro.harness.runner import RunSettings, grid_points
from repro.obs import trace as obs
from repro.obs.logging import get_logger
from repro.service import queue as q
from repro.service.progress import TERMINAL, Job
from repro.sim.engines import ENGINES
from repro.workloads.registry import workload_names

_log = get_logger("core")


class ProtocolError(Exception):
    """A submit request with a missing or invalid field (the gateway
    answers it with a typed 400 ``bad-request``)."""


def check_int(message: Dict[str, Any], field: str, default: int,
              minimum: int) -> int:
    """Validated integer field of a request (used for settings knobs)."""
    value = message.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {field!r} must be an integer, "
                            f"got {value!r}")
    if value < minimum:
        raise ProtocolError(f"field {field!r} must be >= {minimum}, "
                            f"got {value}")
    return value


def check_names(message: Dict[str, Any], field: str,
                allowed: Optional[list] = None) -> list:
    """Validated non-empty list-of-strings field (architectures,
    workloads); ``allowed`` whitelists the values."""
    value = message.get(field)
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not value or \
            not all(isinstance(v, str) for v in value):
        raise ProtocolError(
            f"field {field!r} must be a non-empty list of strings")
    if allowed is not None:
        unknown = [v for v in value if v not in allowed]
        if unknown:
            raise ProtocolError(
                f"unknown {field}: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(allowed)})")
    return value


class ServiceCore:
    """Scheduler + dispatchers + executor behind the gateway.

    One core owns one :class:`Executor` (and through it the run cache
    and the worker fabric), one :class:`Scheduler`, and the job table.
    The gateway validates a request through :meth:`request_points`,
    then drives :meth:`create_job` / :meth:`admit`; everything
    downstream (coalescing, cache fast path, batched dispatch, drain)
    lives here.
    """

    def __init__(self, executor: Optional[Executor] = None,
                 defaults: Optional[RunSettings] = None, *,
                 queue_limit: int = 256, workers: int = 2,
                 batch: int = 8) -> None:
        for name, value in (("queue_limit", queue_limit),
                            ("workers", workers), ("batch", batch)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.executor = executor or Executor()
        self.defaults = defaults or RunSettings.from_env()
        self.queue_limit = queue_limit
        self.workers = workers
        self.batch = batch
        self.scheduler: Optional[q.Scheduler] = None
        self.jobs: Dict[str, Job] = {}
        # owner -> {job id: job} for the jobs not yet seen terminal, and
        # a tally of the ones that left it by terminal state: the
        # aggregate views read these, never the whole job table.
        self._live: Dict[str, Dict[str, Job]] = {}
        self._terminal: Dict[str, int] = {}
        self.draining = False
        self._workers: List[asyncio.Task] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._followers: Dict[str, List[Job]] = {}
        # SystemConfig per (capacity_factor, check-period) pair.
        self._configs: Dict[Tuple[int, int], Any] = {}
        # lifetime counters (the points section of GET /v1/status)
        self.points_requested = 0
        self.points_cached = 0
        self.points_coalesced = 0
        self.points_enqueued = 0
        self._busy = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Create the scheduler and spawn the dispatcher tasks."""
        self.scheduler = q.Scheduler(self.queue_limit)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="esp-nuca-sim")
        self._workers = [asyncio.ensure_future(self._worker())
                         for _ in range(self.workers)]

    async def drain(self) -> Dict[str, Any]:
        """Stop admitting, finish the backlog, resolve every job, stop
        the dispatchers and tear down the fabric's worker processes.
        Returns the drain summary; idempotent."""
        self.draining = True
        if self.scheduler is not None:
            self.scheduler.close()
        pending = [job.done for job, _ in self._live_states()
                   if not job.done.done()]
        if pending:
            await asyncio.wait(pending)
        if self._workers:
            await asyncio.wait(self._workers)
        alive = sum(1 for w in self._workers if not w.done())
        self._workers = []
        if self._pool is not None:
            # All batches have completed, so this returns immediately —
            # it exists to reap the dispatcher threads ("zero orphaned
            # workers" covers OS threads too).
            self._pool.shutdown(wait=True)
            self._pool = None
        # Tear down the fabric's simulation processes as well — the
        # drain barrier means no worker process outlives the gateway.
        self.executor.close()
        _log.info("core drained", jobs=len(self.jobs),
                  executed=self.executor.executed, workers_alive=alive)
        return {
            "drained": True,
            "jobs": len(self.jobs),
            "workers_alive": alive,
            "executed_points": self.executor.executed,
            "cache": self.cache_summary(),
        }

    def cache_summary(self) -> Dict[str, int]:
        cache = self.executor.cache
        return {"hits": cache.hits, "misses": cache.misses,
                "writes": cache.writes}

    # -- dispatcher side -----------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.scheduler.next_batch(self.batch)
            if batch is None:
                return
            for task in batch:
                for job in self._followers.get(task.key, ()):
                    job.mark_running([task.key])
            points = [task.point for task in batch]
            self._busy += 1
            self._emit_gauges()
            try:
                results = await loop.run_in_executor(
                    self._pool, self.executor.run, points)
            except BaseException as exc:  # noqa: BLE001 — batch-fatal
                for task in batch:
                    self.scheduler.finish(task, error=exc)
            else:
                for task, result in zip(batch, results):
                    self.scheduler.finish(task, result=result)
            finally:
                self._busy -= 1
                self._emit_gauges()
                for task in batch:
                    self._followers.pop(task.key, None)

    # -- gauges --------------------------------------------------------------

    def gauges(self) -> Dict[str, Any]:
        """Live load figures attached to every job snapshot (status and
        watch streams): queue depth and both worker populations —
        ``workers*`` are the asyncio dispatcher tasks, ``procs*`` the
        fabric's simulation processes (the real CPU utilization)."""
        return {
            "queue_backlog": self.scheduler.backlog,
            "queue_inflight": self.scheduler.inflight,
            "queue_limit": self.queue_limit,
            "workers_busy": self._busy,
            "workers": self.workers,
            "procs_busy": self.executor.procs_busy(),
            "procs": self.executor.jobs,
        }

    @property
    def busy(self) -> int:
        """Dispatcher tasks currently mid-batch."""
        return self._busy

    def _emit_gauges(self) -> None:
        """Counter-track samples on the active tracer (no-ops when
        tracing is off)."""
        tracer = obs.active()
        if tracer.enabled and tracer.wants("service"):
            ts = tracer.wall_now()
            tracer.counter(
                "service", "queue depth", ts=ts, pid=tracer.wall_pid,
                tid="service",
                values={"backlog": float(self.scheduler.backlog),
                        "inflight": float(self.scheduler.inflight)})
            tracer.counter(
                "service", "busy workers", ts=ts, pid=tracer.wall_pid,
                tid="service",
                values={"busy": float(self._busy),
                        "procs_busy": float(self.executor.procs_busy())})

    # -- request validation (shared JSON field rules) ------------------------

    @staticmethod
    def _build_config(capacity_factor: int, check: int):
        """The (cached) SystemConfig for a submission: scaled to the
        requested capacity, with the invariant checker enabled when the
        client asked for a checked run."""
        config = scaled_config(capacity_factor)
        if check:
            config = replace(config,
                             checks=CheckConfig(enabled=True, sample=check))
        return config

    def request_settings(self, message: Dict[str, Any]) -> RunSettings:
        """Validated :class:`RunSettings` from a request's ``settings``
        object; raises :class:`ProtocolError`."""
        raw = message.get("settings", {})
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ProtocolError("field 'settings' must be an object")
        known = ("refs_per_core", "warmup_refs_per_core", "capacity_factor",
                 "num_seeds", "base_seed", "engine")
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ProtocolError(
                f"unknown settings field(s): {', '.join(unknown)} "
                f"(known: {', '.join(known)})")
        engine = raw.get("engine", self.defaults.engine)
        if engine is not None and engine not in ENGINES:
            raise ProtocolError(
                f"unknown engine {engine!r}; choices: {', '.join(ENGINES)}")
        d = self.defaults
        return RunSettings(
            capacity_factor=check_int(
                raw, "capacity_factor", d.capacity_factor, 1),
            refs_per_core=check_int(
                raw, "refs_per_core", d.refs_per_core, 1),
            warmup_refs_per_core=check_int(
                raw, "warmup_refs_per_core", d.warmup_refs_per_core, 0),
            num_seeds=check_int(raw, "num_seeds", d.num_seeds, 1),
            base_seed=check_int(raw, "base_seed", d.base_seed, 0),
            engine=engine,
        )

    def request_seeds(self, message: Dict[str, Any],
                      settings: RunSettings) -> List[int]:
        seeds = message.get("seeds")
        if seeds is None:
            return perturbed_seeds(settings.base_seed, settings.num_seeds)
        if not isinstance(seeds, list) or not seeds or not all(
                isinstance(s, int) and not isinstance(s, bool)
                for s in seeds):
            raise ProtocolError(
                "field 'seeds' must be a non-empty list of integers")
        return seeds

    def request_points(self, message: Dict[str, Any]
                       ) -> Tuple[List, int]:
        """Validate one submit body into ``(points, priority)``; raises
        :class:`ProtocolError` on any bad field."""
        archs = check_names(message, "architectures",
                            allowed=architecture_names())
        workloads = check_names(message, "workloads",
                                allowed=workload_names())
        settings = self.request_settings(message)
        seeds = self.request_seeds(message, settings)
        priority = check_int(message, "priority", 0, -1_000_000)
        # ``check`` = invariant sweep period (0 = off, 1 = every access).
        check = check_int(message, "check", 0, 0)
        config_key = (settings.capacity_factor, check)
        config = self._configs.get(config_key)
        if config is None:
            config = self._configs[config_key] = \
                self._build_config(*config_key)
        points = grid_points(config, settings, archs, workloads, seeds)
        return points, priority

    # -- job admission -------------------------------------------------------

    def create_job(self, points: List, priority: int, owner: str,
                   job_id: str, keys: List[str]
                   ) -> Tuple[Job, "Dict[str, Any]"]:
        """Build the (not yet admitted) job for a point list; returns
        ``(job, unique_points)``. ``job_id`` is the gateway's stored id;
        ``keys`` are the points' cache keys, in order."""
        if job_id in self.jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        self.points_requested += len(points)
        order: List[str] = []
        unique: Dict[str, Any] = {}
        meta: Dict[str, Tuple[str, str, int]] = {}
        for point, key in zip(points, keys):
            order.append(key)
            unique.setdefault(key, point)
            meta[key] = (point.name, point.workload, point.seed)
        job = Job(job_id, order, meta, priority, owner)
        job.gauges = self.gauges
        return job, unique

    def admit(self, job: Job, unique: Dict[str, Any]) -> None:
        """Resolve cache hits, admit the rest (all or nothing), and
        register the job. Raises
        :class:`~repro.service.queue.QueueFullError` with the job
        unregistered — the caller just drops it."""
        missing: List[Tuple[str, Any]] = []
        for key, point in unique.items():
            cached = self.executor.cache.get_payload(key)
            if cached is not None:
                job.resolve_cached(key, cached)
                self.points_cached += 1
            else:
                missing.append((key, point))
        tasks, coalesced = self.scheduler.admit(missing, job.priority)
        job.coalesced = coalesced
        self.points_coalesced += coalesced
        self.points_enqueued += len(missing) - coalesced
        for key, task in tasks.items():
            job.attach(key, task)
            self._followers.setdefault(key, []).append(job)
        self.jobs[job.id] = job
        self._live.setdefault(job.owner, {})[job.id] = job
        _log.debug("job admitted to core", job=job.id, owner=job.owner,
                   unique=len(unique), cached=job.cached,
                   coalesced=coalesced,
                   enqueued=len(missing) - coalesced)

    def get_job(self, job_id: Any) -> Optional[Job]:
        return self.jobs.get(job_id) if isinstance(job_id, str) else None

    # -- aggregate views -----------------------------------------------------

    def _live_states(self, owner: Optional[str] = None
                     ) -> List[Tuple[Job, str]]:
        """``(job, state)`` for every unfinished job (of one owner).
        Terminal states are final, so a job found terminal leaves the
        live map here and is tallied once. Works on copies: perfbench
        reads :meth:`active_jobs` from outside the event loop thread."""
        tables = (list(self._live.values()) if owner is None
                  else [self._live.get(owner, {})])
        live: List[Tuple[Job, str]] = []
        for table in tables:
            for job in list(table.values()):
                state = job.state
                if state not in TERMINAL:
                    live.append((job, state))
                elif table.pop(job.id, None) is not None:
                    self._terminal[state] = self._terminal.get(state, 0) + 1
        return live

    def active_jobs(self, owner: Optional[str] = None) -> int:
        """Unfinished jobs, optionally restricted to one owner (the
        gateway's per-tenant concurrent-job quota)."""
        return len(self._live_states(owner))

    def active_points(self, owner: Optional[str] = None) -> int:
        """Unfinished unique points across (an owner's) live jobs (the
        gateway's per-tenant queue-depth quota)."""
        return sum(1 for job, _ in self._live_states(owner)
                   for state in job.states.values()
                   if state in (q.QUEUED, q.RUNNING))

    def jobs_by_state(self) -> Dict[str, int]:
        live = self._live_states()
        by_state = dict(self._terminal)
        for _, state in live:
            by_state[state] = by_state.get(state, 0) + 1
        return by_state

    def queue_status(self) -> Dict[str, int]:
        return {"backlog": self.scheduler.backlog,
                "inflight": self.scheduler.inflight,
                "limit": self.queue_limit}

    def points_status(self) -> Dict[str, int]:
        return {"requested": self.points_requested,
                "cached": self.points_cached,
                "coalesced": self.points_coalesced,
                "enqueued": self.points_enqueued,
                "executed": self.executor.executed}
