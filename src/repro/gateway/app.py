"""The HTTP gateway: durable, multi-tenant front end over the core.

``esp-nuca gateway serve`` runs one :class:`Gateway`: the
:class:`~repro.service.core.ServiceCore` (scheduler, coalescing, cache
fast path and worker fabric) plus —

* **durability**: every admitted job is written to the
  :class:`~repro.gateway.store.JobStore` before the client hears
  "admitted"; results are persisted by content hash as jobs finish. On
  startup :meth:`Gateway._recover` re-expands every stored
  ``queued``/``running`` job through the exact same
  ``grid_points`` path and re-admits it — points that already ran
  resolve instantly from the run cache, so a SIGKILL'd gateway's
  backlog completes after restart with byte-identical results;
* **identity**: ``Authorization: Bearer <api-key>`` resolves to a
  tenant (sha256 lookup, :mod:`repro.gateway.auth`); every job is owned,
  listings and access are tenant-scoped (cross-tenant access is an
  indistinguishable 404), and per-tenant ``gateway.tenants.<name>``
  stats scopes count admits/rejects/rate hits;
* **admission control**: a per-tenant token bucket rate-limits
  submissions (typed 429 + ``Retry-After``), and per-tenant
  concurrent-job / queue-depth quotas bound what any one tenant can
  occupy (typed 429) — all before the core's own all-or-nothing
  queue admission (typed 503 when the shared queue itself is full);
* **event tracing** (``allow_anonymous`` gateways only): a submit with
  ``"trace": true`` captures that job with the process-global tracer
  (one traced job at a time), exports it to ``REPRO_TRACE_DIR`` and
  serves it at ``GET /v1/jobs/{id}/trace``. The capture records every
  job the gateway runs meanwhile, whoever owns it, so a keyed
  (multi-tenant) gateway refuses traced submits.

Request→response behavior is defined by ``GET /openapi.json``
(:mod:`repro.gateway.openapi`); docs/gateway.md is the narrative
version.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.statsreg import StatsRegistry
from repro.gateway import http
from repro.gateway.auth import TokenBucket
from repro.gateway.openapi import spec as openapi_spec
from repro.gateway.store import STORED_TERMINAL, JobStore
from repro.harness.executor import Executor
from repro.harness.runner import RunSettings
from repro.obs import metrics as obsmetrics
from repro.obs import trace as obs
from repro.obs.export import write_chrome
from repro.obs.logging import get_logger, log_context
from repro.service import queue as q
from repro.service.core import ProtocolError, ServiceCore
from repro.service.progress import TERMINAL, Job

#: Submit fields persisted for recovery (the canonical request is what
#: re-expands to the identical grid after a restart). ``trace`` is not
#: one of them: a recovered job re-runs untraced.
REQUEST_FIELDS = ("architectures", "workloads", "seeds", "settings",
                  "priority", "check")

#: Reject-reason counter names under ``gateway.rejects`` — one per typed
#: admission or access failure class.
REJECT_REASONS = ("auth", "bad-request", "quota-jobs", "quota-points",
                  "rate-limited", "queue-full", "draining", "not-found")


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway knobs. ``queue_limit``/``workers``/``batch`` size the
    :class:`ServiceCore`; the ``anon_*`` fields are the pseudo-tenant
    quota applied when ``allow_anonymous`` is set (dev/test mode —
    production gateways should require keys)."""

    bind: Tuple = ("tcp", "127.0.0.1", 8643)
    db_path: str = "gateway.sqlite"
    queue_limit: int = 256
    workers: int = 2
    batch: int = 8
    allow_anonymous: bool = False
    anon_max_jobs: int = 16
    anon_max_points: int = 1024
    anon_rate_capacity: float = 100.0
    anon_rate_refill: float = 50.0
    #: Telemetry master switch: per-route latency histograms, per-tenant
    #: request counters, and the ``/metrics`` exporter. On by default;
    #: ``False`` is the A/B baseline arm of bench_telemetry.py.
    telemetry: bool = True


@dataclass
class TenantState:
    """A resolved request identity: quotas + the in-memory rate bucket.

    Buckets are per-process (they reset on restart, which only ever
    lets a tenant burst once more — acceptable for a rate limit whose
    job is smoothing, not billing)."""

    name: str
    max_jobs: int
    max_points: int
    bucket: TokenBucket
    anonymous: bool = False

    @property
    def owner(self) -> str:
        return self.name

    @property
    def stored_tenant(self) -> Optional[str]:
        return None if self.anonymous else self.name


# -- runtime metric collectors (docs/observability.md, "Live telemetry") ------

def _queue_collector(core: ServiceCore):
    """Queue/dispatcher gauges and lifetime point counters."""

    def collect() -> Iterator[Tuple]:
        if core.scheduler is None:
            status = {"backlog": 0, "inflight": 0, "limit": core.queue_limit}
        else:
            status = core.queue_status()
        yield ("queue_backlog", "gauge",
               "grid points waiting for dispatch", {}, status["backlog"])
        yield ("queue_inflight", "gauge",
               "grid points currently executing", {}, status["inflight"])
        yield ("queue_limit", "gauge",
               "bounded queue capacity", {}, status["limit"])
        yield ("dispatchers", "gauge",
               "asyncio dispatcher tasks", {}, core.workers)
        yield ("dispatchers_busy", "gauge",
               "dispatcher tasks currently mid-batch", {}, core.busy)
        yield ("points_requested_total", "counter",
               "grid points requested since process start", {},
               core.points_requested)
        yield ("points_cached_total", "counter",
               "points answered from the run cache at admission", {},
               core.points_cached)
        yield ("points_coalesced_total", "counter",
               "points coalesced onto in-flight duplicates", {},
               core.points_coalesced)
        yield ("points_enqueued_total", "counter",
               "points enqueued for execution", {}, core.points_enqueued)

    return collect


def _fabric_collector(executor: Executor):
    """Worker-fabric gauges: population, heartbeat age, crash/requeue
    counters (zeros until the pool spins up)."""

    def collect() -> Iterator[Tuple]:
        summary = executor.fabric_summary()
        yield ("fabric_running", "gauge",
               "1 when the worker pool is up (or execution is serial)",
               {}, 1 if summary["running"] else 0)
        yield ("fabric_workers", "gauge",
               "live fabric worker processes", {}, summary["workers"])
        yield ("fabric_busy", "gauge",
               "fabric workers with an assigned batch", {},
               summary["busy"])
        yield ("fabric_dispatched_total", "counter",
               "batches handed to fabric workers", {},
               summary["dispatched"])
        yield ("fabric_completed_total", "counter",
               "batches completed by fabric workers", {},
               summary["completed"])
        yield ("fabric_requeued_total", "counter",
               "batches requeued after a worker crash", {},
               summary["requeued"])
        yield ("fabric_crashed_total", "counter",
               "fabric worker processes that died unexpectedly", {},
               summary["crashed"])
        for pid, age in summary["heartbeat_age_s"].items():
            yield ("fabric_heartbeat_age_seconds", "gauge",
                   "seconds since each live worker's last heartbeat",
                   {"pid": str(pid)}, age)
        if summary["heartbeat_age_max_s"] is not None:
            yield ("fabric_heartbeat_age_max_seconds", "gauge",
                   "worst heartbeat age across live workers", {},
                   summary["heartbeat_age_max_s"])
        yield ("executed_points_total", "counter",
               "points actually simulated (cache misses)", {},
               executor.executed)

    return collect


def _cache_collector(cache):
    """Run-cache session counters, memo occupancy, and on-disk usage
    (served from the mtime-revalidated shard index — no directory sweep
    per scrape)."""

    def collect() -> Iterator[Tuple]:
        yield ("cache_hits_total", "counter",
               "run-cache lookups answered from the memo or disk", {},
               cache.hits)
        yield ("cache_memo_hits_total", "counter",
               "run-cache hits answered from the in-process memo (one "
               "stat, no read)", {}, cache.memo_hits)
        yield ("cache_misses_total", "counter",
               "run-cache lookups that missed", {}, cache.misses)
        yield ("cache_writes_total", "counter",
               "run-cache entries written", {}, cache.writes)
        lookups = cache.hits + cache.misses
        yield ("cache_hit_ratio", "gauge",
               "session hit ratio (hits / lookups)", {},
               (cache.hits / lookups) if lookups else 0.0)
        entries, size = cache.memo_usage()
        yield ("cache_memo_entries", "gauge",
               "entries in the in-process memo", {}, entries)
        yield ("cache_memo_bytes", "gauge",
               "counted bytes in the in-process memo", {}, size)
        if cache.enabled:
            entries, size = cache.usage()
            yield ("cache_entries", "gauge",
                   "entries in the current cache generation", {}, entries)
            yield ("cache_bytes", "gauge",
                   "bytes in the current cache generation", {}, size)

    return collect


class Gateway:
    """One HTTP gateway process: core + store + auth + admission."""

    def __init__(self, config: Optional[GatewayConfig] = None,
                 executor: Optional[Executor] = None,
                 settings: Optional[RunSettings] = None,
                 store: Optional[JobStore] = None) -> None:
        self.config = config or GatewayConfig()
        self.core = ServiceCore(executor, settings,
                                queue_limit=self.config.queue_limit,
                                workers=self.config.workers,
                                batch=self.config.batch)
        self.store = store or JobStore.open(self.config.db_path)
        self.address: Optional[Tuple] = None
        self.registry = StatsRegistry()
        gw = self.registry.scope("gateway")
        self.c_requests = gw.counter("http_requests")
        self.c_admits = gw.counter("admits")
        self.c_recovered = gw.counter("recovered")
        self.c_persisted = gw.counter("results_persisted")
        rejects = gw.scope("rejects")
        self.c_rejects = {reason: rejects.counter(reason.replace("-", "_"))
                          for reason in REJECT_REASONS}
        self._tenant_scopes = gw.scope("tenants")
        self._routes_scope = gw.scope("routes")
        self._route_stats: Dict[str, Tuple] = {}
        self._tenant_requests: Dict[str, Any] = {}
        self._telemetry = self.config.telemetry
        self.log = get_logger("gateway")
        self._buckets: Dict[str, TokenBucket] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: set = set()
        self._trackers: set = set()
        self._recover_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._shutting_down = False
        self.recovery_done: Optional[asyncio.Event] = None
        # Event-trace capture (one traced job at a time; the tracer is
        # process-global while it is active).
        self._trace_job: Optional[str] = None
        self._tracer: Optional[obs.Tracer] = None
        self._trace_prev: Any = None
        self.exporter: Optional[obsmetrics.MetricsExporter] = (
            self._build_exporter() if self._telemetry else None)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple:
        """Start the core, spin up the fabric, bind the HTTP server,
        and kick off backlog recovery in the background (startup never
        blocks on a large backlog). Returns the live address."""
        await self.core.start()
        # Recovered batches should not pay pool-spawn latency.
        self.core.executor.prestart()
        self._stopped = asyncio.Event()
        self.recovery_done = asyncio.Event()
        bind = self.config.bind
        if bind[0] == "unix":
            self._server = await asyncio.start_unix_server(
                self._serve_conn, path=bind[1])
            self.address = bind
        else:
            self._server = await asyncio.start_server(
                self._serve_conn, host=bind[1], port=bind[2])
            port = self._server.sockets[0].getsockname()[1]
            self.address = ("tcp", bind[1], port)
        self._recover_task = asyncio.ensure_future(self._recover())
        return self.address

    async def serve_forever(self) -> None:
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()
        for conn in list(self._conns):
            conn.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)

    async def shutdown(self) -> Dict[str, Any]:
        """Graceful stop: finish recovery admissions, drain the core
        (all jobs resolve, fabric torn down), flush trackers so every
        result row is committed, release sockets and the store."""
        if self._stopped is not None and self._stopped.is_set():
            return {"drained": True, "already_stopped": True}
        self._shutting_down = True
        if self._recover_task is not None and not self._recover_task.done():
            # Recovery waits for queue room; draining would deadlock
            # against it. It checks _shutting_down between admissions.
            await self._recover_task
        summary = await self.core.drain()
        if self._trackers:
            await asyncio.gather(*self._trackers, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            self._server = None
        if self.address is not None and self.address[0] == "unix":
            try:
                os.unlink(self.address[1])
            except OSError:
                pass
        summary["store"] = self.store.counts_by_state()
        self.store.close()
        if self._stopped is not None:
            self._stopped.set()
        self.log.info("gateway drained", jobs=summary.get("jobs"),
                      executed=summary.get("executed_points"))
        return summary

    # -- recovery ------------------------------------------------------------

    async def _recover(self) -> None:
        """Re-admit every stored ``queued``/``running`` job through the
        core. Runs as a background task: a 1k-job backlog cannot fit the
        bounded queue at once, so this loop waits for room between
        admissions instead of blocking startup or overrunning the
        queue's all-or-nothing contract."""
        try:
            rows = self.store.unfinished_jobs()
            for row in rows:
                if self._shutting_down:
                    break
                current = self.store.get_job(row["id"])
                if current is None or current["state"] in STORED_TERMINAL:
                    continue  # cancelled through the API while we waited
                try:
                    request = json.loads(row["request"])
                    points, priority = self.core.request_points(request)
                except (ValueError, ProtocolError) as exc:
                    # A request that no longer validates (schema drift,
                    # removed workload) can never run again.
                    self.store.set_job_state(
                        row["id"], "failed", f"unrecoverable: {exc}")
                    continue
                owner = row["tenant"] if row["tenant"] is not None else "anon"
                job = await self._admit_when_room(
                    points, priority, owner, job_id=f"g{row['id']}")
                if job is None:
                    break  # shutting down
                self.store.set_job_state(row["id"], "queued")
                self._start_tracker(job, row["id"])
                job.seal()
                self.c_recovered.inc()
                self._tenant_scope(owner).counter("recovered").inc()
                self.log.info("job recovered", job=f"g{row['id']}",
                              tenant=owner)
        finally:
            self.recovery_done.set()
            self.log.info("recovery complete",
                          recovered=self.c_recovered.value)

    async def _admit_when_room(self, points: List, priority: int,
                               owner: str, job_id: str) -> Optional[Job]:
        """Admit, waiting for queue capacity instead of rejecting —
        recovery must never drop a stored job on the floor. Returns
        ``None`` only when the gateway is shutting down."""
        keys = [p.key for p in points]
        unique_count = len(set(keys))
        while True:
            if self._shutting_down:
                return None
            backlog = self.core.scheduler.backlog
            if backlog + unique_count > self.config.queue_limit and backlog:
                await asyncio.sleep(0.05)
                continue
            job, unique = self.core.create_job(points, priority, owner,
                                               job_id=job_id, keys=keys)
            try:
                self.core.admit(job, unique)
                return job
            except q.QueueFullError:
                # Lost a race with a live submission; retry. (The job
                # was never registered, so recreating it is clean.)
                await asyncio.sleep(0.05)

    # -- job tracking (write-behind persistence) -----------------------------

    def _start_tracker(self, job: Job, pk: int) -> None:
        task = asyncio.ensure_future(self._track(job, pk))
        self._trackers.add(task)
        task.add_done_callback(self._trackers.discard)

    async def _track(self, job: Job, pk: int) -> None:
        """Follow one job's progress stream and persist transitions:
        ``running`` on first dispatch, then at terminal state the result
        payloads (by content hash) *before* the terminal job row — so a
        crash between the two can only under-report completion, never
        claim results that are not durable. The run cache backstops the
        reverse gap."""
        channel = job.subscribe()
        stored_state = "queued"
        try:
            while True:
                snap = await channel.get()
                if snap is None:
                    break
                state = snap["state"]
                if state == "running" and stored_state == "queued":
                    self.store.set_job_state(pk, "running")
                    stored_state = "running"
        finally:
            job.unsubscribe(channel)
        state = job.state
        if state == "done":
            payloads = {key: job.payloads[key]
                        for key in dict.fromkeys(job.order)}
            self.store.record_results(payloads)
            self.c_persisted.inc(len(payloads))
            self.store.set_job_state(pk, "done")
        elif state == "failed":
            detail = "; ".join(sorted(set(job.errors.values()))) or "failed"
            self.store.set_job_state(pk, "failed", detail[:2000])
        else:
            self.store.set_job_state(pk, "cancelled")

    # -- event tracing -------------------------------------------------------

    def _begin_trace(self, job: Job) -> obs.Tracer:
        """Install a process-global tracer for one job's lifetime.

        The capture is process-wide: it records every simulation the
        executor runs while the job is active. For a clean single-job
        trace run the gateway serially (``--workers 1``, one
        dispatcher). Sim-clock events of points dispatched to the
        worker fabric stay in the worker processes (the executor emits
        a ``pool run`` marker instead).
        """
        tracer = obs.Tracer()
        self._trace_job = job.id
        self._tracer = tracer
        self._trace_prev = obs.install(tracer)
        job.trace = True
        return tracer

    def _abort_trace(self) -> None:
        """Undo :meth:`_begin_trace` when admission fails."""
        if self._tracer is None:
            return
        obs.install(self._trace_prev)
        self._trace_job = None
        self._tracer = None
        self._trace_prev = None

    def _trace_admitted(self, tracer: obs.Tracer, job: Job,
                        points: int) -> None:
        """Mark the admission on the job's track and export the capture
        once the job reaches a terminal state."""
        if tracer.wants("service"):
            tracer.instant(
                "service", "job admitted", ts=tracer.wall_now(),
                pid=tracer.wall_pid, tid=f"job {job.id}",
                args={"points": points, "cached": job.cached,
                      "coalesced": job.coalesced})
        self.core._emit_gauges()
        job.done.add_done_callback(lambda fut: self._finish_trace(job))

    def _finish_trace(self, job: Job) -> None:
        """Job reached a terminal state: render its lifecycle spans,
        export the capture to ``REPRO_TRACE_DIR``, and restore the
        previous tracer."""
        tracer = self._tracer
        self._abort_trace()
        if tracer is None:  # already finished (defensive)
            return
        if tracer.wants("service") and job.timeline:
            tid = f"job {job.id}"
            for (state, ts), (_, ts_next) in zip(job.timeline,
                                                 job.timeline[1:]):
                tracer.complete("service", state, ts=ts, dur=ts_next - ts,
                                pid=tracer.wall_pid, tid=tid)
            last_state, last_ts = job.timeline[-1]
            tracer.instant("service", last_state, ts=last_ts,
                           pid=tracer.wall_pid, tid=tid,
                           args={"job": job.id})
        directory = (os.environ.get("REPRO_TRACE_DIR")
                     or os.path.join(tempfile.gettempdir(),
                                     "esp-nuca-traces"))
        path = os.path.join(directory, f"{job.id}.trace.json")
        try:
            os.makedirs(directory, exist_ok=True)
            write_chrome(tracer, path)
        except OSError as exc:
            self.log.warning("trace export failed", job=job.id,
                             path=path, error=str(exc))
            job.trace_error = "trace export failed (see the gateway log)"
        else:
            job.trace_path = path

    # -- telemetry -----------------------------------------------------------

    def _build_exporter(self) -> obsmetrics.MetricsExporter:
        """The ``/metrics`` exporter: the gateway registry (tenant /
        reject / route families folded into labels) plus runtime
        collectors over queue, fabric, cache, store and health."""
        exporter = obsmetrics.MetricsExporter()
        exporter.mount_registry(self.registry, label_scopes={
            "gateway.tenants": "tenant",
            "gateway.rejects": "reason",
            "gateway.routes": "route",
        })
        exporter.add_collector(_queue_collector(self.core))
        exporter.add_collector(_fabric_collector(self.core.executor))
        exporter.add_collector(_cache_collector(self.core.executor.cache))
        exporter.add_collector(self._health_metrics)
        exporter.add_collector(self._store_metrics)
        return exporter

    def readiness(self) -> Tuple[bool, Dict[str, bool]]:
        """The ``/readyz`` verdict: the store is fully migrated, the
        worker fabric is up (or execution is serial), and the queue
        accepts admissions (exists, not draining). False before
        migrations have run and from the moment a drain begins."""
        try:
            migrated = not self.store.pending_migrations()
        except Exception:  # noqa: BLE001 — unreadable store is not ready
            migrated = False
        checks = {
            "store_migrated": migrated,
            "fabric_started": self.core.executor.fabric_running(),
            "queue_accepting": (self.core.scheduler is not None
                                and not self.core.draining
                                and not self._shutting_down),
        }
        return all(checks.values()), checks

    def _health_metrics(self) -> Iterator[Tuple]:
        ready, checks = self.readiness()
        yield ("ready", "gauge", "1 when /readyz reports ready", {},
               1 if ready else 0)
        for name, ok in checks.items():
            yield ("ready_check", "gauge",
                   "individual /readyz check results", {"check": name},
                   1 if ok else 0)
        yield ("draining", "gauge", "1 while the core is draining", {},
               1 if self.core.draining else 0)
        yield ("recovering", "gauge",
               "1 while stored backlog recovery is in progress", {},
               0 if (self.recovery_done is None
                     or self.recovery_done.is_set()) else 1)

    def _store_metrics(self) -> Iterator[Tuple]:
        try:
            counts = self.store.counts_by_state()
            results = self.store.result_count()
        except Exception:  # noqa: BLE001 — store closed mid-scrape
            return
        for state, count in sorted(counts.items()):
            yield ("store_jobs", "gauge", "stored job rows by state",
                   {"state": state}, count)
        yield ("store_results", "gauge",
               "persisted result payloads (by content hash)", {}, results)

    #: Route templates for per-route metrics: label values and registry
    #: scope names (so they avoid ``.`` and ``/``), derived from the
    #: path alone so even rejected requests land in the right bucket.
    _ROUTE_KEYS = {
        ("healthz",): "healthz",
        ("metrics",): "metrics",
        ("readyz",): "readyz",
        ("openapi.json",): "openapi",
        ("v1", "status"): "v1_status",
        ("v1", "jobs"): "v1_jobs",
    }

    @classmethod
    def _route_key(cls, path: str) -> str:
        parts = tuple(p for p in path.split("/") if p)
        known = cls._ROUTE_KEYS.get(parts)
        if known is not None:
            return known
        if len(parts) == 3 and parts[:2] == ("v1", "jobs"):
            return "v1_jobs_id"
        if len(parts) == 4 and parts[:2] == ("v1", "jobs") and \
                parts[3] in ("results", "events", "trace"):
            return f"v1_jobs_id_{parts[3]}"
        return "other"

    def _observe_request(self, route: str, elapsed_s: float, *,
                         error: bool, aborted: bool) -> None:
        """Record one finished (or aborted) request against its route
        scope. Called from exactly one ``finally`` per request, so each
        request counts once no matter how it ended."""
        if self._telemetry:
            stats = self._route_stats.get(route)
            if stats is None:
                scope = self._routes_scope.scope(route)
                stats = (scope.counter("requests"), scope.counter("errors"),
                         scope.counter("aborted"),
                         scope.histogram("latency_us"))
                self._route_stats[route] = stats
            requests, errors, aborts, latency = stats
            requests.inc()
            if error:
                errors.inc()
            if aborted:
                aborts.inc()
            latency.record(int(elapsed_s * 1e6))
        self.log.debug("request", route=route,
                       ms=round(elapsed_s * 1000, 3), error=error,
                       aborted=aborted)

    # -- auth + admission control --------------------------------------------

    def _tenant_scope(self, name: str):
        return self._tenant_scopes.scope(name)

    def _reject(self, tenant: Optional[TenantState], reason: str,
                status: int, code: str, message: str,
                headers: Optional[Dict[str, str]] = None) -> http.HttpError:
        self.c_rejects[reason].inc()
        if tenant is not None:
            self._tenant_scope(tenant.name).counter("rejects").inc()
        self.log.debug("request rejected", reason=reason, status=status,
                       code=code,
                       tenant=None if tenant is None else tenant.name)
        return http.HttpError(status, code, message, headers=headers)

    def _authenticate(self, request: http.Request) -> TenantState:
        header = request.headers.get("authorization")
        if header is None:
            if self.config.allow_anonymous:
                cfg = self.config
                bucket = self._buckets.setdefault(
                    "anon", TokenBucket(cfg.anon_rate_capacity,
                                        cfg.anon_rate_refill))
                return TenantState("anon", cfg.anon_max_jobs,
                                   cfg.anon_max_points, bucket,
                                   anonymous=True)
            raise self._reject(
                None, "auth", 401, "auth-required",
                "missing Authorization header (Bearer <api-key>)",
                headers={"WWW-Authenticate": "Bearer"})
        scheme, _, key = header.partition(" ")
        if scheme.lower() != "bearer" or not key.strip():
            raise self._reject(None, "auth", 401, "auth-malformed",
                               "Authorization must be 'Bearer <api-key>'",
                               headers={"WWW-Authenticate": "Bearer"})
        row = self.store.find_tenant_by_key(key.strip())
        if row is None:
            raise self._reject(None, "auth", 403, "auth-invalid",
                               "unknown API key")
        bucket = self._buckets.setdefault(
            row["name"], TokenBucket(row["rate_capacity"],
                                     row["rate_refill"]))
        return TenantState(row["name"], int(row["max_jobs"]),
                           int(row["max_points"]), bucket)

    # -- HTTP plumbing -------------------------------------------------------

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        self._conns.add(asyncio.current_task())
        try:
            while True:
                try:
                    request = await http.read_request(reader)
                except http.HttpError as exc:
                    await http.send_error(writer, exc)
                    if exc.close:
                        break
                    continue
                if request is None:
                    break
                self.c_requests.inc()
                keep = request.keep_alive
                route = self._route_key(request.path)
                started = time.perf_counter()
                error = aborted = stream_closed = stop = False
                try:
                    try:
                        stream_closed = await self._dispatch(request, reader,
                                                             writer)
                    except http.HttpError as exc:
                        error = True
                        await http.send_error(writer, exc, keep_alive=keep)
                        if exc.close or not keep:
                            stop = True
                    except (ConnectionResetError, BrokenPipeError):
                        aborted = True
                        raise
                    except asyncio.CancelledError:
                        aborted = True
                        raise
                    except Exception as exc:  # noqa: BLE001 — keep serving
                        error = True
                        await http.send_error(writer, http.HttpError(
                            500, "internal", f"{type(exc).__name__}: {exc}"),
                            keep_alive=keep)
                        if not keep:
                            stop = True
                finally:
                    # One finally per request — runs on normal completion,
                    # typed errors, disconnects and cancellation alike, so
                    # every request is observed exactly once.
                    self._observe_request(
                        route, time.perf_counter() - started,
                        error=error, aborted=aborted)
                if stop or stream_closed or not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._conns.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, request: http.Request,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns True when the handler consumed
        the connection (streaming responses, which also watch ``reader``
        for the client going away)."""
        parts = [p for p in request.path.split("/") if p]
        keep = request.keep_alive

        if parts == ["healthz"]:
            self._need_method(request, "GET")
            await http.send_json(writer, 200, {
                "ok": True, "draining": self.core.draining,
                "recovering": not (self.recovery_done is None
                                   or self.recovery_done.is_set())},
                keep_alive=keep)
            return False
        if parts == ["readyz"]:
            self._need_method(request, "GET")
            ready, checks = self.readiness()
            await http.send_json(writer, 200 if ready else 503,
                                 {"ready": ready, "checks": checks},
                                 keep_alive=keep)
            return False
        if parts == ["metrics"]:
            self._need_method(request, "GET")
            if self.exporter is None:
                raise http.HttpError(503, "telemetry-disabled",
                                     "telemetry is disabled on this gateway")
            await http.send_text(writer, 200, self.exporter.render(),
                                 content_type=obsmetrics.CONTENT_TYPE,
                                 keep_alive=keep)
            return False
        if parts == ["openapi.json"]:
            self._need_method(request, "GET")
            await http.send_json(writer, 200, openapi_spec(),
                                 keep_alive=keep)
            return False

        tenant = self._authenticate(request)
        if self._telemetry:
            # Exactly once per authenticated request: _authenticate runs
            # once per dispatch, before any handler can raise or stream.
            # The counter object is cached per tenant — this is the
            # hottest telemetry site.
            counter = self._tenant_requests.get(tenant.name)
            if counter is None:
                counter = self._tenant_scope(tenant.name).counter("requests")
                self._tenant_requests[tenant.name] = counter
            counter.inc()
        if parts == ["v1", "status"]:
            self._need_method(request, "GET")
            await http.send_json(writer, 200, self.server_status(),
                                 keep_alive=keep)
            return False
        if parts == ["v1", "jobs"]:
            if request.method == "POST":
                await self._submit(request, writer, tenant)
                return False
            self._need_method(request, "GET")
            await self._list_jobs(request, writer, tenant)
            return False
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            pk, job, row = self._resolve_job(parts[2], tenant)
            if request.method == "DELETE":
                await self._cancel(writer, keep, pk, job, row)
                return False
            self._need_method(request, "GET")
            await self._job_snapshot(request, writer, keep, job, row)
            return False
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
            pk, job, row = self._resolve_job(parts[2], tenant)
            self._need_method(request, "GET")
            if parts[3] == "results":
                await self._results(writer, keep, job, row)
                return False
            if parts[3] == "events":
                await self._events(reader, writer, job, row)
                return True
            if parts[3] == "trace":
                await self._trace(writer, keep, job, row)
                return False
        raise self._reject(tenant if parts[:1] == ["v1"] else None,
                           "not-found", 404, "not-found",
                           f"no route for {request.method} {request.path}")

    @staticmethod
    def _need_method(request: http.Request, method: str) -> None:
        if request.method != method:
            raise http.HttpError(
                405, "method-not-allowed",
                f"{request.path} accepts {method}, not {request.method}",
                headers={"Allow": method})

    # -- handlers ------------------------------------------------------------

    async def _submit(self, request: http.Request,
                      writer: asyncio.StreamWriter,
                      tenant: TenantState) -> None:
        if self.core.draining:
            raise self._reject(tenant, "draining", 503, "draining",
                               "gateway is draining; no new jobs",
                               headers={"Retry-After": "30"})
        ok, retry_after = tenant.bucket.take()
        if not ok:
            self._tenant_scope(tenant.name).counter("rate_hits").inc()
            raise self._reject(
                tenant, "rate-limited", 429, "rate-limited",
                f"tenant {tenant.name!r} exceeded its request rate",
                headers={"Retry-After": str(max(1, math.ceil(retry_after)))})
        body = request.json()
        try:
            points, priority = self.core.request_points(body)
        except ProtocolError as exc:
            raise self._reject(tenant, "bad-request", 400, "bad-request",
                               str(exc))
        trace = body.get("trace", False)
        if not isinstance(trace, bool):
            raise self._reject(tenant, "bad-request", 400, "bad-request",
                               f"field 'trace' must be a boolean, "
                               f"got {trace!r}")
        if trace and not self.config.allow_anonymous:
            raise self._reject(
                tenant, "bad-request", 400, "bad-request",
                "traced submits need a gateway started with "
                "--allow-anonymous (a trace records every tenant's "
                "concurrent work)")
        if trace and self._trace_job is not None:
            raise self._reject(tenant, "bad-request", 400, "bad-request",
                               "another job is already being traced "
                               "(one traced job at a time)")
        active = self.core.active_jobs(owner=tenant.owner)
        if active >= tenant.max_jobs:
            raise self._reject(
                tenant, "quota-jobs", 429, "quota-jobs",
                f"tenant {tenant.name!r} already has {active} unfinished "
                f"job(s) (limit {tenant.max_jobs})")
        keys = [p.key for p in points]
        unique_count = len(set(keys))
        in_flight = self.core.active_points(owner=tenant.owner)
        if in_flight + unique_count > tenant.max_points:
            raise self._reject(
                tenant, "quota-points", 429, "quota-points",
                f"submission would put tenant {tenant.name!r} at "
                f"{in_flight + unique_count} unfinished point(s) "
                f"(limit {tenant.max_points})")

        stored_request = {key: body[key] for key in REQUEST_FIELDS
                          if key in body and body[key] is not None}
        pk = self.store.create_job(
            stored_request, priority, tenant.stored_tenant,
            [(key, p.name, p.workload, p.seed)
             for key, p in zip(keys, points)])
        with log_context(job=f"g{pk}", tenant=tenant.name):
            job, unique = self.core.create_job(points, priority,
                                               tenant.owner,
                                               job_id=f"g{pk}", keys=keys)
            tracer = self._begin_trace(job) if trace else None
            try:
                self.core.admit(job, unique)
            except q.QueueFullError as exc:
                self._abort_trace()
                # Never admitted ⇒ must not be "recovered" after restart.
                self.store.delete_job(pk)
                raise self._reject(tenant, "queue-full", 503, "queue-full",
                                   str(exc), headers={"Retry-After": "5"})
            self._start_tracker(job, pk)
            if tracer is not None:
                self._trace_admitted(tracer, job, len(points))
            job.seal()
            self.log.info("job admitted", points=len(points),
                          unique=unique_count, cached=job.cached,
                          coalesced=job.coalesced, priority=priority)
        self.c_admits.inc()
        self._tenant_scope(tenant.name).counter("admits").inc()
        reply = job.snapshot()
        reply["cached"] = job.cached
        results = job.results()
        if results is not None:  # grid served entirely from cache
            reply["results"] = results
        await http.send_json(writer, 201, reply,
                             keep_alive=request.keep_alive)

    async def _list_jobs(self, request: http.Request,
                         writer: asyncio.StreamWriter,
                         tenant: TenantState) -> None:
        try:
            limit = min(1000, max(1, int(request.query.get("limit", "100"))))
        except ValueError:
            raise http.HttpError(400, "bad-request",
                                 "limit must be an integer")
        rows = self.store.list_jobs(tenant.stored_tenant, limit)
        jobs = []
        for row in rows:
            gid = f"g{row['id']}"
            live = self.core.get_job(gid)
            jobs.append({
                "job": gid,
                "state": live.state if live is not None else row["state"],
                "priority": row["priority"],
                "created_at": row["created_at"],
                "updated_at": row["updated_at"],
                "error": row["error"],
            })
        await http.send_json(writer, 200, {"jobs": jobs},
                             keep_alive=request.keep_alive)

    def _resolve_job(self, gid: str, tenant: TenantState
                     ) -> Tuple[int, Optional[Job], Dict[str, Any]]:
        """Ownership gate for every per-job route: the stored row must
        exist *and* belong to the caller — other tenants' jobs 404
        indistinguishably from absent ones (no existence oracle)."""
        def not_found() -> http.HttpError:
            # Built lazily: _reject counts the reject when called, so a
            # successful resolve must not construct it.
            return self._reject(tenant, "not-found", 404, "unknown-job",
                                f"unknown job {gid!r}")

        if not gid.startswith("g") or not gid[1:].isdigit():
            raise not_found()
        pk = int(gid[1:])
        row = self.store.get_job(pk)
        if row is None or row["tenant"] != tenant.stored_tenant:
            raise not_found()
        return pk, self.core.get_job(gid), row

    async def _job_snapshot(self, request: http.Request,
                            writer: asyncio.StreamWriter, keep: bool,
                            job: Optional[Job], row: Dict[str, Any]) -> None:
        if job is not None:
            snap = job.snapshot(points="points" in request.query)
        else:
            snap = self._stored_snapshot(row)
        await http.send_json(writer, 200, snap, keep_alive=keep)

    def _stored_snapshot(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Summary snapshot for a job that is not live in the core —
        terminal before the last restart, or still awaiting recovery."""
        points = self.store.job_points(row["id"])
        snap: Dict[str, Any] = {
            "job": f"g{row['id']}",
            "state": row["state"],
            "priority": row["priority"],
            "points": len(points),
            "unique_points": len({p["point_key"] for p in points}),
            "stored": True,
        }
        if row["state"] in ("queued", "running"):
            snap["recovering"] = True
        if row["error"]:
            snap["errors"] = {"job": row["error"]}
        return snap

    def _stored_results(self, row: Dict[str, Any]
                        ) -> List[Dict[str, Any]]:
        """Result payloads for a stored-terminal job, grid order: the
        results table first, the run cache as backstop (crash between
        cache write and store commit)."""
        points = self.store.job_points(row["id"])
        keys = [p["point_key"] for p in points]
        payloads = self.store.result_payloads(keys)
        missing = [key for key in dict.fromkeys(keys) if key not in payloads]
        for key in missing:
            payload = self.core.executor.cache.get_payload(key)
            if payload is not None:
                payloads[key] = payload
        still = [key for key in dict.fromkeys(keys) if key not in payloads]
        if still:
            raise http.HttpError(
                500, "results-missing",
                f"{len(still)} result payload(s) are in neither the store "
                f"nor the run cache")
        return [payloads[key] for key in keys]

    async def _results(self, writer: asyncio.StreamWriter, keep: bool,
                       job: Optional[Job], row: Dict[str, Any]) -> None:
        if job is not None:
            results = job.results()
            state = job.state
        elif row["state"] == "done":
            results = self._stored_results(row)
            state = "done"
        else:
            results, state = None, row["state"]
        if results is None:
            raise http.HttpError(
                409, "not-done",
                f"job g{row['id']} is {state}; results exist only for "
                f"state 'done'")
        await http.send_json(writer, 200,
                             {"job": f"g{row['id']}", "state": state,
                              "results": results}, keep_alive=keep)

    async def _events(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter,
                      job: Optional[Job], row: Dict[str, Any]) -> None:
        """SSE progress stream; ends with an ``event=end`` frame. A
        client disconnect mid-stream just unsubscribes — the job (and
        the gateway) are unaffected. The read side is watched while we
        wait for snapshots: an SSE client never sends again, so EOF (or
        stray bytes) means the watcher went away — detected *promptly*
        instead of on some later write into a dead socket, so the
        subscription is released and the request is observed as aborted
        exactly once."""
        sse = http.SseStream(writer)
        gid = f"g{row['id']}"
        if job is None:
            await sse.start()
            end: Dict[str, Any] = {"event": "end", "job": gid,
                                   "state": row["state"], "stored": True}
            if row["state"] == "done":
                end["results"] = self._stored_results(row)
            await sse.send(end)
            await sse.end()
            return
        channel = job.subscribe()
        gone = asyncio.ensure_future(reader.read(1))
        getter: Optional[asyncio.Task] = None
        try:
            await sse.start()
            while True:
                getter = asyncio.ensure_future(channel.get())
                await asyncio.wait({getter, gone},
                                   return_when=asyncio.FIRST_COMPLETED)
                if not getter.done():
                    raise ConnectionResetError(
                        "SSE client disconnected mid-stream")
                snap = getter.result()
                getter = None
                if snap is None:
                    end = {"event": "end", "job": job.id,
                           "state": job.state}
                    results = job.results()
                    if results is not None:
                        end["results"] = results
                    if job.errors:
                        end["errors"] = dict(job.errors)
                    await sse.send(end)
                    await sse.end()
                    return
                snap = dict(snap)
                snap["event"] = "progress"
                await sse.send(snap)
        finally:
            for task in (getter, gone):
                if task is None:
                    continue
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, OSError):
                    pass
            job.unsubscribe(channel)

    async def _trace(self, writer: asyncio.StreamWriter, keep: bool,
                     job: Optional[Job], row: Dict[str, Any]) -> None:
        """The exported Chrome-trace JSON of a traced job, once it is
        terminal. Recovered and pre-restart jobs were never traced by
        this process."""
        gid = f"g{row['id']}"
        if job is None or not job.trace:
            raise http.HttpError(404, "not-traced",
                                 f"job {gid} was not submitted with trace")
        if job.trace_error is not None:
            raise http.HttpError(500, "trace-failed", job.trace_error)
        if job.trace_path is None:
            raise http.HttpError(
                409, "not-done",
                f"job {gid} is {job.state}; its trace is exported once "
                f"the job is terminal")
        try:
            with open(job.trace_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise http.HttpError(500, "trace-failed",
                                 f"trace unreadable: {exc}")
        await http.send_text(writer, 200, text,
                             content_type="application/json",
                             keep_alive=keep)

    async def _cancel(self, writer: asyncio.StreamWriter, keep: bool,
                      pk: int, job: Optional[Job],
                      row: Dict[str, Any]) -> None:
        if job is not None:
            job.cancel(self.core.scheduler)  # tracker persists the state
            await http.send_json(writer, 200,
                                 {"job": job.id, "state": job.state},
                                 keep_alive=keep)
            return
        if row["state"] not in STORED_TERMINAL:
            # Stored but not yet (re-)admitted: cancel in the store; the
            # recovery loop re-checks state before admitting.
            self.store.set_job_state(pk, "cancelled")
            row = dict(row, state="cancelled")
        await http.send_json(writer, 200,
                             {"job": f"g{pk}", "state": row["state"]},
                             keep_alive=keep)

    # -- status --------------------------------------------------------------

    def server_status(self) -> Dict[str, Any]:
        return {
            "draining": self.core.draining,
            "recovering": not (self.recovery_done is None
                               or self.recovery_done.is_set()),
            "queue": self.core.queue_status(),
            "workers": self.core.workers,
            "workers_busy": self.core.busy,
            "procs": self.core.executor.jobs,
            "procs_busy": self.core.executor.procs_busy(),
            "fabric": self.core.executor.fabric_stats(),
            "fabric_summary": self.core.executor.fabric_summary(),
            "jobs": self.core.jobs_by_state(),
            "points": self.core.points_status(),
            "cache": self.core.cache_summary(),
            "store": {"jobs": self.store.counts_by_state(),
                      "results": self.store.result_count()},
            "gateway": self.registry.to_dict()["gateway"],
        }


# -- embedding helpers --------------------------------------------------------

async def _thread_main(gateway: Gateway, started: threading.Event,
                       box: Dict[str, Any]) -> None:
    try:
        box["address"] = await gateway.start()
        box["loop"] = asyncio.get_running_loop()
    except BaseException as exc:
        box["error"] = exc
        started.set()
        raise
    started.set()
    await gateway.serve_forever()


class GatewayThread:
    """A gateway on a background event loop — tests and notebooks.

    ::

        with GatewayThread(config) as handle:
            client = GatewayClient(handle.base_url)
            ...

    Exiting the block drains the gateway (unless :meth:`drain` already
    stopped it) and joins the thread.
    """

    def __init__(self, config: Optional[GatewayConfig] = None,
                 executor: Optional[Executor] = None,
                 settings: Optional[RunSettings] = None,
                 store: Optional[JobStore] = None) -> None:
        self.gateway = Gateway(config, executor, settings, store)
        self._box: Dict[str, Any] = {}
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple:
        return self._box["address"]

    @property
    def base_url(self) -> str:
        """The :class:`~repro.gateway.client.GatewayClient` base:
        ``http://host:port``, or ``unix:/path`` for a unix bind."""
        if self.address[0] == "unix":
            return f"unix:{self.address[1]}"
        _, host, port = self.address
        return f"http://{host}:{port}"

    def __enter__(self) -> "GatewayThread":
        started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                _thread_main(self.gateway, started, self._box)),
            name="esp-nuca-gateway", daemon=True)
        self._thread.start()
        started.wait(timeout=30)
        if "error" in self._box:
            self._thread.join(timeout=5)
            raise self._box["error"]
        if "address" not in self._box:
            raise RuntimeError("gateway failed to start within 30s")
        return self

    def drain(self) -> Optional[Dict[str, Any]]:
        """Gracefully stop the gateway from any thread
        (:meth:`Gateway.shutdown`: every job resolves, dispatchers and
        fabric processes stop), join its thread, and return the drain
        summary; ``None`` when it had already stopped."""
        loop = self._box.get("loop")
        summary = None
        if (self._thread is not None and self._thread.is_alive()
                and loop is not None and not loop.is_closed()):
            try:
                summary = asyncio.run_coroutine_threadsafe(
                    self.gateway.shutdown(), loop).result(timeout=120)
            except (RuntimeError, concurrent.futures.TimeoutError,
                    concurrent.futures.CancelledError):
                pass  # another drain stopped the loop first
        if self._thread is not None:
            self._thread.join(timeout=120)
        return summary

    def __exit__(self, *exc_info) -> None:
        self.drain()
