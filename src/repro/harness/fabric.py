"""The process-based worker fabric: one queue, N simulation workers.

Simulations are CPU-bound, so a thread pool delivers one core's worth
of throughput no matter how many workers it has — the GIL serializes
them. This module is the shared execution substrate that fixes that:
a :class:`WorkerPool` of spawned ``multiprocessing`` workers pulling
**jobs** (batches of run points) from a single task queue, with

* **heartbeats** — each worker runs a daemon thread that reports
  liveness on the result queue; the pool records the last-seen time
  per worker (``stats()["heartbeat_age_s"]``);
* **crash detection** — a monitor thread polls ``Process.is_alive()``;
  a worker that dies mid-job (OOM-kill, segfault, ``kill -9``) is
  detected, replaced, and its in-flight job is *requeued exactly once*
  (``attempt`` tracking); a second crash on the same job fails it with
  :class:`WorkerCrashError` instead of retrying forever;
* **one pool for everything** — the :class:`~repro.harness.executor.
  Executor` routes its parallel batches here, and since the simulation
  service schedules through the executor, direct runs, ``esp-nuca
  repro`` experiments and ``esp-nuca gateway serve --workers N`` all
  share this one implementation. Results are byte-identical to serial runs
  (``tests/test_fabric.py`` and ``tests/test_executor.py`` pin it);
* **cross-process cache coalescing** — the default job runner
  (:func:`run_point_batch`) rebuilds the
  :class:`~repro.harness.runcache.RunCache` inside the worker and reads
  through it before simulating each point, so a point another process
  (another worker, another gateway sharing the cache directory)
  already committed is served from disk instead of being re-simulated.

Worker count for the service comes from ``REPRO_WORKERS`` (validated
like every ``REPRO_*`` knob; falls back to ``REPRO_JOBS`` / CPU
count). Trace integration: pool lifecycle events (worker spawned /
crashed / job requeued) are emitted under the ``fabric`` category, and
every completed job reports the **worker process id** that executed
it, which the executor attaches to its ``pool run`` span metadata —
the distinct-PID evidence that ``--workers N`` really runs N OS
processes (docs/fabric.md).
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
from concurrent.futures import Future
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.runcache import RunCache, env_int
from repro.obs import trace as obs
from repro.obs.logging import configure_from_env, get_logger

_log = get_logger("fabric")

#: Seconds between worker heartbeat messages.
HEARTBEAT_INTERVAL = 1.0

#: Seconds between monitor sweeps (crash detection latency bound).
MONITOR_INTERVAL = 0.05

#: Seconds a closing pool waits for a worker to exit voluntarily
#: before terminating it.
CLOSE_GRACE = 5.0


def default_workers() -> int:
    """Simulation worker processes for the service: ``REPRO_WORKERS``
    (validated, >= 1) or the executor's ``REPRO_JOBS``/CPU default."""
    from repro.harness.executor import default_jobs

    return env_int("REPRO_WORKERS", default_jobs(), minimum=1)


def mp_context():
    """The multiprocessing start method the fabric uses.

    fork inherits sys.path (bare-checkout runs work unchanged); on
    spawn-only platforms export the package location instead so worker
    processes can import :mod:`repro`.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    pkg_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            pkg_root + (os.pathsep + existing if existing else ""))
    return multiprocessing.get_context("spawn")


class WorkerCrashError(RuntimeError):
    """A job's worker process died twice (original + the one requeue
    the fabric allows) — the job is abandoned rather than retried
    forever, and the error names the last worker pid."""

    def __init__(self, job_id: int, pid: Optional[int]) -> None:
        super().__init__(
            f"fabric job {job_id} lost its worker process twice "
            f"(last pid {pid}); requeue-once budget exhausted")
        self.job_id = job_id
        self.pid = pid


class RemoteJobError(RuntimeError):
    """A job's runner raised inside the worker; carries the remote
    traceback text. Deterministic failures are *not* requeued."""


def run_point_batch(payload: Dict[str, Any]) -> List[Any]:
    """Default job runner: simulate a batch of keyed run points.

    ``payload`` is ``{"points": [(cache_key, RunPoint), ...],
    "cache": RunCache.spec() | None}``. Before simulating each point
    the worker reads through :meth:`RunCache.get` (one ``os.stat`` of
    the entry; a missing file is a miss): a key committed meanwhile by
    any other process is answered from disk — cross-process coalescing
    on content hash. Results are identical either way (cached payloads
    round-trip exactly), so this is purely a work-avoidance path.
    """
    from repro.harness import executor as executor_mod

    cache = RunCache.from_spec(payload.get("cache"))
    results = []
    for key, point in payload["points"]:
        result = cache.get(key)
        cached = result is not None
        if result is None:
            result = executor_mod.simulate_point(point)
        _log.debug("point served", key=key[:12], cached=cached,
                   point=f"{point.name}/{point.workload}/s{point.seed}")
        results.append(result)
    return results


def _worker_main(task_queue, result_queue, runner: Callable[[Any], Any],
                 heartbeat: float, current) -> None:
    """Worker process entry: pull jobs until the ``None`` sentinel.

    ``current`` is shared memory holding the id of the job this worker
    took last. It is written before the job runs, so the parent can
    pin a crash on the job even when the worker dies before its queued
    ``started`` message reaches the parent."""
    # Spawn-mode workers inherit no logging handlers; rebuild the
    # parent's configuration from REPRO_LOG (no-op when unset, and
    # harmlessly idempotent under fork).
    configure_from_env()
    pid = os.getpid()
    parent = os.getppid()

    def beat() -> None:
        while True:
            time.sleep(heartbeat)
            # Parent-death watchdog: if the pool's owner is SIGKILL'd it
            # never sends the ``None`` sentinel, and this process would
            # block in ``task_queue.get()`` forever (daemon=True only
            # helps at interpreter exit, which never comes). A reparented
            # worker (getppid() changed — to init or a subreaper) has no
            # one left to report to, so exit hard: _exit() skips atexit
            # and multiprocessing cleanup that could block on the dead
            # parent's queues. The gateway's kill-and-restart recovery
            # relies on this leaving zero orphaned simulation processes.
            if os.getppid() != parent:
                os._exit(1)
            try:
                result_queue.put(("hb", pid, time.time()))
            except Exception:  # queue torn down mid-exit
                return

    threading.Thread(target=beat, name="fabric-heartbeat",
                     daemon=True).start()
    while True:
        item = task_queue.get()
        if item is None:
            result_queue.put(("bye", pid, None))
            return
        job_id, attempt, blob = item
        current.value = job_id
        result_queue.put(("started", job_id, pid))
        _log.debug("fabric job started", fabric_job=job_id,
                   attempt=attempt, worker_pid=pid)
        try:
            value = runner(ForkingPickler.loads(blob))
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            import traceback

            _log.warning("fabric job failed", fabric_job=job_id,
                         worker_pid=pid, error=f"{type(exc).__name__}: {exc}")
            result_queue.put(("failed", job_id, pid,
                              f"{type(exc).__name__}: {exc}\n"
                              f"{traceback.format_exc()}"))
        else:
            _log.debug("fabric job done", fabric_job=job_id, worker_pid=pid)
            result_queue.put(("done", job_id, pid, value))


class _Job:
    __slots__ = ("id", "blob", "future", "attempt", "pid")

    def __init__(self, job_id: int, blob: bytes) -> None:
        self.id = job_id
        #: the pickled payload, sent again as it is on a requeue
        self.blob = blob
        self.future: Future = Future()
        self.attempt = 0
        self.pid: Optional[int] = None


class WorkerPool:
    """N worker processes pulling jobs from one queue.

    ``submit(payload)`` returns a :class:`concurrent.futures.Future`
    resolving to ``(value, worker_pid)``; ``run_batch(payloads)``
    submits a list and blocks for all of them (thread-safe — the
    service's dispatcher threads share one pool). ``runner`` is the
    function executed in the worker (module-level, so it survives the
    spawn start method); the default is :func:`run_point_batch`.
    """

    def __init__(self, workers: int,
                 runner: Callable[[Any], Any] = run_point_batch,
                 name: str = "esp-nuca-fabric",
                 heartbeat: float = HEARTBEAT_INTERVAL,
                 monitor_interval: float = MONITOR_INTERVAL) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.name = name
        self._runner = runner
        self._heartbeat = heartbeat
        self._ctx = mp_context()
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._lock = threading.Lock()
        self._jobs: Dict[int, _Job] = {}
        self._job_seq = itertools.count(1)
        self._procs: List[Any] = []
        #: worker pid -> shared slot with the id of its latest job
        self._current: Dict[int, Any] = {}
        self._closing = threading.Event()
        self._closed = False
        self._last_heartbeat: Dict[int, float] = {}
        # lifetime counters (exposed via stats(), served by the
        # service's `status` command)
        self.dispatched = 0
        self.completed = 0
        self.requeued = 0
        self.crashed = 0
        self.completed_by_pid: Dict[int, int] = {}
        with self._lock:
            for _ in range(workers):
                self._spawn_locked()
        self._collector = threading.Thread(
            target=self._collect_loop, name=f"{name}-collector", daemon=True)
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name=f"{name}-monitor", daemon=True)
        self._monitor.start()
        atexit.register(self.close)

    # -- submission ----------------------------------------------------------

    def submit(self, payload: Any) -> Future:
        """Queue one job. The payload is pickled here, so one that
        cannot be pickled raises in the caller and registers no job
        (pickled by the queue's feeder thread instead, the error would
        be lost and the job's future never resolved)."""
        blob = bytes(ForkingPickler.dumps(payload))
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            job = _Job(next(self._job_seq), blob)
            self._jobs[job.id] = job
            self.dispatched += 1
        self._tasks.put((job.id, job.attempt, blob))
        return job.future

    def run_batch(self, payloads: List[Any]) -> List[Tuple[Any, int]]:
        """Run every payload as one fabric job; returns
        ``[(value, worker_pid), ...]`` aligned with the input. If any
        job fails, waits for the rest to settle and re-raises the first
        failure (batch-fatal, matching the pre-fabric pool semantics)."""
        futures = [self.submit(p) for p in payloads]
        outcomes: List[Optional[Tuple[Any, int]]] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                outcomes.append(future.result())
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                if first_error is None:
                    first_error = exc
                outcomes.append(None)
        if first_error is not None:
            raise first_error
        return outcomes  # type: ignore[return-value]

    # -- observability -------------------------------------------------------

    @property
    def busy(self) -> int:
        """Worker processes currently executing a job."""
        with self._lock:
            return sum(1 for job in self._jobs.values()
                       if job.pid is not None and not job.future.done())

    def pids(self) -> List[int]:
        """Pids of live worker processes."""
        with self._lock:
            return [p.pid for p in self._procs if p.is_alive()]

    def stats(self) -> Dict[str, Any]:
        now = time.time()
        with self._lock:
            busy = sum(1 for job in self._jobs.values()
                       if job.pid is not None and not job.future.done())
            assignments = {job.id: job.pid for job in self._jobs.values()
                           if job.pid is not None and not job.future.done()}
            alive = [p.pid for p in self._procs if p.is_alive()]
            return {
                "workers": self.workers,
                "alive": alive,
                "busy": busy,
                "assignments": assignments,
                "heartbeat_age_s": {
                    pid: round(now - seen, 3)
                    for pid, seen in self._last_heartbeat.items()
                    if pid in alive},
                "dispatched": self.dispatched,
                "completed": self.completed,
                "requeued": self.requeued,
                "crashed": self.crashed,
                "completed_by_pid": dict(self.completed_by_pid),
            }

    def _trace_instant(self, name: str, args: Dict[str, Any]) -> None:
        tracer = obs.active()
        if tracer.enabled and tracer.wants("fabric"):
            tracer.instant("fabric", name, ts=tracer.wall_now(),
                           pid=tracer.wall_pid, tid=self.name, args=args)

    # -- parent-side threads -------------------------------------------------

    def _spawn_locked(self) -> Any:
        current = self._ctx.RawValue("q", 0)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._tasks, self._results, self._runner,
                  self._heartbeat, current),
            name=f"{self.name}-worker", daemon=True)
        proc.start()
        self._procs.append(proc)
        self._current[proc.pid] = current
        self._trace_instant("worker spawned", {"worker_pid": proc.pid})
        _log.info("worker spawned", worker_pid=proc.pid, pool=self.name)
        return proc

    def _collect_loop(self) -> None:
        import queue as stdlib_queue

        while True:
            try:
                message = self._results.get(timeout=0.1)
            except (stdlib_queue.Empty, OSError, EOFError):
                if self._closing.is_set():
                    return
                continue
            kind = message[0]
            if kind == "hb":
                self._last_heartbeat[message[1]] = message[2]
            elif kind == "started":
                _, job_id, pid = message
                with self._lock:
                    job = self._jobs.get(job_id)
                    if job is not None:
                        job.pid = pid
            elif kind == "done":
                _, job_id, pid, value = message
                with self._lock:
                    job = self._jobs.pop(job_id, None)
                    self.completed += 1
                    self.completed_by_pid[pid] = \
                        self.completed_by_pid.get(pid, 0) + 1
                if job is not None and not job.future.done():
                    job.future.set_result((value, pid))
            elif kind == "failed":
                _, job_id, pid, text = message
                with self._lock:
                    job = self._jobs.pop(job_id, None)
                if job is not None and not job.future.done():
                    job.future.set_exception(RemoteJobError(text))
            # "bye" needs no bookkeeping: the monitor skips closing pools.

    def _monitor_loop(self) -> None:
        while not self._closing.wait(MONITOR_INTERVAL):
            dead: List[Any] = []
            with self._lock:
                for i, proc in enumerate(self._procs):
                    if not proc.is_alive():
                        dead.append(proc)
                        self._procs[i] = None  # type: ignore[call-overload]
                self._procs = [p for p in self._procs if p is not None]
                if not dead:
                    continue
                orphans: List[_Job] = []
                for proc in dead:
                    self.crashed += 1
                    job = self._jobs.get(self._current.pop(proc.pid).value)
                    if job is not None and not job.future.done():
                        job.pid = proc.pid
                        orphans.append(job)
                replacements = len(dead)
                requeue: List[_Job] = []
                fail: List[_Job] = []
                for job in orphans:
                    if job.attempt >= 1:
                        self._jobs.pop(job.id, None)
                        fail.append(job)
                    else:
                        job.attempt += 1
                        job.pid = None
                        self.requeued += 1
                        requeue.append(job)
                for _ in range(replacements):
                    self._spawn_locked()
            for proc in dead:
                self._trace_instant("worker crashed",
                                    {"worker_pid": proc.pid})
                _log.warning("worker crashed", worker_pid=proc.pid,
                             pool=self.name)
            for job in requeue:
                self._trace_instant("job requeued",
                                    {"job": job.id, "attempt": job.attempt})
                _log.warning("fabric job requeued", fabric_job=job.id,
                             attempt=job.attempt, pool=self.name)
                self._tasks.put((job.id, job.attempt, job.blob))
            for job in fail:
                if not job.future.done():
                    job.future.set_exception(
                        WorkerCrashError(job.id, job.pid))

    # -- shutdown ------------------------------------------------------------

    def close(self, timeout: float = CLOSE_GRACE) -> None:
        """Stop the fabric: sentinel every worker, reap processes and
        threads, fail any still-pending futures. Idempotent; also
        registered with ``atexit`` so stray pools never outlive the
        interpreter."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            procs = [p for p in self._procs if p.is_alive()]
        self._closing.set()
        for _ in procs:
            try:
                self._tasks.put(None)
            except Exception:
                break
        deadline = time.monotonic() + timeout
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for thread in (self._monitor, self._collector):
            thread.join(timeout=2.0)
        with self._lock:
            pending = list(self._jobs.values())
            self._jobs.clear()
        for job in pending:
            if not job.future.done():
                job.future.set_exception(
                    RuntimeError("worker pool closed with the job "
                                 "unfinished"))
        for q in (self._tasks, self._results):
            try:
                q.close()
                q.join_thread()
            except Exception:
                pass
