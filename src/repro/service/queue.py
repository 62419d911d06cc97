"""Prioritized, bounded scheduling of run points with in-flight coalescing.

The scheduler is the service's admission control. Its unit of work is a
**point task** — one unique :class:`~repro.harness.executor.RunPoint`
content-hash key. Jobs (client-visible grids) map onto point tasks
many-to-one:

* a point already queued or running is **coalesced**: the new job
  attaches to the existing task's future instead of enqueueing a
  duplicate simulation (the acceptance criterion "executor invocation
  count < request count" for overlapping grids);
* admission is **all-or-nothing** against a bounded backlog: if a grid's
  new tasks would overflow ``limit``, nothing is enqueued and
  :class:`QueueFullError` propagates as the typed ``queue-full`` wire
  error — the queue never blocks a submitter;
* dequeue order is (priority desc, submission order) and dispatchers
  pull **batches** (up to ``batch`` compatible tasks at once) so the
  executor can fan a batch out over the shared
  :mod:`~repro.harness.fabric` worker processes and reuse materialized
  traces across architectures.

Everything here runs on the server's event loop thread — no locks; the
blocking simulation work happens elsewhere (the server hands batches to
dispatcher threads, which route them through the executor to the
fabric's simulation processes).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.harness.executor import RunPoint

#: Point-task lifecycle. CACHED is a job-level state (a key answered
#: from the persistent cache never becomes a task at all).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class QueueFullError(Exception):
    """The bounded backlog cannot admit the request (typed reject —
    the submitter gets an immediate ``queue-full`` error, never a
    blocked socket)."""

    def __init__(self, needed: int, free: int, limit: int) -> None:
        super().__init__(
            f"queue full: request needs {needed} slot(s), "
            f"{free} of {limit} free")
        self.needed = needed
        self.free = free
        self.limit = limit


class PointTask:
    """One unique run point somewhere between admission and completion.

    ``future`` resolves to the point's :class:`SimResult`; every job
    that coalesced onto this task awaits the same future. ``refs``
    counts attached jobs — cancellation only removes a *queued* task
    once no job still wants it.
    """

    __slots__ = ("key", "point", "future", "state", "refs", "seq")

    def __init__(self, key: str, point: RunPoint, seq: int,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.key = key
        self.point = point
        self.future: asyncio.Future = loop.create_future()
        self.state = QUEUED
        self.refs = 1
        self.seq = seq


class Scheduler:
    """Bounded priority backlog + in-flight table of point tasks."""

    def __init__(self, limit: int = 256) -> None:
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self._heap: List[Tuple[int, int, PointTask]] = []
        self._seq = itertools.count()
        #: key -> task, for every task not yet resolved (queued or
        #: running) — the coalescing table.
        self._inflight: Dict[str, PointTask] = {}
        self._wakeup = asyncio.Event()
        self._closed = False

    # -- admission -----------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Tasks admitted but not yet handed to a worker."""
        return sum(1 for _, _, t in self._heap if t.state == QUEUED)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def admit(self, keyed_points: List[Tuple[str, RunPoint]],
              priority: int = 0) -> Tuple[Dict[str, PointTask], int]:
        """Admit the missing points of one job, all or nothing.

        ``keyed_points`` holds unique (cache key, point) pairs that were
        not satisfied by the persistent cache. Returns ``(tasks,
        coalesced)`` where ``tasks`` maps every key to its (new or
        joined) task. Raises :class:`QueueFullError` without side
        effects if the new tasks would overflow the backlog.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        fresh = [(key, point) for key, point in keyed_points
                 if key not in self._inflight]
        free = self.limit - self.backlog
        if len(fresh) > free:
            raise QueueFullError(len(fresh), free, self.limit)
        tasks: Dict[str, PointTask] = {}
        loop = asyncio.get_running_loop()
        coalesced = 0
        for key, point in keyed_points:
            task = self._inflight.get(key)
            if task is not None:
                task.refs += 1
                coalesced += 1
            else:
                task = PointTask(key, point, next(self._seq), loop)
                self._inflight[key] = task
                heapq.heappush(self._heap, (-priority, task.seq, task))
            tasks[key] = task
        if tasks:
            self._wakeup.set()
        return tasks, coalesced

    def release(self, task: PointTask) -> None:
        """Detach one job from a task (cancellation); a queued task
        nobody wants any more is dropped from the backlog."""
        task.refs -= 1
        if task.refs <= 0 and task.state == QUEUED:
            task.state = CANCELLED
            self._inflight.pop(task.key, None)
            if not task.future.done():
                task.future.cancel()

    # -- worker side ---------------------------------------------------------

    async def next_batch(self, limit: int) -> Optional[List[PointTask]]:
        """Up to ``limit`` highest-priority queued tasks; waits while the
        backlog is empty; ``None`` once the scheduler is closed and
        drained (the worker-exit signal)."""
        while True:
            batch: List[PointTask] = []
            while self._heap and len(batch) < limit:
                _, _, task = heapq.heappop(self._heap)
                if task.state != QUEUED:
                    continue  # lazily discarded cancellation
                task.state = RUNNING
                batch.append(task)
            if batch:
                return batch
            if self._closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()

    def finish(self, task: PointTask, result=None,
               error: Optional[BaseException] = None) -> None:
        """Resolve a task's future and retire it from the in-flight
        table (event-loop thread only)."""
        self._inflight.pop(task.key, None)
        if task.future.done():  # cancelled while running
            return
        if error is not None:
            task.state = FAILED
            task.future.set_exception(error)
            # Waiters are jobs' done-callbacks; if a job was cancelled
            # meanwhile the exception may go unretrieved — that is fine.
            task.future.exception()
        else:
            task.state = DONE
            task.future.set_result(result)

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; wake idle workers so they can exit once the
        backlog runs dry."""
        self._closed = True
        self._wakeup.set()
