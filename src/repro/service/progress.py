"""Job bookkeeping and streaming progress snapshots.

A :class:`Job` is the client-visible unit: one submitted grid, mapped
onto unique point tasks (possibly shared with other jobs — see
:mod:`repro.service.queue`). It tracks a per-point state machine,
aggregates it into the snapshot dict ``GET /v1/jobs/{id}`` returns,
and fans state changes out to subscribers (the gateway's SSE stream
and its write-behind store tracker).

Progress is *sourced from the PR 2 stats registry*: every completed
point's payload is the full :meth:`SimResult.to_dict` snapshot —
including the hierarchical ``stats`` tree — so a watcher sees per-bank /
per-link / per-policy counters stream in as points finish, in exactly
the serialization ``esp-nuca stats --json`` prints for a single run.
A job holds each payload as its wire JSON text
(:func:`~repro.harness.reporting.wire_json`), encoded once: by the run
cache's memo for a cache hit (every job that hits one key holds the
same ``str``), or when the point completes. Replies splice that text,
so no job keeps a decoded tree.

Snapshots also carry the server's live gauges (injected via
:attr:`Job.gauges`): queue depth plus **both** worker populations —
``workers_busy`` (asyncio dispatcher tasks) and ``procs_busy`` (fabric
simulation processes, the real CPU utilization; docs/fabric.md).

Everything here runs on the server's event loop thread.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.reporting import run_stats_payload, wire_json
from repro.service import queue as q

#: Job states (derived from point states).
J_QUEUED = "queued"
J_RUNNING = "running"
J_DONE = "done"
J_FAILED = "failed"
J_CANCELLED = "cancelled"

#: Point state a cache-served key gets (never becomes a task).
P_CACHED = "cached"

TERMINAL = (J_DONE, J_FAILED, J_CANCELLED)


class Job:
    """One submitted grid and its progress toward completion.

    ``order`` lists the job's points in submission order (duplicates
    preserved — results come back positionally); ``meta`` describes each
    unique key as ``(architecture, workload, seed)``.
    """

    def __init__(self, job_id: str, order: List[str],
                 meta: Dict[str, Tuple[str, str, int]],
                 priority: int, owner: str) -> None:
        self.id = job_id
        self.order = order
        self.meta = meta
        self.priority = priority
        self.owner = owner
        self.states: Dict[str, str] = {}
        #: key -> the point's result as wire JSON text.
        self.payloads: Dict[str, str] = {}
        self.errors: Dict[str, str] = {}
        self.coalesced = 0
        self.cached = 0
        self.done = asyncio.get_running_loop().create_future()
        self._tasks: Dict[str, "q.PointTask"] = {}
        self._watchers: List[asyncio.Queue] = []
        self.cancelled = False
        #: Live server gauges (queue depth, busy workers) injected by the
        #: core so job snapshots and SSE frames carry them.
        self.gauges: Optional[Callable[[], Dict[str, Any]]] = None
        #: Event-trace capture requested / exported (set by the gateway).
        self.trace = False
        self.trace_path: Optional[str] = None
        self.trace_error: Optional[str] = None
        #: (state, wall-clock us) at every state transition — the
        #: service renders these as ``service``-category lifecycle spans.
        self.timeline: List[Tuple[str, float]] = []

    def _note_state(self) -> None:
        state = self.state
        if not self.timeline or self.timeline[-1][0] != state:
            self.timeline.append((state, time.perf_counter() * 1e6))

    # -- wiring --------------------------------------------------------------

    def resolve_cached(self, key: str, payload: str) -> None:
        """A key answered from the persistent cache at submit time, with
        the cache's wire JSON text of its result."""
        self.states[key] = P_CACHED
        self.payloads[key] = payload
        self.cached += 1

    def attach(self, key: str, task: "q.PointTask") -> None:
        """Follow a (new or coalesced) point task to completion."""
        self.states[key] = task.state
        self._tasks[key] = task
        task.future.add_done_callback(
            lambda fut, key=key: self._point_settled(key, fut))

    def seal(self) -> None:
        """Wiring is complete — a grid served entirely from the
        persistent cache completes here, without ever touching a task."""
        self._note_state()
        if self.state in TERMINAL and not self.done.done():
            self.done.set_result(self.state)

    def mark_running(self, keys: List[str]) -> None:
        changed = False
        for key in keys:
            if self.states.get(key) == q.QUEUED:
                self.states[key] = q.RUNNING
                changed = True
        if changed:
            self._note_state()
            self._emit()

    def _point_settled(self, key: str, fut: asyncio.Future) -> None:
        # The task's future holds the decoded result; the job keeps
        # only its text, and cancel() needs only still-queued tasks.
        del self._tasks[key]
        if self.states.get(key) == q.CANCELLED:
            # Released by this job's cancel; the task lived on for a
            # coalesced job, and its outcome is not this job's.
            return
        if fut.cancelled():
            self.states[key] = q.CANCELLED
        elif fut.exception() is not None:
            self.states[key] = q.FAILED
            self.errors[key] = str(fut.exception())
        else:
            self.states[key] = q.DONE
            self.payloads[key] = wire_json(run_stats_payload(fut.result()))
        self._refresh()

    def cancel(self, scheduler: "q.Scheduler") -> None:
        """Detach from still-queued points; running points finish (their
        results still land in the run cache) but the job stops waiting."""
        if self.state in TERMINAL:
            return
        self.cancelled = True
        for key, task in self._tasks.items():
            if self.states.get(key) == q.QUEUED:
                scheduler.release(task)
                self.states[key] = q.CANCELLED
        # The job stops waiting now even if points are still running
        # (they complete for the cache's benefit, not the job's).
        self._note_state()
        if not self.done.done():
            self.done.set_result(J_CANCELLED)
        self._emit(final=True)

    def _refresh(self) -> None:
        """Emit one progress event; on reaching a terminal state also
        resolve ``done`` and close the watch streams."""
        self._note_state()
        state = self.state
        if state in TERMINAL:
            if not self.done.done():
                self.done.set_result(state)
            self._emit(final=True)
        else:
            self._emit()

    # -- derived state -------------------------------------------------------

    @property
    def state(self) -> str:
        """The job state derived from its points'. Terminal states are
        final: a cancelled job ends ``cancelled`` even if a point it
        left running fails afterwards."""
        states = [self.states[key] for key in dict.fromkeys(self.order)]
        if self.cancelled and not any(s == q.RUNNING for s in states):
            return J_CANCELLED
        if any(s == q.FAILED for s in states):
            pending = any(s in (q.QUEUED, q.RUNNING) for s in states)
            return J_RUNNING if pending else J_FAILED
        if all(s in (q.DONE, P_CACHED) for s in states):
            return J_DONE
        if any(s == q.RUNNING for s in states):
            return J_RUNNING
        if all(s == q.CANCELLED for s in states):
            return J_CANCELLED
        return J_QUEUED

    def counts(self) -> Dict[str, int]:
        out = {P_CACHED: 0, q.QUEUED: 0, q.RUNNING: 0, q.DONE: 0,
               q.FAILED: 0, q.CANCELLED: 0}
        for key in dict.fromkeys(self.order):
            out[self.states[key]] += 1
        return out

    def results(self) -> Optional[List[str]]:
        """Per-point wire JSON texts in submission order, or ``None``
        until the job completes successfully."""
        if self.state != J_DONE:
            return None
        return [self.payloads[key] for key in self.order]

    # -- snapshots and watch streaming ---------------------------------------

    def snapshot(self, points: bool = False) -> Dict[str, Any]:
        """The progress view of this job (job route, SSE frames)."""
        out: Dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "priority": self.priority,
            "points": len(self.order),
            "unique_points": len(dict.fromkeys(self.order)),
            "coalesced": self.coalesced,
            "counts": self.counts(),
        }
        if self.gauges is not None:
            out["gauges"] = self.gauges()
        if self.trace:
            out["trace"] = True
            if self.trace_error is not None:
                out["trace_error"] = self.trace_error
        if self.errors:
            out["errors"] = dict(self.errors)
        if points:
            out["point_states"] = [
                {"architecture": self.meta[key][0],
                 "workload": self.meta[key][1],
                 "seed": self.meta[key][2],
                 "state": self.states[key]}
                for key in dict.fromkeys(self.order)]
        return out

    def subscribe(self) -> asyncio.Queue:
        """Register a watcher; it immediately receives the current
        snapshot, then every change, then ``None`` after the final one."""
        channel: asyncio.Queue = asyncio.Queue()
        channel.put_nowait(self.snapshot())
        if self.state in TERMINAL:
            channel.put_nowait(None)
        else:
            self._watchers.append(channel)
        return channel

    def unsubscribe(self, channel: asyncio.Queue) -> None:
        if channel in self._watchers:
            self._watchers.remove(channel)

    def _emit(self, final: bool = False) -> None:
        if not self._watchers:
            return
        snap = self.snapshot()
        for channel in self._watchers:
            channel.put_nowait(snap)
            if final:
                channel.put_nowait(None)
        if final:
            self._watchers.clear()
