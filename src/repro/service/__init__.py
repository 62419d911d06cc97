"""The simulation service core the HTTP gateway serves from.

The batch harness answers "reproduce figure N"; this package holds the
machinery for "serve simulation requests continuously": a prioritized
bounded job queue with in-flight coalescing, batched dispatchers over
:class:`~repro.harness.executor.Executor`, cache-hit fast paths through
:class:`~repro.harness.runcache.RunCache`, and per-job progress
snapshots. The transport on top is :mod:`repro.gateway` (``esp-nuca
gateway serve`` / ``esp-nuca submit``). See docs/service.md.
"""

from repro.service.core import ProtocolError, ServiceCore
from repro.service.queue import QueueFullError, Scheduler

__all__ = [
    "ProtocolError",
    "ServiceCore",
    "Scheduler",
    "QueueFullError",
]
