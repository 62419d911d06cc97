"""Memory-controller timing: fixed DRAM latency behind a bandwidth queue.

Each controller serializes requests with a per-request occupancy,
bounding off-chip bandwidth; the request then pays the DRAM latency.
The introduction of the paper motivates NUCA management precisely by
this off-chip bandwidth wall, so the queue is not optional detail: the
off-chip component in Figure 6 includes its queueing.

Per-controller statistics (``demand``, ``writebacks``, ``queueing``)
live in each controller's :class:`~repro.common.statsreg.Scope`; the
:class:`MemorySystem` mounts them as ``mc<i>`` under its own scope,
which the system mounts at ``mem`` — so a skewed controller (one mesh
edge absorbing most of the off-chip traffic) is visible per run.
"""

from __future__ import annotations

from typing import List

from repro.common.config import SystemConfig
from repro.common.statsreg import Scope


class MemoryController:
    """A single controller: busy-until queue + fixed latency."""

    def __init__(self, latency: int, occupancy: int) -> None:
        self.latency = latency
        self.occupancy = occupancy
        self._cap = self.MAX_QUEUE_SERVICES * occupancy
        self._busy_until = 0
        self.stats = Scope()
        self._requests = self.stats.counter("demand")
        self._writebacks = self.stats.counter("writebacks")
        self._queueing = self.stats.counter("queueing")

    #: Bound on the queueing a request can be charged (in services);
    #: caps phantom waits from out-of-time-order reservations (see
    #: Network.arrival) while keeping the bandwidth wall.
    MAX_QUEUE_SERVICES = 8

    def service(self, arrive: int) -> int:
        """Admit a demand request at ``arrive``; return data-ready time."""
        start = arrive
        ready = self._busy_until
        if ready > start:
            skew = ready - start
            cap = self._cap
            start += skew if skew < cap else cap
            self._queueing.value += start - arrive
        end = start + self.occupancy
        self._busy_until = ready if ready > end else end
        self._requests.value += 1
        return start + self.latency

    def post_writeback(self, arrive: int) -> None:
        """Writebacks consume bandwidth but nobody waits on them.

        The queue charge is capped like :meth:`service`'s: reservations
        arrive in reference order, not time order, so an uncapped wait
        would chain writebacks onto a future-stamped frontier forever.
        """
        start = arrive
        ready = self._busy_until
        if ready > start:
            skew = ready - start
            cap = self._cap
            start += skew if skew < cap else cap
        end = start + self.occupancy
        self._busy_until = ready if ready > end else end
        self._writebacks.value += 1

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def writebacks(self) -> int:
        return self._writebacks.value

    @property
    def total_queueing(self) -> int:
        return self._queueing.value

    def reset_stats(self) -> None:
        self.stats.reset()


class MemorySystem:
    """The set of controllers hanging off the mesh edges."""

    def __init__(self, config: SystemConfig) -> None:
        self.stats = Scope()
        self.controllers: List[MemoryController] = []
        for index in range(config.mem.num_controllers):
            controller = MemoryController(config.mem.latency,
                                          config.mem.occupancy)
            self.stats.mount(f"mc{index}", controller.stats)
            self.controllers.append(controller)

    def controller(self, index: int) -> MemoryController:
        return self.controllers[index]

    @property
    def demand_requests(self) -> int:
        return sum(c.requests for c in self.controllers)

    @property
    def writebacks(self) -> int:
        return sum(c.writebacks for c in self.controllers)

    def reset_stats(self) -> None:
        self.stats.reset()
