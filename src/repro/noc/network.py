"""Timing model of the mesh: per-hop latency plus link contention.

Each directed link keeps a ``busy_until`` reservation. A message
traversing a link is serialized behind earlier traffic and occupies the
link for ``flits`` cycles. With the 5-cycle hop latency of Table 2
(3-cycle router + 2-cycle link) an uncontended traversal of ``h`` hops
costs ``5 * h`` cycles; contention adds queueing on top.

The model deliberately ignores virtual channels and buffer depth: at
the injection rates cache studies produce on a 4x2 mesh, serialization
at links is the first-order congestion effect.

Statistics live in the network's :class:`~repro.common.statsreg.Scope`
(mounted at ``noc`` by the system): aggregate ``messages`` / ``flits``
/ ``hops`` / ``queueing``, per-kind counts under ``kinds.<kind>``, and
per-directed-link traffic under ``links.r<src>-r<dst>`` (``messages`` +
``queueing``) — the breakdown that shows *where* the mesh saturates.

:meth:`Network.arrival` runs once per message on every miss, so it
touches no registry object. It adds 1 to one flat slot per message,
indexed by kind and ``src * n + dst`` (n = routers), and each wait to
one flat slot per link. The scope's sync callback derives every
registry counter from those slots when the scope is read or reset:
a route is a fixed tuple of links, so ``hops``, ``flits`` and the
per-link message counts follow from the per-(kind, route) counts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import SystemConfig
from repro.common.statsreg import Scope
from repro.noc.message import Message, MessageKind
from repro.noc.topology import MeshTopology


class Network:
    """Mesh timing: ``deliver`` computes the arrival time of a message."""

    def __init__(self, config: SystemConfig, topology: MeshTopology | None = None,
                 model_contention: bool = True) -> None:
        self.config = config
        self.topology = topology or MeshTopology(config)
        self.hop_latency = config.noc.hop_latency
        self.model_contention = model_contention
        # Each directed link any DOR route uses gets a dense id (in a
        # stable order); each (src, dst) pair, flattened to
        # ``src * n + dst``, maps to the tuple of link ids of its route.
        n = self.topology.num_routers
        self._n = n
        link_ids: Dict[Tuple[int, int], int] = {}
        routes = []
        for src in range(n):
            for dst in range(n):
                links = self._route_links(src, dst)
                for link in links:
                    link_ids.setdefault(link, len(link_ids))
                routes.append(tuple(link_ids[link] for link in links))
        self._routes: List[Tuple[int, ...]] = routes
        self._link_busy = [0] * len(link_ids)
        # Pending counts (see the module docstring): messages per
        # (kind, pair) and queueing cycles per link.
        self._pending = [[0] * (n * n) for _ in MessageKind]
        self._link_queue = [0] * len(link_ids)
        # Statistics, derived from the pending counts by _sync.
        self.stats = Scope(self._sync)
        self._messages = self.stats.counter("messages")
        self._flits = self.stats.counter("flits")
        self._hops = self.stats.counter("hops")
        self._queueing = self.stats.counter("queueing")
        kind_scope = self.stats.scope("kinds")
        self._kind_counts = [kind_scope.counter(k.name.lower())
                             for k in MessageKind]
        link_scope = self.stats.scope("links")
        self._link_messages = []
        self._link_queueing = []
        for link in link_ids:
            ls = link_scope.scope(f"r{link[0]}-r{link[1]}")
            self._link_messages.append(ls.counter("messages"))
            self._link_queueing.append(ls.counter("queueing"))

    def _route_links(self, src: int, dst: int) -> Tuple[Tuple[int, int], ...]:
        route = self.topology.dor_route(src, dst)
        return tuple(zip(route[:-1], route[1:]))

    def _sync(self) -> None:
        """Fold the pending flat counts into the registry counters."""
        routes = self._routes
        link_messages = self._link_messages
        for kind, row in zip(MessageKind, self._pending):
            if not any(row):
                continue
            kind_total = kind_hops = 0
            for pair, count in enumerate(row):
                if count:
                    row[pair] = 0
                    route = routes[pair]
                    kind_total += count
                    kind_hops += len(route) * count
                    for link_id in route:
                        link_messages[link_id].value += count
            self._kind_counts[kind.idx].value += kind_total
            self._messages.value += kind_total
            self._hops.value += kind_hops
            self._flits.value += kind.flits * kind_hops
        link_queue = self._link_queue
        if any(link_queue):
            for link_id, wait in enumerate(link_queue):
                if wait:
                    link_queue[link_id] = 0
                    self._link_queueing[link_id].value += wait
                    self._queueing.value += wait

    # -- legacy attribute API (reads through to the registry) ---------------

    @property
    def messages_sent(self) -> int:
        self.stats.sync()
        return self._messages.value

    @property
    def flits_sent(self) -> int:
        self.stats.sync()
        return self._flits.value

    @property
    def total_hops(self) -> int:
        self.stats.sync()
        return self._hops.value

    @property
    def total_queueing(self) -> int:
        self.stats.sync()
        return self._queueing.value

    @property
    def kind_counts(self) -> Dict[MessageKind, int]:
        self.stats.sync()
        return {k: self._kind_counts[k.idx].value for k in MessageKind}

    def reset_stats(self) -> None:
        self.stats.reset()

    def latency(self, src_router: int, dst_router: int) -> int:
        """Uncontended latency between two routers."""
        return self.hop_latency * self.topology.hops(src_router, dst_router)

    def deliver(self, kind: MessageKind, src_router: int, dst_router: int,
                depart: int) -> Message:
        """Route a message and return it with ``arrive`` filled in."""
        msg = Message(kind=kind, src_router=src_router, dst_router=dst_router,
                      depart=depart)
        msg.hops = self.topology.hops(src_router, dst_router)
        msg.arrive = self.arrival(kind, src_router, dst_router, depart)
        return msg

    def arrival(self, kind: MessageKind, src_router: int, dst_router: int,
                depart: int) -> int:
        """Arrival time of a message (the timing layer's fast path)."""
        pair = src_router * self._n + dst_router
        route = self._routes[pair]
        now = depart
        if route and self.model_contention:
            # Per-link serialization with a bounded wait: the simulator
            # orders events at reference granularity, so reservations
            # can be stamped out of time order; an uncapped busy-until
            # would then charge phantom waits against earlier-stamped
            # traffic. The cap (a few messages' worth of flits) keeps
            # genuine burst serialization while bounding the skew error.
            busy = self._link_busy
            hop_latency = self.hop_latency
            flits = kind.flits
            cap = 4 * flits
            for link_id in route:
                ready = busy[link_id]
                if ready > now:
                    wait = ready - now
                    if wait > cap:
                        wait = cap
                    self._link_queue[link_id] += wait
                    now += wait
                end = now + flits
                # Keep the later reservation.
                busy[link_id] = ready if ready > end else end
                now += hop_latency
        else:
            now += self.hop_latency * len(route)
        self._pending[kind.idx][pair] += 1
        return now
