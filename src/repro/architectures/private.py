"""Tiled private L2 — the paper's "Private" counterpart (Section 6.1).

Each core treats its four nearest banks as a fully private L2 under the
private interpretation of Figure 1b, with unrestricted replication:
every L1 writeback allocates in the local partition. Low on-chip
latency and full isolation, but shared data is replicated (capacity
loss) and an idle core's partition helps nobody.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.architectures.base import NucaArchitecture
from repro.cache.block import BlockClass
from repro.cache.l1 import L1Line
from repro.sim.request import Supplier


#: ``TiledPrivate.handle_miss``'s default ``source``: not looked up yet.
_UNSEARCHED = object()


class TiledPrivate(NucaArchitecture):
    name = "private"

    def handle_miss(self, core: int, block: int, is_write: bool, t: int,
                    source: object = _UNSEARCHED) -> Tuple[int, Supplier]:
        """Serve an L1 miss. A subclass that already called
        :meth:`_nearest_source` for this miss passes its result as
        ``source``; nothing before the private-bank miss changes the
        ledger, so it is the one this method would find."""
        bank_id = self.amap.private_bank(block, core)
        index = self.amap.private_index(block)
        core_router = self.router_of_core(core)  # == the bank's router
        entry = self.banks[bank_id].lookup(index, block, owner=core)
        if entry is not None:
            self._on_local_hit(core, entry)
            t2 = self.bank_service(bank_id, t, hit=True)
            return self.serve_l2_hit(core, block, bank_id, index, entry,
                                     core_router, is_write, t2, want_all=True)
        t2 = self.bank_service(bank_id, t, hit=False)
        if source is _UNSEARCHED:
            source = self._nearest_source(core, block)
        if source is None:
            return self.fill_from_memory(
                core, block, is_write,
                self.fetch_offchip(core_router, t2, core_router))
        kind, obj = source
        if is_write:
            t_done = self.collect_into_l1(core, block, core_router, t2)
            return t_done, (Supplier.L1_REMOTE if kind == "l1"
                            else Supplier.L2_REMOTE)
        if kind == "l1":
            return self.serve_from_l1s(core, block, False, (obj,),
                                       core_router, t2)
        return self.borrow_from_l2(core, block, obj, core_router, t2)

    def _on_local_hit(self, core: int, entry) -> None:
        """Hook for subclasses (ASR counts replica hits here)."""

    def _nearest_source(self, core: int, block: int
                        ) -> Optional[Tuple[str, object]]:
        state = self.ledger.state(block)
        core_router = self.router_of_core(core)
        best: Optional[Tuple[int, str, object]] = None
        for holder in state.l1:
            if holder == core:
                continue
            hops = self.topology.hops(core_router, self.router_of_core(holder))
            if best is None or hops < best[0]:
                best = (hops, "l1", holder)
        for holding in state.l2.values():
            hops = self.topology.hops(core_router,
                                      self.router_of_bank(holding.bank_id))
            if best is None or hops < best[0]:
                best = (hops, "l2", holding)
        if best is None:
            return None
        return best[1], best[2]

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        block = line.block
        tokens = self.ledger.take_from_l1(block, core)
        self.merge_or_allocate(self.amap.private_bank(block, core),
                               self.amap.private_index(block),
                               block, BlockClass.PRIVATE, core,
                               tokens, line.dirty, t=t)
