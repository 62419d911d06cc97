"""Static shared NUCA — the paper's "Shared" counterpart (Section 6.1).

Every block has a single home bank determined by its address under the
shared interpretation of Figure 1b; requests go straight there (Figure
2a). Low off-chip miss rate (no replication), but no locality: the home
bank is on average several hops away.
"""

from __future__ import annotations

from typing import Tuple

from repro.architectures.base import NucaArchitecture
from repro.cache.block import BlockClass
from repro.cache.l1 import L1Line
from repro.sim.request import Supplier


class SharedNuca(NucaArchitecture):
    name = "shared"

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        bank_id = self.amap.shared_bank(block)
        index = self.amap.shared_index(block)
        home_router = self.router_of_bank(bank_id)
        core_router = self.router_of_core(core)
        t1 = self.req(core_router, home_router, t)
        entry = self.banks[bank_id].lookup(index, block)
        if entry is not None:
            # Not serve_l2_hit: the data reply leaves before the write
            # invalidations (serve_l2_hit sends it after them), and
            # merging the two changed the shared/oltp result pins.
            t2 = self.bank_service(bank_id, t1, hit=True)
            tokens, dirty, _ = self.take_from_l2_entry(
                block, bank_id, index, entry, want_all=is_write)
            t_done = self.data(home_router, core_router, t2)
            if is_write:
                t_coll, extra, _ = self.collect_for_write(core, block,
                                                          home_router, t2)
                tokens += extra
                dirty = True
                t_done = max(t_done, t_coll)
            self.system.l1_fill(core, block, tokens, dirty, t_done)
            supplier = (Supplier.L2_LOCAL if home_router == core_router
                        else Supplier.L2_SHARED)
            return t_done, supplier
        t2 = self.bank_service(bank_id, t1, hit=False)
        holders = [h for h in self.ledger.state(block).l1 if h != core]
        if holders:
            return self.serve_from_l1s(core, block, is_write, holders,
                                       home_router, t2)
        # An L2 copy outside the home bank exists only in subclasses
        # that keep extra copies (e.g. Victim Replication's local
        # replicas): the home bank forwards to the nearest one.
        holding = self.nearest_holding(block, home_router)
        if holding is not None:
            if not is_write:
                return self.borrow_from_l2(core, block, holding, home_router,
                                           t2)
            # Not serve_l2_hit: the writer's invalidations start at the
            # home bank, and the data leaves the copy only after them.
            remote_router = self.router_of_bank(holding.bank_id)
            t3 = self.req(home_router, remote_router, t2)
            t4 = self.bank_service(holding.bank_id, t3, hit=True)
            tokens, _, _ = self.take_from_l2_entry(
                block, holding.bank_id, holding.set_index, holding.entry,
                want_all=True)
            t_coll, extra, _ = self.collect_for_write(core, block,
                                                      home_router, t4)
            t_done = self.data(remote_router, core_router, max(t4, t_coll))
            self.system.l1_fill(core, block, tokens + extra, True, t_done)
            return t_done, Supplier.L2_REMOTE
        # Off chip: the home bank dispatches to its nearest controller.
        return self.fill_from_memory(
            core, block, is_write,
            self.fetch_offchip(home_router, t2, core_router))

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        block = line.block
        tokens = self.ledger.take_from_l1(block, core)
        self.merge_or_allocate(self.amap.shared_bank(block),
                               self.amap.shared_index(block),
                               block, BlockClass.SHARED, -1,
                               tokens, line.dirty, t=t)
