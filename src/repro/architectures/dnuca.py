"""Dynamically-mapped NUCA (D-NUCA, Kim et al. [13]) — Section 6.1.

The implementation follows the variant the paper compares against
(Beckmann & Wood's CMP D-NUCA [4] "which assumes an idealized
perfect-search and uses replication"):

* the 32 banks form ``banks_per_router`` **banksets**; a block's
  address picks its bankset, and the block may reside in that bankset's
  bank of *any* cluster;
* **perfect search**: a request goes straight to the bank currently
  holding the block (no multicast probes are charged — idealized, as in
  the paper);
* **gradual migration**: a hit by a core in another cluster pulls a
  sole copy one cluster-step toward the requester (swapping with the
  victim way of the target bank);
* **replication**: a remote hit on a multi-reader copy (spare tokens)
  leaves a one-token replica in the requester's own cluster instead of
  migrating — this is where D-NUCA buys its on-chip locality and pays
  with the higher L2 miss rate the paper reports.
"""

from __future__ import annotations

from typing import Tuple

from repro.architectures.base import NucaArchitecture
from repro.cache.block import BlockClass, CacheBlock
from repro.cache.l1 import L1Line
from repro.coherence.tokens import L2Holding
from repro.sim.request import Supplier


class DNuca(NucaArchitecture):
    name = "d-nuca"

    def bind(self, system) -> None:
        super().bind(system)
        self._bankset_mask = self.config.noc.banks_per_router - 1
        self._bankset_bits = self._bankset_mask.bit_length()
        self._index_mask = self.config.l2.sets_per_bank - 1

    # -- bankset geometry ---------------------------------------------------------

    def bankset(self, block: int) -> int:
        return block & self._bankset_mask

    def dnuca_index(self, block: int) -> int:
        return (block >> self._bankset_bits) & self._index_mask

    def bank_of(self, block: int, cluster: int) -> int:
        return cluster * self.config.noc.banks_per_router + self.bankset(block)

    # -- miss path -------------------------------------------------------------------

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        index = self.dnuca_index(block)
        core_router = self.router_of_core(core)
        holding = self.nearest_holding(block, core_router)
        if holding is not None:
            # Perfect search: go straight to the holder bank.
            bank_id = holding.bank_id
            bank_router = self.router_of_bank(bank_id)
            t1 = self.req(core_router, bank_router, t)
            # Count the demand lookup in the holder bank's statistics.
            entry = self.banks[bank_id].lookup(index, block)
            assert entry is holding.entry
            t2 = self.bank_service(bank_id, t1, hit=True)
            if is_write or bank_router == core_router:
                # Local hits swallow sole copies (cheap later upgrades).
                return self.serve_l2_hit(core, block, bank_id, index, entry,
                                         bank_router, is_write, t2)
            # Remote hit: borrow a token and pull the copy one
            # cluster-step toward the requester (gradual migration);
            # replication happens on the requester's later writeback.
            # A sole token leaves with the reader: nothing to migrate.
            migrate = entry.tokens > 1
            t_done, supplier = self.serve_l2_hit(
                core, block, bank_id, index, entry, bank_router, False, t2,
                exclusive_if_sole=False)
            if migrate:
                self._migrate_toward(block, entry, holding, core_router,
                                     t_done)
            return t_done, supplier
        # Not in L2: remote L1s, then memory. Miss detection is charged
        # at the requester's own cluster bank of the bankset.
        own_bank = self.bank_of(block, core)
        self.banks[own_bank].lookup(index, block)  # records the miss
        t2 = self.bank_service(own_bank, t, hit=False)
        holders = [h for h in self.ledger.state(block).l1 if h != core]
        if holders:
            return self.serve_from_l1s(core, block, is_write, holders,
                                       core_router, t2)
        return self.fill_from_memory(
            core, block, is_write,
            self.fetch_offchip(core_router, t2, core_router))

    # -- movement -----------------------------------------------------------------------

    def _migrate_toward(self, block: int, entry: CacheBlock,
                        holding: L2Holding, requester_router: int,
                        t: int = 0) -> None:
        """Move the entry one cluster-step toward the requester,
        swapping with the LRU block of the target set."""
        src_router = self.router_of_bank(holding.bank_id)
        route = self.topology.dor_route(src_router, requester_router)
        if len(route) < 2:
            return
        target_cluster = route[1]
        src_bank, src_index = holding.bank_id, holding.set_index
        dst_bank = self.bank_of(block, target_cluster)
        dst_index = self.dnuca_index(block)
        dst_set = self.banks[dst_bank].sets[dst_index]
        # If the destination already holds a copy, merge instead of
        # moving (the bankset may contain several replicas).
        existing = dst_set.find(block)
        tokens = self.ledger.take_from_l2(block, entry)
        self.banks[src_bank].remove(src_index, entry)
        if existing is not None:
            existing.tokens += tokens
            existing.dirty = existing.dirty or entry.dirty
            self.banks[dst_bank].touch(existing)
            return
        entry.tokens = tokens
        victim = dst_set.lru_block()
        if victim is not None:
            # Swap: the displaced block takes the vacated way — unless
            # the source set already has a copy of it, which absorbs
            # its tokens instead (no duplicate entries per set).
            vtokens = self.ledger.take_from_l2(victim.block, victim)
            self.banks[dst_bank].remove(dst_index, victim)
            src_copy = self.banks[src_bank].sets[src_index].find(victim.block)
            if src_copy is not None:
                src_copy.tokens += vtokens
                src_copy.dirty = src_copy.dirty or victim.dirty
            else:
                victim.tokens = vtokens
                admitted, evicted = self.banks[src_bank].allocate(src_index,
                                                                  victim)
                assert admitted and evicted is None
                self.ledger.register_l2(victim.block, src_bank, src_index,
                                        victim)
        admitted, evicted = self.banks[dst_bank].allocate(dst_index, entry)
        assert admitted
        if evicted is not None:  # only when the set had a free way race
            etokens = self.ledger.take_from_l2(evicted.block, evicted)
            self.on_l2_eviction(dst_bank, dst_index, evicted, etokens, False,
                                t)
        self.ledger.register_l2(block, dst_bank, dst_index, entry)

    # -- eviction routing ------------------------------------------------------------------

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        """Writebacks land in the evicting core's own cluster bank: a
        same-cluster copy is merged, otherwise a new (replicated) entry
        is created there — unrestricted L2 replication within the
        bankset, the source of D-NUCA's extra capacity pressure."""
        block = line.block
        tokens = self.ledger.take_from_l1(block, core)
        own_bank = self.bank_of(block, core)
        holdings = self.ledger.l2_holdings(block)
        for holding in holdings:
            if holding.bank_id == own_bank:
                holding.entry.tokens += tokens
                holding.entry.dirty = holding.entry.dirty or line.dirty
                self.banks[own_bank].touch(holding.entry)
                return
        self.merge_or_allocate(own_bank, self.dnuca_index(block),
                               block, BlockClass.SHARED, -1,
                               tokens, line.dirty, t=t)
