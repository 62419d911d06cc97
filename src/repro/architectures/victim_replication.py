"""Victim Replication (Zhang & Asanović [22]).

The paper excludes VR from its headline comparison "because it has been
outperformed by both ASR and Cooperative Caching", but it is the
closest ancestor of ESP-NUCA's replica mechanism, so it is provided as
an extra baseline (and an ablation target: ESP-NUCA minus victims,
minus protection, on a shared substrate).

Mechanism: a shared S-NUCA in which an L1 eviction whose home bank is
remote leaves a *replica* in the evicting core's local bank (same
shared-map index, local cluster), evicted on demand by plain LRU —
replication without any admission control, which is exactly the
weakness ESP-NUCA's protected LRU addresses.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.architectures.shared import SharedNuca
from repro.cache.block import BlockClass, CacheBlock
from repro.cache.l1 import L1Line
from repro.sim.request import Supplier


class VictimReplication(SharedNuca):
    name = "victim-replication"

    def bind(self, system) -> None:
        super().bind(system)
        helping = self.stats.scope("helping")
        self._replicas_created = helping.counter("replicas_created")
        self._replica_hits = helping.counter("replica_hits")

    @property
    def replicas_created(self) -> int:
        return self._replicas_created.value

    @property
    def replica_hits(self) -> int:
        return self._replica_hits.value

    def _local_bank(self, block: int, core: int) -> Tuple[int, int]:
        """The local-cluster bank slot VR uses for replicas: the bank
        of the home bankset column within the core's own cluster."""
        local = self.amap.shared_bank(block) % self.config.noc.banks_per_router
        bank = core * self.config.noc.banks_per_router + local
        return bank, self.amap.shared_index(block)

    # -- probe order: local replica first, then the home bank ----------------------

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        bank_id, index = self._local_bank(block, core)
        home = self.amap.shared_bank(block)
        if bank_id != home:
            entry = self.banks[bank_id].lookup(
                index, block, classes=(BlockClass.REPLICA,), owner=core)
            if entry is not None:
                self._replica_hits.value += 1
                t_hit = self.bank_service(bank_id, t, hit=True)
                # The replica lends reads one token and keeps serving
                # its owner; a write takes every token.
                return self.serve_l2_hit(core, block, bank_id, index, entry,
                                         self.router_of_core(core), is_write,
                                         t_hit, exclusive_if_sole=False)
            t = self.bank_service(bank_id, t, hit=False)
        return super().handle_miss(core, block, is_write, t)

    # -- unrestricted replication on writeback --------------------------------------

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        block = line.block
        home = self.amap.shared_bank(block)
        bank_id, index = self._local_bank(block, core)
        state = self.ledger.state(block)
        other_copies = (any(h != core for h in state.l1) or bool(state.l2))
        if bank_id == home or not other_copies:
            # Home is already local, or this is the last on-chip copy
            # (the home bank must keep the authoritative copy).
            super().route_l1_eviction(core, line, t)
            return
        tokens = self.ledger.take_from_l1(block, core)
        bank = self.banks[bank_id]
        existing = bank.peek(index, block, classes=(BlockClass.REPLICA,),
                             owner=core)
        if existing is not None:
            existing.tokens += tokens
            existing.dirty = existing.dirty or line.dirty
            bank.touch(existing)
            return
        entry = CacheBlock(block=block, cls=BlockClass.REPLICA, owner=core,
                           dirty=line.dirty, tokens=tokens)
        if self.l2_allocate(bank_id, index, entry, t=t):
            self._replicas_created.value += 1
            return
        self.system.send_to_memory(block, tokens, line.dirty,
                                   self.router_of_bank(bank_id), t)
