"""SP-NUCA: Shared/Private NUCA (Section 2).

Request flow (Figure 2b): an L1 miss first probes the core's private
bank (private interpretation); on a miss there the request is forwarded
to the block's shared bank and — when the block is off chip — to the
memory controller in parallel; if the shared bank also misses, the
request is forwarded to the L1s or other private banks known (TokenD)
to hold tokens. A private block found in a *remote* private bank has
its private bit reset and migrates to its shared-map bank, so the
broadcast step is paid only once per demoted block.

Way partitioning between private and shared content is dynamic and
emergent from the replacement policy; flat LRU is the paper's choice,
with shadow-tag and static-12/4 partitioning as the Figure 4 baselines.

Engine note (docs/engine.md): the whole probe flow, including
private-bit demotion, runs from ``handle_miss`` — the contention path
serialized identically by both simulation engines. L1 hits never reach
the architecture, which is exactly what makes them batchable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.architectures.base import NucaArchitecture
from repro.cache.bank import CacheBank
from repro.cache.block import BlockClass, CacheBlock
from repro.cache.l1 import L1Line
from repro.cache.replacement import FlatLru, ReplacementPolicy, StaticPartition
from repro.cache.shadow import ShadowTagPartition
from repro.common.config import SystemConfig
from repro.coherence.tokens import L2Holding
from repro.core.private_bit import Classification, PrivateBitDirectory
from repro.sim.request import Supplier

#: Figure 4 partitioning variants.
PARTITIONING_CHOICES = ("lru", "static", "shadow")


class SpNuca(NucaArchitecture):
    name = "sp-nuca"

    #: Block classes matched by the private-bank probe (ESP adds REPLICA).
    private_probe_classes: Tuple[BlockClass, ...] = (BlockClass.PRIVATE,)
    #: Block classes matched by the shared-bank probe (ESP adds VICTIM).
    shared_probe_classes: Tuple[BlockClass, ...] = (BlockClass.SHARED,)

    def __init__(self, config: SystemConfig, partitioning: str = "lru") -> None:
        super().__init__(config)
        if partitioning not in PARTITIONING_CHOICES:
            raise ValueError(f"unknown partitioning {partitioning!r}")
        self.partitioning = partitioning
        self.classifier = PrivateBitDirectory()
        self.stats.mount("classifier", self.classifier.stats)
        self._shadow: Optional[ShadowTagPartition] = None
        if partitioning != "lru":
            self.name = f"sp-nuca-{partitioning}"

    # -- construction ------------------------------------------------------------

    def _make_policy(self) -> ReplacementPolicy:
        if self.partitioning == "static":
            # 12 of 16 ways private, 4 shared (Section 5.1, [23]).
            return StaticPartition(private_ways=3 * self.config.l2.assoc // 4)
        if self.partitioning == "shadow":
            if self._shadow is None:
                self._shadow = ShadowTagPartition(self.config.l2.assoc)
            return self._shadow
        return FlatLru()

    def build_banks(self) -> List[CacheBank]:
        cfg = self.config.l2
        policy = self._make_policy()
        return [CacheBank(b, cfg.sets_per_bank, cfg.assoc, policy)
                for b in range(cfg.num_banks)]

    # -- the miss path --------------------------------------------------------------

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        # Address-map arithmetic inlined from AddressMap.private_bank /
        # private_index / shared_bank / shared_index (Figure 1b): this
        # runs once per L2 access, and four method calls are measurable
        # on the contention path. The bit layout is defined there.
        amap = self.amap
        pb = core * amap._banks_per_core + (block & amap._private_bank_mask)
        pidx = (block >> amap.private_bank_bits) & amap._index_mask
        core_router = self.router_of_core(core)
        # Step 1: the local private bank (same router as the core).
        entry = self.banks[pb].lookup(pidx, block,
                                      classes=self.private_probe_classes,
                                      owner=core)
        if entry is not None:
            t_hit = self.bank_service(pb, t, hit=True)
            return self._serve_private_hit(core, block, entry, pb, pidx,
                                           is_write, t_hit)
        t_pmiss = self.bank_service(pb, t, hit=False)
        if self._shadow is not None:
            self._observe_shadow_miss(pb, pidx, block, BlockClass.PRIVATE)
        # Step 2: forward to the shared bank; dispatch memory in parallel
        # when no on-chip copy exists (TokenD-filtered speculation).
        sb = block & amap._bank_mask
        sidx = (block >> amap.bank_bits) & amap._index_mask
        sb_router = self.router_of_bank(sb)
        off_chip = not self.ledger.on_chip(block)
        t_sb = self.req(core_router, sb_router, t_pmiss)
        sentry = self.banks[sb].lookup(sidx, block,
                                       classes=self.shared_probe_classes)
        if sentry is not None:
            t_hit = self.bank_service(sb, t_sb, hit=True)
            return self._serve_shared_hit(core, block, sentry, sb, sidx,
                                          sb_router, is_write, t_hit)
        t_smiss = self.bank_service(sb, t_sb, hit=False)
        if self._shadow is not None:
            self._observe_shadow_miss(sb, sidx, block, BlockClass.SHARED)
        if off_chip:
            t_mem = self.fetch_offchip(core_router, t_pmiss, core_router)
            self.classifier.on_arrival(block, core)
            return self.fill_from_memory(core, block, is_write,
                                         max(t_mem, t_smiss))
        # Step 3/3': forward to L1 holders or other private banks.
        return self._serve_remote(core, block, sb, sidx, sb_router,
                                  is_write, t_smiss)

    # -- hit handlers ----------------------------------------------------------------

    def _serve_private_hit(self, core: int, block: int, entry: CacheBlock,
                           bank_id: int, index: int, is_write: bool,
                           t_hit: int) -> Tuple[int, Supplier]:
        """Hit in the requester's own partition: swap the block into L1."""
        return self.serve_l2_hit(core, block, bank_id, index, entry,
                                 self.router_of_core(core), is_write, t_hit,
                                 want_all=True)

    def _note_access(self, block: int, core: int) -> None:
        """Classifier update with a demotion instant when the private
        bit flips (the Section 2.3 private→shared transition)."""
        demoted = self.classifier.note_access(block, core)
        if demoted:
            tr = self.system.tracer
            if tr.enabled and tr.wants("classifier"):
                tr.instant(
                    "classifier", "demotion private->shared",
                    ts=self.system.trace_now, pid=self.system.trace_pid(),
                    tid=f"bank{self.amap.shared_bank(block)}",
                    args={"block": f"{block:#x}", "accessor": core})

    def _serve_shared_hit(self, core: int, block: int, entry: CacheBlock,
                          bank_id: int, index: int, sb_router: int,
                          is_write: bool, t_hit: int) -> Tuple[int, Supplier]:
        self._note_access(block, core)
        return self.serve_l2_hit(core, block, bank_id, index, entry,
                                 sb_router, is_write, t_hit)

    # -- the 3' path -------------------------------------------------------------------

    def _serve_remote(self, core: int, block: int, sb: int, sidx: int,
                      sb_router: int, is_write: bool, t: int
                      ) -> Tuple[int, Supplier]:
        """Block is on chip but in neither probed bank: remote private
        banks (migrate + demote) or remote L1s supply it."""
        self._note_access(block, core)
        holding = self.nearest_holding(block, sb_router)
        if holding is not None:
            return self._serve_remote_l2(core, block, holding, sb, sidx,
                                         sb_router, is_write, t)
        holders = [h for h in self.ledger.state(block).l1 if h != core]
        assert holders, "on-chip block must have a holder"
        return self.serve_from_l1s(core, block, is_write, holders, sb_router,
                                   t)

    def _serve_remote_l2(self, core: int, block: int, holding: L2Holding,
                         sb: int, sidx: int, sb_router: int, is_write: bool,
                         t: int) -> Tuple[int, Supplier]:
        entry = holding.entry
        if not is_write and entry.cls is BlockClass.REPLICA:
            # Another core's local copy of shared data: borrow a token,
            # leave the replica serving its owner.
            return self.borrow_from_l2(core, block, holding, sb_router, t)
        remote_router = self.router_of_bank(holding.bank_id)
        core_router = self.router_of_core(core)
        t1 = self.req(sb_router, remote_router, t)
        t2 = self.bank_service(holding.bank_id, t1, hit=True)
        if is_write:
            # Not serve_l2_hit: collect_for_write also gathers this copy
            # (nothing is taken from it first), and the data hop from
            # its bank is charged beside that collection.
            t_coll, tokens, _ = self.collect_for_write(core, block,
                                                       sb_router, t2)
            t_done = max(self.data(remote_router, core_router, t2), t_coll)
            self.system.l1_fill(core, block, tokens, True, t_done)
            return t_done, Supplier.L2_REMOTE
        # Private block in a remote private bank: reset the private bit
        # and migrate the copy to its shared bank (Section 2.3).
        dirty = entry.dirty
        tokens = self.ledger.take_from_l2(block, entry)
        self.banks[holding.bank_id].remove(holding.set_index, entry)
        grant = 1 if tokens > 1 else tokens
        rest = tokens - grant
        t_done = self.data(remote_router, core_router, t2)
        self.system.l1_fill(core, block, grant, dirty if rest == 0 else False,
                            t_done)
        if rest:
            self.merge_or_allocate(sb, sidx, block, BlockClass.SHARED, -1,
                                   rest, dirty, t=t_done)
        return t_done, Supplier.L2_REMOTE

    # -- eviction routing ------------------------------------------------------------------

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        block = line.block
        tokens = self.ledger.take_from_l1(block, core)
        cls = self.classifier.classify(block)
        if (cls is Classification.PRIVATE
                and self.classifier.owner(block) == core):
            self.merge_or_allocate(self.amap.private_bank(block, core),
                                   self.amap.private_index(block),
                                   block, BlockClass.PRIVATE, core,
                                   tokens, line.dirty, t=t)
        else:
            self.merge_or_allocate(self.amap.shared_bank(block),
                                   self.amap.shared_index(block),
                                   block, BlockClass.SHARED, -1,
                                   tokens, line.dirty, t=t)

    def on_block_left_chip(self, block: int) -> None:
        self.classifier.on_left_chip(block)

    # -- shadow-tag learning ---------------------------------------------------------------

    def _observe_shadow_miss(self, bank_id: int, set_index: int, block: int,
                             cls: BlockClass) -> None:
        if self._shadow is not None:
            self._shadow.observe_miss(bank_id, set_index, block, cls)
