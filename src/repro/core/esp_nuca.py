"""ESP-NUCA: SP-NUCA enhanced with replicas and victims (Section 3).

On top of SP-NUCA's private/shared organization, ESP-NUCA keeps two
kinds of *helping blocks*:

* **replicas** — when an L1 evicts a shared block, a one-token copy is
  (tentatively) left in the evicting core's private partition while the
  rest of the tokens return to the shared bank, so later local reads
  hit at private-bank distance;
* **victims** — when a private block is evicted from its owner's
  private partition, it is (tentatively) moved to its shared-map bank
  instead of off chip, so the owner's next miss stays on chip — and a
  second core's access finds it already in shared space, where it is
  demoted in place.

"Tentatively" is the point of the architecture: admission is governed
by protected LRU, whose per-set helping budget ``nmax`` is tuned
on-line by the set-dueling controller (:mod:`repro.core.duel`) so
helping blocks exist only while they do not hurt first-class hit rates.
``variant="flat"`` disables the protection (the Figure 5 baseline).

Engine note (docs/engine.md): replica/victim creation rides L1 and L2
evictions, which only happen during misses and fills — contention
events both simulation engines serialize identically — so ESP-NUCA
needs no engine-specific code; the cross-engine fuzz grid pins it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.bank import CacheBank
from repro.cache.block import BlockClass, CacheBlock
from repro.cache.l1 import L1Line
from repro.cache.replacement import FlatLru, ProtectedLru
from repro.common.config import SystemConfig
from repro.core.duel import DuelController
from repro.core.private_bit import Classification
from repro.core.sp_nuca import SpNuca
from repro.sim.request import Supplier

VARIANTS = ("protected", "flat")

#: ``nmax_pinned`` sentinel: helping blocks unbounded (``bank.nmax =
#: None``), i.e. protected LRU with an infinite budget.
UNBOUNDED = "unbounded"


class EspNuca(SpNuca):
    name = "esp-nuca"

    private_probe_classes = (BlockClass.PRIVATE, BlockClass.REPLICA)
    shared_probe_classes = (BlockClass.SHARED, BlockClass.VICTIM)

    def __init__(self, config: SystemConfig, variant: str = "protected",
                 record_nmax_history: bool = False,
                 nmax_pinned: "int | str | None" = None) -> None:
        super().__init__(config, partitioning="lru")
        if variant not in VARIANTS:
            raise ValueError(f"unknown ESP-NUCA variant {variant!r}")
        # ``nmax_pinned`` freezes the helping budget instead of dueling:
        # an int in [0, ways-1], or UNBOUNDED for an infinite budget.
        # No duel controller, no set roles, no monitors — the oracle
        # harness (repro.check.oracles) uses it to reduce ESP-NUCA to
        # behaviourally comparable fixed points.
        if nmax_pinned is not None:
            if variant != "protected":
                raise ValueError("nmax_pinned requires the protected variant")
            if nmax_pinned != UNBOUNDED and not (
                    isinstance(nmax_pinned, int)
                    and 0 <= nmax_pinned <= config.l2.assoc - 1):
                raise ValueError(
                    f"nmax_pinned must be in [0, {config.l2.assoc - 1}] "
                    f"or UNBOUNDED, got {nmax_pinned!r}")
            self.name = f"esp-nuca-pin-{nmax_pinned}"
        self.nmax_pinned = nmax_pinned
        self.variant = variant
        if variant == "flat":
            self.name = "esp-nuca-flat"
        self.duel: Optional[DuelController] = None
        self._record_nmax_history = record_nmax_history
        # Helping-block statistics (mounted at ``arch.helping``).
        helping = self.stats.scope("helping")
        self._replicas_created = helping.counter("replicas_created")
        self._victims_created = helping.counter("victims_created")
        self._replica_hits = helping.counter("replica_hits")
        self._victim_hits = helping.counter("victim_hits")

    @property
    def replicas_created(self) -> int:
        return self._replicas_created.value

    @property
    def victims_created(self) -> int:
        return self._victims_created.value

    @property
    def replica_hits(self) -> int:
        return self._replica_hits.value

    @property
    def victim_hits(self) -> int:
        return self._victim_hits.value

    # -- construction ---------------------------------------------------------------

    def build_banks(self) -> List[CacheBank]:
        cfg = self.config.l2
        if self.variant == "flat":
            return [CacheBank(b, cfg.sets_per_bank, cfg.assoc, FlatLru())
                    for b in range(cfg.num_banks)]
        policy = ProtectedLru()
        return [CacheBank(b, cfg.sets_per_bank, cfg.assoc, policy)
                for b in range(cfg.num_banks)]

    def on_bound(self) -> None:
        if self.variant != "protected":
            return
        if self.nmax_pinned is not None:
            pinned = (None if self.nmax_pinned == UNBOUNDED
                      else self.nmax_pinned)
            for bank in self.banks:
                bank.nmax = pinned
            return
        self.duel = DuelController(self.config.esp, self.config.l2.assoc,
                                   record_history=self._record_nmax_history)
        for bank in self.banks:
            self.duel.attach(bank)
        self.stats.mount("duel", self.duel.stats, replace=True)
        self.on_tracer(self.system.tracer)

    def on_tracer(self, tracer) -> None:
        if self.duel is not None:
            system = self.system
            self.duel.set_tracer(tracer, now=lambda: system.trace_now,
                                 pid=system.trace_pid)

    # -- hit handling refinements ---------------------------------------------------

    def _serve_private_hit(self, core: int, block: int, entry: CacheBlock,
                           bank_id: int, index: int, is_write: bool,
                           t_hit: int) -> Tuple[int, Supplier]:
        if entry.cls is BlockClass.REPLICA:
            self._replica_hits.value += 1
            # Lend reads token-by-token so the replica persists across
            # reuses instead of swapping into the L1 and being recreated
            # (and re-evicting a neighbour) on every L1 eviction cycle;
            # a write still takes every token.
            return self.serve_l2_hit(core, block, bank_id, index, entry,
                                     self.router_of_core(core), is_write,
                                     t_hit, exclusive_if_sole=False)
        return super()._serve_private_hit(core, block, entry, bank_id,
                                          index, is_write, t_hit)

    def _serve_shared_hit(self, core: int, block: int, entry: CacheBlock,
                          bank_id: int, index: int, sb_router: int,
                          is_write: bool, t_hit: int) -> Tuple[int, Supplier]:
        if entry.cls is BlockClass.VICTIM:
            self._victim_hits.value += 1
            if entry.owner == core:
                # The owner reclaims its victim: swap it back into L1.
                return self.serve_l2_hit(core, block, bank_id, index, entry,
                                         sb_router, is_write, t_hit,
                                         want_all=True)
            # A second core reached a remote private block that already
            # sits at its shared-map location: demote it in place.
            self.banks[bank_id].reclassify(index, entry, BlockClass.SHARED)
            entry.owner = -1
            tr = self.system.tracer
            if tr.enabled and tr.wants("esp"):
                tr.instant(
                    "esp", "victim demoted in place",
                    ts=self.system.trace_now, pid=self.system.trace_pid(),
                    tid=f"bank{bank_id}",
                    args={"block": f"{block:#x}", "accessor": core})
        return super()._serve_shared_hit(core, block, entry, bank_id, index,
                                         sb_router, is_write, t_hit)

    # -- helping-block creation --------------------------------------------------------

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        block = line.block
        cls = self.classifier.classify(block)
        if (cls is Classification.PRIVATE
                and self.classifier.owner(block) == core):
            tokens = self.ledger.take_from_l1(block, core)
            self.merge_or_allocate(self.amap.private_bank(block, core),
                                   self.amap.private_index(block),
                                   block, BlockClass.PRIVATE, core,
                                   tokens, line.dirty, t=t)
            return
        tokens = self.ledger.take_from_l1(block, core)
        dirty = line.dirty
        sb = self.amap.shared_bank(block)
        sidx = self.amap.shared_index(block)
        if self.is_local_bank(core, sb) or not line.reused:
            # No replica when the shared bank already sits at this
            # core's router (it could not get closer), or when the line
            # showed no reuse while in the L1 (single-touch shared data
            # would only burn a way and evict first-class blocks).
            self.merge_or_allocate(sb, sidx, block, BlockClass.SHARED, -1,
                                   tokens, dirty, t=t)
            return
        if tokens >= 2:
            # Endow the replica with a few tokens so it can serve
            # several local reads before dissolving; the remainder (and
            # the dirty responsibility) goes to the shared bank.
            grant = min(tokens - 1, 4)
            if self._try_replica(core, block, grant, dirty=False, t=t):
                tokens -= grant
            self.merge_or_allocate(sb, sidx, block, BlockClass.SHARED, -1,
                                   tokens, dirty, t=t)
            return
        # Single token: the other copies (and likely a shared entry)
        # are elsewhere, so the whole writeback becomes the replica.
        if not self._try_replica(core, block, tokens, dirty, t=t):
            self.merge_or_allocate(sb, sidx, block, BlockClass.SHARED, -1,
                                   tokens, dirty, t=t)

    def _try_replica(self, core: int, block: int, tokens: int,
                     dirty: bool, t: int = 0) -> bool:
        bank_id = self.amap.private_bank(block, core)
        index = self.amap.private_index(block)
        bank = self.banks[bank_id]
        existing = bank.peek(index, block, classes=(BlockClass.REPLICA,),
                             owner=core)
        if existing is not None:
            existing.tokens += tokens
            existing.dirty = existing.dirty or dirty
            bank.touch(existing)
            return True
        entry = CacheBlock(block=block, cls=BlockClass.REPLICA, owner=core,
                           dirty=dirty, tokens=tokens)
        if self.l2_allocate(bank_id, index, entry, cascade=True, t=t):
            self._replicas_created.value += 1
            tr = self.system.tracer
            if tr.enabled and tr.wants("esp"):
                tr.instant(
                    "esp", "replica placed", ts=self.system.trace_now,
                    pid=self.system.trace_pid(), tid=f"bank{bank_id}",
                    args={"block": f"{block:#x}", "owner": core,
                          "tokens": tokens})
            return True
        return False

    def on_l2_eviction(self, bank_id: int, set_index: int, entry: CacheBlock,
                       tokens: int, cascade: bool, t: int = 0) -> None:
        if entry.cls is BlockClass.PRIVATE and not cascade:
            sb = self.amap.shared_bank(entry.block)
            sidx = self.amap.shared_index(entry.block)
            bank = self.banks[sb]
            existing = bank.peek(sidx, entry.block,
                                 classes=(BlockClass.VICTIM,),
                                 owner=entry.owner)
            if existing is not None:
                existing.tokens += tokens
                existing.dirty = existing.dirty or entry.dirty
                bank.touch(existing)
                return
            victim = CacheBlock(block=entry.block, cls=BlockClass.VICTIM,
                                owner=entry.owner, dirty=entry.dirty,
                                tokens=tokens)
            if self.l2_allocate(sb, sidx, victim, cascade=True, t=t):
                self._victims_created.value += 1
                tr = self.system.tracer
                if tr.enabled and tr.wants("esp"):
                    tr.instant(
                        "esp", "victim placed", ts=self.system.trace_now,
                        pid=self.system.trace_pid(), tid=f"bank{sb}",
                        args={"block": f"{entry.block:#x}",
                              "owner": entry.owner, "tokens": tokens})
                return
        self.system.send_to_memory(entry.block, tokens, entry.dirty,
                                   self.router_of_bank(bank_id), t)
