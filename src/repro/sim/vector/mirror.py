"""L1 membership mirror and change journal (docs/engine.md).

The vectorized engine classifies upcoming references as *local* (L1
hit needing no other component) or *contention* (everything else)
against a snapshot of L1 state. That snapshot is only valid until a
contention event changes L1 membership or removes tokens from an L1
line; the journal records exactly those transitions so the engine can
re-classify the affected cores and nobody else.

Hook contract. The journal has no hook methods: the three hook points
(the complete set — verified against every architecture) update its
fields inline against the installed ``journal`` / ``l1_journal``
attribute (see below for why). Each marks the core's sets
stale (``_stale[core] = True``), and each that can break a classified
run adds the core to ``dirty`` when the block concerned is in
``runs[core]``:

* :meth:`repro.cache.l1.L1Cache.fill` — a fresh install dirties the
  core if the *evicted* block is in its run; a token merge into an
  existing line only marks it stale (a token increase can only turn
  contention into locality, which the next classification finds);
* :meth:`repro.cache.l1.L1Cache.invalidate` — dirties the core if the
  invalidated block is in its run;
* :meth:`repro.coherence.tokens.TokenLedger.take_from_l1` — the single
  chokepoint through which L1 token counts ever *decrease*; dirties
  the core if the block is in its run (and only when tokens were
  actually taken).

Token *increases* outside these hooks (``send_to_memory`` merges,
``handle_upgrade`` collection) leave the mirror's ``full`` set stale
low, which is safe: a full-token write misclassified as contention is
served as contention, with identical results.

The hooks fire on every L1 fill — i.e. once per miss, the dominant
event on the cold grid — so they are kept to the minimum eager work:
run-invalidation checks (which must happen at the transition) plus one
staleness flag. The ``resident``/``full`` block sets exist only to
feed the *bulk* classification path, which miss-heavy phases never
reach, so they are rebuilt lazily from live L1 contents on the next
:meth:`resident_array`/:meth:`full_array` request instead of being
maintained per event.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.cache.l1 import L1Cache

from repro.sim.vector import soa


class MirrorJournal:
    """Per-core resident/full-token block sets plus a dirty-core set.

    ``resident[c]`` is exact and ``full[c]`` (resident with all tokens)
    is conservative (never stale high) — *after* :meth:`refresh`, which
    the array accessors call on demand. ``dirty`` collects cores whose
    classified run may have been invalidated since the last drain.
    """

    def __init__(self, num_cores: int, total_tokens: int) -> None:
        self.total_tokens = total_tokens
        self.resident: List[Set[int]] = [set() for _ in range(num_cores)]
        self.full: List[Set[int]] = [set() for _ in range(num_cores)]
        self.dirty: Set[int] = set()
        # Per-core block sets of the currently classified runs, owned
        # by the engine. A membership/token transition invalidates a
        # core's classification only when it touches a block *inside
        # that core's run* — anything else cannot change how the run's
        # references behave, so the core stays parked undisturbed.
        # ``None`` = no classified run (nothing to invalidate).
        self.runs: List[Optional[Set[int]]] = [None] * num_cores
        self._stale: List[bool] = [True] * num_cores
        self._l1s: List[L1Cache] = []
        self._resident_np: List[Optional[object]] = [None] * num_cores
        self._full_np: List[Optional[object]] = [None] * num_cores

    # -- lifecycle -----------------------------------------------------------

    def rebuild(self, l1s: List[L1Cache]) -> None:
        """Drop every snapshot; sets resynchronize lazily (phase start)."""
        self._l1s = l1s
        for core in range(len(self.runs)):
            self._stale[core] = True
            self.runs[core] = None
        self.dirty.clear()

    def refresh(self, core: int) -> None:
        """Resynchronize one core's sets from live L1 contents."""
        l1 = self._l1s[core]
        resident = self.resident[core]
        full = self.full[core]
        resident.clear()
        full.clear()
        total = self.total_tokens
        for cache_set in l1._sets:
            for block, line in cache_set.items():
                resident.add(block)
                if line.tokens == total:
                    full.add(block)
        self._stale[core] = False
        self._resident_np[core] = None
        self._full_np[core] = None

    def install(self, l1s: List[L1Cache], ledger) -> None:
        self.rebuild(l1s)
        for l1 in l1s:
            l1.journal = self
        ledger.l1_journal = self

    def uninstall(self, l1s: List[L1Cache], ledger) -> None:
        for l1 in l1s:
            l1.journal = None
        ledger.l1_journal = None

    # -- numpy views (bulk classification) -----------------------------------

    def resident_array(self, core: int):
        if self._stale[core]:
            self.refresh(core)
        arr = self._resident_np[core]
        if arr is None:
            arr = soa.as_block_array(self.resident[core])
            self._resident_np[core] = arr
        return arr

    def full_array(self, core: int):
        if self._stale[core]:
            self.refresh(core)
        arr = self._full_np[core]
        if arr is None:
            arr = soa.as_block_array(self.full[core])
            self._full_np[core] = arr
        return arr
