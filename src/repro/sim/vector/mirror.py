"""L1 change journal (docs/engine.md).

The vectorized engine classifies upcoming references as *local* (L1
hit needing no other component) or *contention* (everything else)
against live L1 state. A classification is only valid until a
contention event evicts, invalidates or takes tokens from an L1 line
the classified run relies on; the journal records exactly those
transitions so the engine can re-classify the affected cores and
nobody else.

Hook contract. The journal has no hook methods: the three hook points
(the complete set — verified against every architecture) update its
fields inline against the installed ``journal`` / ``l1_journal``
attribute (see below for why). Each adds the core to ``dirty`` when
the block concerned is in ``runs[core]``:

* :meth:`repro.cache.l1.L1Cache.fill` — a fresh install dirties the
  core if the *evicted* block is in its run;
* :meth:`repro.cache.l1.L1Cache.invalidate` — dirties the core if the
  invalidated block is in its run;
* :meth:`repro.coherence.tokens.TokenLedger.take_from_l1` — the single
  chokepoint through which L1 token counts ever *decrease*; dirties
  the core if the block is in its run (and only when tokens were
  actually taken).

Token *increases* (a merge into a resident line, ``send_to_memory``
merges, ``handle_upgrade`` collection) need no hook: they can only turn
contention into locality, which the next classification finds.

The hooks fire on every L1 fill — i.e. once per miss, the dominant
event on the cold grid — so they are kept to the run-invalidation
check, which must happen at the transition.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.cache.l1 import L1Cache


class MirrorJournal:
    """Per-core classified-run block sets plus a dirty-core set.

    ``dirty`` collects cores whose classified run may have been
    invalidated since the last drain.
    """

    def __init__(self, num_cores: int) -> None:
        self.dirty: Set[int] = set()
        # Per-core block sets of the currently classified runs, owned
        # by the engine. A membership/token transition invalidates a
        # core's classification only when it touches a block *inside
        # that core's run* — anything else cannot change how the run's
        # references behave, so the core stays parked undisturbed.
        # ``None`` = no classified run (nothing to invalidate).
        self.runs: List[Optional[Set[int]]] = [None] * num_cores

    def install(self, l1s: List[L1Cache], ledger) -> None:
        """Attach to the hook points with no classified run (phase
        start)."""
        for core in range(len(self.runs)):
            self.runs[core] = None
        self.dirty.clear()
        for l1 in l1s:
            l1.journal = self
        ledger.l1_journal = self

    def uninstall(self, l1s: List[L1Cache], ledger) -> None:
        for l1 in l1s:
            l1.journal = None
        ledger.l1_journal = None
