"""Epoch-batched simulation engine (docs/engine.md).

Identical simulated machine, different schedule. The reference engine
interleaves every memory reference of every core through one heap; this
engine observes that most references are *local* — L1 read hits, and
write hits holding all coherence tokens — which touch nothing outside
their own core (own L1 LRU/dirty bits, own timing state, commutative
counters). Between two *contention points* (L1 misses and token
upgrades, which traverse shared banks, the NoC, the ledger and the
policy machinery), local runs from different cores commute, so they can
be committed in uninterrupted batches instead of round-tripping through
the heap per reference.

The schedule per epoch:

1. **classify + scout** — for each core whose classification was
   invalidated, probe its upcoming references against current L1 state
   to find the maximal local run (membership only — no timing), then
   time the run with :meth:`VectorizedEngine._walk` on a copy of the
   core's state; the clock after the run is the core's *park key* —
   the heap key at which its next contention point would fire.
2. **owner** — the minimum (park clock, core id) over active cores,
   K*, is globally the next contention in reference order.
3. **bounded commits** — every other core commits the prefix of its
   local run whose keys order strictly before K* (a write hit's dirty
   bit must be visible to a later contention, and must not be visible
   to an earlier one); the same :meth:`VectorizedEngine._walk`, run on
   the live state with K* as its bound, finds that prefix.
4. **full commit + serve burst** — the owner commits its entire run
   (its own references are FIFO, so its locals precede its contention
   at any key), then serves its contention reference, and the ones
   after it while it stays the global minimum, with an inline copy of
   the reference access path: the ``CoreModel`` step, the L1 probe and
   the live ``handle_miss``/``handle_upgrade`` policy methods, whose
   NoC, bank and controller timing is the shared scalar code.
5. **journal drain** — the contention may have changed L1 membership or
   taken L1 tokens; the :class:`~repro.sim.vector.mirror.MirrorJournal`
   names the affected cores, whose classifications are invalidated.

Runs with live tracing, an invariant checker, or a check period fall
back to the reference schedule (``super()._run_phase``): those
observers sample machine state *between individual references*, which
batching would skip past. Statistics for batched hits are applied in
bulk but land in the same counters at the same quiesce points, so
snapshots stay byte-identical (tests/test_engine_equivalence.py).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Iterator, List, Optional, Sequence

from repro.common.statsreg import _HIST_BUCKETS
from repro.sim.cpu import TraceItem, as_trace
from repro.sim.engine import SimulationEngine
from repro.sim.request import Supplier
from repro.sim.system import CmpSystem
from repro.sim.vector.mirror import MirrorJournal

#: A key no reference reaches: the scout walks the whole run.
_NO_BOUND = float("inf")


class VectorizedEngine(SimulationEngine):
    """Drop-in engine producing byte-identical results to the reference.

    The engine needs random access for classification, so it reads
    each core's trace as :class:`~repro.sim.cpu.Trace` columns: a
    materialized ``Trace`` is adopted as is, and item lists or
    iterators are converted once (:func:`~repro.sim.cpu.as_trace`).
    """

    def __init__(self, system: CmpSystem,
                 traces: Sequence[Optional[Iterator[TraceItem]]]) -> None:
        columns = [as_trace(t) if t is not None else None for t in traces]
        super().__init__(system, columns)
        n = len(columns)
        self._pos = [0] * n
        self._journal: Optional[MirrorJournal] = None
        # Per-core timing state at the end of the classified run
        # (written by the scout, adopted by the full commit).
        self._scout: List[Optional[tuple]] = [None] * n
        # Reusable per-core scratch (cleared at each classification):
        # the blocks of the classified run, and the L1 line object per
        # uncommitted run reference — its length is the uncommitted run
        # length.
        self._run_blocks: List[set] = [set() for _ in range(n)]
        self._run_lines: List[list] = [[] for _ in range(n)]
        self._limit = [0] * n
        # Hot-path state hoisted into flat per-core lists: the epoch
        # loop, classifier and serve path index these instead of
        # chasing object attributes per reference. Each column is
        # copied into a list once per point (a C-level copy): indexing
        # an ``array`` allocates an int per read, and only list
        # indexing has an interpreter fast path; both measured slower
        # in the hot loops (docs/engine.md, "State layout").
        self._blocks = [list(t.blocks) if t is not None else None
                        for t in columns]
        self._writes = [list(t.writes) if t is not None else None
                        for t in columns]
        self._gaps = [list(t.gaps) if t is not None else None
                      for t in columns]
        self._deps = [list(t.deps) if t is not None else None
                      for t in columns]
        self._l1s = system.l1s
        self._l1_sets = [l1._sets for l1 in system.l1s]
        self._l1_nsets = [l1.num_sets for l1 in system.l1s]
        self._total_tokens = system.ledger.total_tokens
        self._handle_miss = system.architecture.handle_miss
        self._handle_upgrade = system.architecture.handle_upgrade
        self._l1_lat = system.config.l1.access_latency
        self._l1_tag = system.config.l1.tag_latency
        core_cfg = system.config.core
        self._iw = core_cfg.issue_width
        self._win = core_cfg.window_size
        self._mo = core_cfg.max_outstanding
        self._l1_bucket = min(self._l1_lat.bit_length(), _HIST_BUCKETS - 1)
        self._rec_local = system._access_rec[Supplier.L1_LOCAL.idx]
        # Core timing state, one (clock, instructions, stall_cycles,
        # memory_refs, outstanding) tuple per core — the CoreModel
        # fields — for the span of a fast phase; loaded from and written
        # back to the live CoreModel objects at the phase boundaries.
        self._state: List[Optional[tuple]] = [None] * n

    # -- reference-path integration ------------------------------------------

    def _next_item(self, core_id: int) -> Optional[TraceItem]:
        # The fallback heap loop consumes via this hook; positions are
        # shared with the fast path so phases can never double-process.
        items = self.traces[core_id]
        if items is None:
            return None
        pos = self._pos[core_id]
        if pos >= len(items):
            self.traces[core_id] = None
            return None
        self._pos[core_id] = pos + 1
        return items[pos]

    def _run_phase(self, cap: Optional[int]) -> None:
        if (self.system.tracer.enabled or self.system.checker is not None
                or self._check_every > 0):
            # Observers need reference granularity (docs/engine.md,
            # "Fallback"); results are identical either way.
            super()._run_phase(cap)
            return
        self._run_phase_fast(cap)

    # -- the epoch loop ------------------------------------------------------

    def _run_phase_fast(self, cap: Optional[int]) -> None:
        system = self.system
        cores = self.cores
        ncores = len(cores)
        journal = self._journal
        if journal is None:
            journal = MirrorJournal(ncores)
            self._journal = journal
        journal.install(system.l1s, system.ledger)
        # Load core timing state into the per-phase tuples; the
        # ``finally`` below writes them back so the CoreModel objects
        # are authoritative again whenever observers can look (between
        # phases, and on any exception).
        states = self._state
        for cid in range(ncores):
            c = cores[cid]
            states[cid] = (c.clock, c.instructions, c.stall_cycles,
                           c.memory_refs, c._outstanding)
        try:
            limits = self._limit
            pos = self._pos
            run_lines = self._run_lines
            need: List[int] = []
            for cid in range(ncores):
                trace = self.traces[cid]
                if trace is None:
                    limits[cid] = pos[cid]
                    continue
                limits[cid] = (len(trace) if cap is None
                               else min(cap, len(trace)))
                if pos[cid] < limits[cid]:
                    need.append(cid)
            vers = [0] * ncores
            park_heap: List[tuple] = []
            commit_heap: List[tuple] = []
            # Per-phase constants hoisted out of the serve burst.
            l1s = self._l1s
            total = self._total_tokens
            iw = self._iw
            win = self._win
            mo = self._mo
            l1_lat = self._l1_lat
            l1_tag = self._l1_tag
            handle_miss = self._handle_miss
            handle_upgrade = self._handle_upgrade
            dirty_set = journal.dirty   # mutated in place, never rebound
            sup_rec = system._access_rec
            rec_local = self._rec_local
            while True:
                for cid in need:
                    park = self._classify_and_scout(cid)
                    v = vers[cid]
                    heappush(park_heap, (park, cid, v))
                    if run_lines[cid]:
                        heappush(commit_heap, (states[cid][0], cid, v))
                need = []
                owner = -1
                while park_heap:
                    kc, cid, v = heappop(park_heap)
                    if v == vers[cid]:
                        owner = cid
                        break
                if owner < 0:
                    break
                while commit_heap:
                    ck, cid, v = commit_heap[0]
                    if v != vers[cid]:
                        heappop(commit_heap)
                        continue
                    if not (ck < kc or (ck == kc and cid < owner)):
                        break
                    heappop(commit_heap)
                    if cid == owner:
                        continue
                    self._commit_bounded(cid, kc, owner)
                    if run_lines[cid]:
                        heappush(commit_heap,
                                 (states[cid][0], cid, vers[cid]))
                if run_lines[owner]:
                    self._commit_full(owner)
                vers[owner] += 1
                if pos[owner] >= limits[owner]:
                    continue
                parked = False
                # Serve burst: the freshly popped owner is the global
                # minimum, and misses cluster, so it usually stays the
                # minimum across several serves. Keep serving it
                # without heap churn while (a) nothing got dirtied —
                # re-classification only ever moves park keys earlier,
                # so it must precede owner selection — and (b) no valid
                # parked core orders before the owner. Local references
                # are served here too (their effects stay on the
                # owner's own L1, so they commute with everything the
                # heaps defer), but only 16 in a row: the 17th
                # consecutive local reference ends the burst and the
                # owner is re-classified, so a long local stretch is
                # committed as one classified run. Core timing state
                # lives in locals across the whole burst and is stored
                # back once at the end.
                #
                # The burst's CoreModel step and access path are inline
                # copies, kept because removing them was measured
                # (docs/engine.md, "Serve burst"): serving through
                # CmpSystem._serve_access and CoreModel instead took
                # 1.26x (perfbench cold_grid) and 1.40x (local_hits)
                # the time of the earlier session-based engine, against
                # 0.97x and 1.01x with these copies kept (medians of
                # 8-10 runs, 2-CPU host).
                blocks = self._blocks[owner]
                writes = self._writes[owner]
                gaps = self._gaps[owner]
                deps = self._deps[owner]
                l1_sets = self._l1_sets[owner]
                nsets = self._l1_nsets[owner]
                l1 = l1s[owner]
                hits_c = l1._hits
                misses_c = l1._misses
                clock, instr, stalls, mem, out = states[owner]
                p = pos[owner]
                limit = limits[owner]
                streak = 0
                while True:
                    block = blocks[p]
                    line = l1_sets[block % nsets].get(block)
                    local = line is not None and (not writes[p]
                                                  or line.tokens == total)
                    if local and streak >= 16:
                        # 16 local serves in a row: hand the rest of
                        # the stretch to the classifier (see above).
                        break
                    # Owner must be confirmed the global minimum BEFORE
                    # each serve: an earlier-keyed parked core's serve
                    # may steal tokens from (or invalidate) the very
                    # line this probe saw. (On the first iteration the
                    # check trivially passes — the owner was just
                    # popped as the minimum.)
                    while (park_heap
                           and park_heap[0][2] != vers[park_heap[0][1]]):
                        heappop(park_heap)
                    if park_heap:
                        pk = park_heap[0]
                        if pk[0] < clock or (pk[0] == clock
                                             and pk[1] < owner):
                            if local:
                                # Classify instead: a scout run lets
                                # other cores commit around us.
                                break
                            # Another core orders first. The probe
                            # above already said the next reference is
                            # contention — exactly what a fresh
                            # classification's first-probe would
                            # conclude — so park directly on
                            # (clock, owner) without the
                            # _classify_and_scout round trip (the
                            # owner's run was committed in full above).
                            heappush(park_heap, (clock, owner,
                                                 vers[owner]))
                            parked = True
                            break
                    # Bounded commits drain before contention serves
                    # only: a local serve touches nothing but the
                    # owner's own L1 lines and deferred sums, so it
                    # commutes with other cores' local-run commits.
                    if not local:
                        while commit_heap:
                            ck, ccid, cv = commit_heap[0]
                            if cv != vers[ccid]:
                                heappop(commit_heap)
                                continue
                            if not (ck < clock
                                    or (ck == clock and ccid < owner)):
                                break
                            heappop(commit_heap)
                            self._commit_bounded(ccid, clock, owner)
                            if run_lines[ccid]:
                                heappush(commit_heap,
                                         (states[ccid][0], ccid,
                                          vers[ccid]))
                    # --- timing step: exact CoreModel port (keep in
                    # sync with repro/sim/cpu.py and _walk) ---
                    gap = gaps[p]
                    if gap:
                        instr += gap
                        clock += -(-gap // iw)
                        while out and out[0][0] <= clock:
                            out.popleft()
                        while out and instr - out[0][1] >= win:
                            when = out[0][0]
                            if when > clock:
                                stalls += when - clock
                                clock = when
                            while out and out[0][0] <= clock:
                                out.popleft()
                            if out and out[0][0] <= clock:  # pragma: no cover - guard
                                out.popleft()
                    # --- serve: exact port of the reference access
                    # path — L1 hit effects from L1Cache.access,
                    # miss/upgrade policy through the live architecture
                    # methods, the supplier record of
                    # CmpSystem._record_access (keep in sync with
                    # repro/sim/system.py access/_serve_access/
                    # _record_access and repro/cache/l1.py access). ---
                    if line is not None:
                        stamp = l1._stamp + 1
                        l1._stamp = stamp
                        line.lru = stamp
                        line.reused = True
                        hits_c.value += 1
                        t_done = clock + l1_lat
                        if writes[p]:
                            if line.tokens < total:
                                t_up = handle_upgrade(owner, block, line,
                                                      clock + l1_tag)
                                if t_up > t_done:
                                    t_done = t_up
                            line.dirty = True
                        rec = rec_local
                    else:
                        misses_c.value += 1
                        t_done, supplier = handle_miss(owner, block,
                                                       writes[p],
                                                       clock + l1_tag)
                        rec = sup_rec[supplier.idx]
                    latency = t_done - clock
                    rec[0] += 1
                    rec[1] += latency
                    bucket = latency.bit_length() + 2
                    if bucket >= len(rec):
                        bucket = len(rec) - 1
                    rec[bucket] += 1
                    # --- completion step: exact CoreModel port
                    # (continued) ---
                    instr += 1
                    mem += 1
                    while out and out[0][0] <= clock:
                        out.popleft()
                    while len(out) >= mo:
                        earliest = min(out)[0]
                        if earliest > clock:
                            stalls += earliest - clock
                            clock = earliest
                        while out and out[0][0] <= clock:
                            out.popleft()
                        before = len(out)
                        out = deque(q for q in out if q[0] > clock)
                        if len(out) == before:  # pragma: no cover - guard
                            break
                    if deps[p]:
                        if t_done > clock:
                            stalls += t_done - clock
                            clock = t_done
                        while out and out[0][0] <= clock:
                            out.popleft()
                    else:
                        out.append((t_done, instr))
                        while out and instr - out[0][1] >= win:
                            when = out[0][0]
                            if when > clock:
                                stalls += when - clock
                                clock = when
                            while out and out[0][0] <= clock:
                                out.popleft()
                            if out and out[0][0] <= clock:  # pragma: no cover - guard
                                out.popleft()
                    # --- end timing step ---
                    p += 1
                    if p >= limit:
                        break
                    if local:
                        # A hit cannot change membership or tokens
                        # anywhere, so no dirty check is needed.
                        streak += 1
                    else:
                        streak = 0
                        if dirty_set:
                            break
                states[owner] = (clock, instr, stalls, mem, out)
                pos[owner] = p
                if not parked and p < limit:
                    need.append(owner)
                if dirty_set:
                    self._requeue_dirty(dirty_set, owner, vers, need)
        finally:
            journal.uninstall(system.l1s, system.ledger)
            for cid in range(ncores):
                c = cores[cid]
                (c.clock, c.instructions, c.stall_cycles, c.memory_refs,
                 c._outstanding) = states[cid]
            # Per-serve progress bookkeeping is deferred to here:
            # ``_refs``/``_processed`` are only read between phases.
            refs = self._refs
            for cid in range(ncores):
                if pos[cid] != refs[cid]:
                    self._processed += pos[cid] - refs[cid]
                    refs[cid] = pos[cid]

    def _requeue_dirty(self, dirty: set, owner: int, vers: List[int],
                       need: List[int]) -> None:
        """Invalidate and requeue classified runs touched by the
        owner's serves. Parked-at-contention cores keep an exact park
        key (timing of committed refs only); their contention is
        re-examined at serve time through the full access path."""
        run_lines = self._run_lines
        pos = self._pos
        limits = self._limit
        journal = self._journal
        for cid in dirty:
            if (cid == owner or self.traces[cid] is None
                    or not run_lines[cid] or pos[cid] >= limits[cid]):
                continue
            vers[cid] += 1
            journal.runs[cid] = None
            need.append(cid)
        dirty.clear()

    # -- classification, the timing walk, commits ---------------------------

    def _classify_and_scout(self, cid: int) -> int:
        """Classify the core's maximal local run from its position and
        time it; returns the park clock (the key of the reference after
        the run). Classification reads L1 membership and token counts,
        never the clock; only the closing scout walk does timing."""
        pos = self._pos[cid]
        blocks = self._blocks[cid]
        writes = self._writes[cid]
        sets = self._l1_sets[cid]
        nsets = self._l1_nsets[cid]
        total = self._total_tokens
        journal = self._journal
        run_lines = self._run_lines[cid]
        run_lines.clear()
        state = self._state[cid]
        # Cheap first-reference probe: contention-parked cores (the
        # common case on miss-heavy phases) never pay the setup below.
        block = blocks[pos]
        line = sets[block % nsets].get(block)
        if line is None or (writes[pos] and line.tokens != total):
            journal.runs[cid] = None
            return state[0]
        limit = self._limit[cid]
        run_blocks = self._run_blocks[cid]
        run_blocks.clear()
        add_block = run_blocks.add
        add_line = run_lines.append
        add_block(block)
        add_line(line)
        i = pos + 1
        while i < limit:
            block = blocks[i]
            line = sets[block % nsets].get(block)
            if line is None or (writes[i] and line.tokens != total):
                break
            add_block(block)
            add_line(line)
            i += 1
        journal.runs[cid] = run_blocks
        clock, instr, stalls, mem, out = state
        scout = self._walk(cid, pos, i, (clock, instr, stalls, mem,
                                         deque(out)), _NO_BOUND, 0)[1]
        self._scout[cid] = scout
        return scout[0]

    def _walk(self, cid: int, start: int, end: int, state: tuple,
              kc: float, kcid: int) -> tuple:
        """Apply the ``CoreModel`` step to local references
        ``start``..``end - 1`` of core ``cid`` (each completes at the L1
        access latency), stopping before the first reference whose key
        ``(clock, cid)`` does not order strictly before ``(kc, kcid)``.

        Returns the index it stopped at and the timing state there. The
        outstanding deque of ``state`` is advanced in place, so the
        scout passes a copy. This is the one copy of the step outside
        the serve burst — keep it in sync with repro/sim/cpu.py.
        """
        gaps = self._gaps[cid]
        deps = self._deps[cid]
        iw = self._iw
        win = self._win
        mo = self._mo
        l1_lat = self._l1_lat
        clock, instr, stalls, mem, out = state
        i = start
        while i < end and (clock < kc or (clock == kc and cid < kcid)):
            gap = gaps[i]
            if gap:
                instr += gap
                clock += -(-gap // iw)
                while out and out[0][0] <= clock:
                    out.popleft()
                while out and instr - out[0][1] >= win:
                    when = out[0][0]
                    if when > clock:
                        stalls += when - clock
                        clock = when
                    while out and out[0][0] <= clock:
                        out.popleft()
                    if out and out[0][0] <= clock:  # pragma: no cover - guard
                        out.popleft()
            complete = clock + l1_lat
            instr += 1
            mem += 1
            while out and out[0][0] <= clock:
                out.popleft()
            while len(out) >= mo:
                earliest = min(out)[0]
                if earliest > clock:
                    stalls += earliest - clock
                    clock = earliest
                while out and out[0][0] <= clock:
                    out.popleft()
                before = len(out)
                out = deque(p for p in out if p[0] > clock)
                if len(out) == before:  # pragma: no cover - guard
                    break
            if deps[i]:
                if complete > clock:
                    stalls += complete - clock
                    clock = complete
                while out and out[0][0] <= clock:
                    out.popleft()
            else:
                out.append((complete, instr))
                while out and instr - out[0][1] >= win:
                    when = out[0][0]
                    if when > clock:
                        stalls += when - clock
                        clock = when
                    while out and out[0][0] <= clock:
                        out.popleft()
                    if out and out[0][0] <= clock:  # pragma: no cover - guard
                        out.popleft()
            i += 1
        return i, (clock, instr, stalls, mem, out)

    def _commit_full(self, cid: int) -> None:
        """Apply the whole classified run, adopting the scout's timing
        state."""
        self._state[cid] = self._scout[cid]
        self._commit_prefix(cid, len(self._run_lines[cid]))

    def _commit_bounded(self, cid: int, kc: int, kcid: int) -> None:
        """Commit the run references whose keys order strictly before
        the owner's park key ``(kc, kcid)``. The walk is deterministic,
        so a later full commit of the remainder still lands exactly on
        the scout state."""
        pos = self._pos[cid]
        end, state = self._walk(cid, pos, pos + len(self._run_lines[cid]),
                                self._state[cid], kc, kcid)
        if end > pos:
            self._state[cid] = state
            self._commit_prefix(cid, end - pos)

    def _commit_prefix(self, cid: int, n: int) -> None:
        """Apply the functional effects of the run's first ``n``
        references (LRU stamp, reuse and dirty bits) and the batched
        equivalent of their reference-path L1-hit statistics.

        Every local reference records Supplier.L1_LOCAL with a constant
        latency (the L1 access latency), so the counter and histogram
        updates fold to one addition each — landing in the *same* L1
        counter and flat supplier record the reference path uses, so
        warm-up resets and finalize snapshots need no special handling.
        """
        pos = self._pos[cid]
        writes = self._writes[cid]
        l1 = self._l1s[cid]
        stamp = l1._stamp
        run_lines = self._run_lines[cid]
        for i in range(pos, pos + n):
            line = run_lines[i - pos]
            stamp += 1
            line.lru = stamp
            line.reused = True
            if writes[i]:
                line.dirty = True
        l1._stamp = stamp
        del run_lines[:n]
        if not run_lines:
            self._journal.runs[cid] = None
        l1._hits.value += n
        rec = self._rec_local
        rec[0] += n
        rec[1] += n * self._l1_lat
        rec[2 + self._l1_bucket] += n
        self._pos[cid] = pos + n
