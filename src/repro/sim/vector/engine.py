"""Inline-served simulation engine (docs/engine.md).

Identical simulated machine, identical schedule. Like the reference
engine, this engine serves references one at a time in global
``(core clock, core id)`` order from a heap of per-core keys. What it
saves is the per-reference overhead around that order:

* **Bursts instead of a heap round trip per reference.** The popped
  core keeps the floor while its next key still orders before the
  heap's minimum (an exact clock tie goes to the lower core id), and
  is pushed back once that fails. The order is the reference engine's
  exactly; only the pushes and pops that would hand the floor straight
  back are gone.
* **An inline serve step.** The ``CoreModel`` timing step, the L1
  probe, the ``handle_miss``/``handle_upgrade`` policy calls and the
  supplier record are copied into the loop over per-phase locals and
  list copies of the trace columns; the policy, NoC, bank and memory
  timing behind those calls is the shared scalar code.

Runs with live tracing, an invariant checker, or a check period fall
back to the reference loop (``super()._run_phase``): those observers
hook into :meth:`~repro.sim.system.CmpSystem.access`, which the inline
step bypasses. Both schedules consume the same positions, so results
are byte-identical either way (tests/test_engine_equivalence.py).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Iterator, List, Optional, Sequence

from repro.sim.cpu import TraceItem, as_trace
from repro.sim.engine import SimulationEngine
from repro.sim.request import Supplier
from repro.sim.system import CmpSystem

#: The key bound of a core alone on the heap: no clock reaches it.
_NO_BOUND = (float("inf"), 0)


class VectorizedEngine(SimulationEngine):
    """Drop-in engine producing byte-identical results to the reference.

    The engine indexes each core's trace by position, so it reads it as
    :class:`~repro.sim.cpu.Trace` columns: a materialized ``Trace`` is
    adopted as is, and item lists or iterators are converted once
    (:func:`~repro.sim.cpu.as_trace`).
    """

    def __init__(self, system: CmpSystem,
                 traces: Sequence[Optional[Iterator[TraceItem]]]) -> None:
        columns = [as_trace(t) if t is not None else None for t in traces]
        super().__init__(system, columns)
        self._pos = [0] * len(columns)
        # Each column is copied into a list once per point (a C-level
        # copy): indexing an ``array`` allocates an int per read, and
        # only list indexing has an interpreter fast path; both
        # measured slower in the serve loop (docs/engine.md, "State
        # layout").
        self._blocks = [list(t.blocks) if t is not None else None
                        for t in columns]
        self._writes = [list(t.writes) if t is not None else None
                        for t in columns]
        self._gaps = [list(t.gaps) if t is not None else None
                      for t in columns]
        self._deps = [list(t.deps) if t is not None else None
                      for t in columns]

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
            # Observers need the access entry point (docs/engine.md,
            # "Fallback"); results are identical either way.
            super()._run_phase(cap)
            return
        self._run_phase_fast(cap)

    # -- the burst loop ------------------------------------------------------

    def _run_phase_fast(self, cap: Optional[int]) -> None:
        system = self.system
        cores = self.cores
        pos = self._pos
        limits = [0] * len(cores)
        heap: List[tuple] = []
        for cid, trace in enumerate(self.traces):
            if trace is None:
                continue
            limits[cid] = len(trace) if cap is None else min(cap, len(trace))
            if pos[cid] < limits[cid]:
                heap.append((cores[cid].clock, cid))
        heapify(heap)
        l1s = system.l1s
        total = system.ledger.total_tokens
        handle_miss = system.architecture.handle_miss
        handle_upgrade = system.architecture.handle_upgrade
        l1_lat = system.config.l1.access_latency
        l1_tag = system.config.l1.tag_latency
        core_cfg = system.config.core
        iw = core_cfg.issue_width
        win = core_cfg.window_size
        mo = core_cfg.max_outstanding
        sup_rec = system._access_rec
        rec_local = sup_rec[Supplier.L1_LOCAL.idx]
        try:
            while heap:
                clock, owner = heappop(heap)
                # The owner serves while its key (clock, owner) orders
                # before every other core's; the heap minimum stays put
                # meanwhile, since only the owner's serves run.
                nclock, ncid = heap[0] if heap else _NO_BOUND
                core = cores[owner]
                instr = core.instructions
                stalls = core.stall_cycles
                mem = core.memory_refs
                out = core._outstanding
                blocks = self._blocks[owner]
                writes = self._writes[owner]
                gaps = self._gaps[owner]
                deps = self._deps[owner]
                l1 = l1s[owner]
                l1_sets = l1._sets
                nsets = l1.num_sets
                hits_c = l1._hits
                misses_c = l1._misses
                p = pos[owner]
                limit = limits[owner]
                # The inline CoreModel step and access path below are
                # copies, kept because removing them was measured
                # (docs/engine.md, "Serve step"): serving through
                # CmpSystem._serve_access and CoreModel instead took
                # 1.29x the time on perfbench cold_grid and 1.75x on
                # local_hits (medians of 5 and 4 runs, 2-CPU host).
                while True:
                    # --- timing step: exact CoreModel port (keep in
                    # sync with repro/sim/cpu.py) ---
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
                    block = blocks[p]
                    line = l1_sets[block % nsets].get(block)
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
                    if not (clock < nclock
                            or (clock == nclock and owner < ncid)):
                        heappush(heap, (clock, owner))
                        break
                core.clock = clock
                core.instructions = instr
                core.stall_cycles = stalls
                core.memory_refs = mem
                core._outstanding = out
                pos[owner] = p
        finally:
            # Per-serve progress bookkeeping is deferred to here:
            # ``_refs``/``_processed`` are only read between phases.
            refs = self._refs
            for cid in range(len(cores)):
                if pos[cid] != refs[cid]:
                    self._processed += pos[cid] - refs[cid]
                    refs[cid] = pos[cid]
