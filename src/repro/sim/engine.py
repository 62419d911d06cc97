"""The *reference* simulation engine: one reference at a time, in
global ``(core clock, core id)`` order.

A heap keyed by per-core clocks interleaves the cores' trace streams so
cross-core interactions (sharing, bank and controller contention,
private-bit demotions) happen in a globally consistent time order. Each
pop processes exactly one memory reference of the earliest core to
completion — the standard trace-driven approximation for memory-system
studies (DESIGN.md §6.1).

This engine is the repository's differential oracle (docs/engine.md):
the default :class:`~repro.sim.vector.engine.VectorizedEngine` serves
each core's references in per-core bursts, in this engine's order, and
must reproduce its results byte for byte
(``tests/test_engine_equivalence.py``). Keep this loop boring —
its auditability is what the equivalence claims bottom out in; speed
work belongs in the vectorized engine or on the shared
``CmpSystem.access`` path.

Runs may start with a warm-up phase: cache and coherence state carries
over but statistics are reset, so reported numbers reflect steady-state
behaviour (the paper measures warmed full-system checkpoints).
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Sequence

from repro.sim.cpu import CoreModel, TraceItem
from repro.sim.results import SimResult
from repro.sim.system import CmpSystem


class SimulationEngine:
    def __init__(self, system: CmpSystem,
                 traces: Sequence[Optional[Iterator[TraceItem]]]) -> None:
        if len(traces) != system.config.num_cores:
            raise ValueError("one trace (or None) required per core")
        self.system = system
        self.traces = list(traces)
        self.cores = [CoreModel(i, system.config.core)
                      for i in range(system.config.num_cores)]
        self._refs = [0] * len(self.cores)
        self._check_every = 0
        self._processed = 0

    def run(self, max_refs_per_core: Optional[int] = None,
            warmup_refs_per_core: int = 0,
            invariant_check_every: int = 0) -> SimResult:
        """Run until every trace is exhausted or capped.

        ``warmup_refs_per_core`` references per core are simulated first
        with statistics discarded. ``invariant_check_every``: if > 0,
        run the full token/directory cross-check every that-many
        processed references (tests only — it is O(resident blocks)).
        """
        self._check_every = invariant_check_every
        base_cycles = [0] * len(self.cores)
        base_instr = [0] * len(self.cores)
        tracer = self.system.tracer
        if warmup_refs_per_core:
            before = self._processed
            with tracer.wall_span("engine", "warmup phase", tid="engine",
                                  args={"arch": self.system.architecture.name}
                                  ) as span:
                self._run_phase(warmup_refs_per_core)
                span["refs"] = self._processed - before
            self.system.reset_stats()
            base_cycles = [c.clock for c in self.cores]
            base_instr = [c.instructions for c in self.cores]
        cap = (None if max_refs_per_core is None
               else warmup_refs_per_core + max_refs_per_core)
        before = self._processed
        with tracer.wall_span("engine", "measure phase", tid="engine",
                              args={"arch": self.system.architecture.name}
                              ) as span:
            self._run_phase(cap)
            span["refs"] = self._processed - before
        for core in self.cores:
            core.drain()
        return self.system.finalize(
            per_core_cycles=[c.clock - b
                             for c, b in zip(self.cores, base_cycles)],
            per_core_instructions=[c.instructions - b
                                   for c, b in zip(self.cores, base_instr)],
        )

    def _run_phase(self, cap: Optional[int]) -> None:
        heap: List[tuple] = []
        for core_id, trace in enumerate(self.traces):
            if trace is not None and (cap is None or self._refs[core_id] < cap):
                heapq.heappush(heap, (self.cores[core_id].clock, core_id))
        while heap:
            _, core_id = heapq.heappop(heap)
            item = self._next_item(core_id)
            if item is None:
                continue
            gap, block, kind = item
            core = self.cores[core_id]
            core.advance_gap(gap)
            outcome = self.system.access(core_id, block, kind.is_write,
                                         core.issue_time())
            core.complete_memory(kind, outcome.complete)
            self._refs[core_id] += 1
            self._processed += 1
            if self._check_every and self._processed % self._check_every == 0:
                self.system.check_invariants()
            if cap is None or self._refs[core_id] < cap:
                heapq.heappush(heap, (core.clock, core_id))

    def _next_item(self, core_id: int) -> Optional[TraceItem]:
        trace = self.traces[core_id]
        if trace is None:
            return None
        try:
            return next(trace)
        except StopIteration:
            self.traces[core_id] = None
            return None
