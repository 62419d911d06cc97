"""The simulated CMP: cores' L1s, the NUCA L2, mesh, memory, coherence.

``CmpSystem`` owns every hardware component and the access entry point;
the bound :class:`~repro.architectures.base.NucaArchitecture` supplies
the L2 placement/search/replacement policy. One system instance equals
one run: build, feed references, read the :class:`SimResult`.

Statistics live in one :class:`~repro.common.statsreg.StatsRegistry`:
every component keeps its own :class:`Scope` and the system mounts them
all here (``l2.bank<i>``, ``l1.core<i>``, ``noc``, ``mem``,
``coherence``, ``arch``, plus the system-level ``access`` scope with
the per-supplier latency decomposition). Warm-up reset is one tree walk
and :class:`SimResult` is a snapshot of the tree — see
docs/observability.md.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List

from repro.cache.l1 import L1Cache, L1Line
from repro.common.addresses import AddressMap
from repro.common.config import CheckConfig, SystemConfig
from repro.common.statsreg import (_HIST_BUCKETS, Counter, Histogram, Scope,
                                   StatsRegistry)
from repro.mem.controller import MemorySystem
from repro.noc.network import Network
from repro.noc.topology import MeshTopology
from repro.coherence.tokens import TokenLedger
from repro.obs import trace as obs
from repro.sim.request import AccessOutcome, Supplier
from repro.sim.results import SimResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.architectures.base import NucaArchitecture


def _effective_checks(configured: CheckConfig) -> CheckConfig:
    """The check policy after the ``REPRO_CHECKS`` override.

    ``REPRO_CHECKS=<N>`` forces invariant checking on with sample
    period N (``REPRO_CHECKS=1`` checks every access) regardless of the
    run's config — the hook CI uses to run existing suites fully
    checked. ``REPRO_CHECKS=0`` forces it off. Unset/blank defers to
    ``SystemConfig.checks``.
    """
    raw = os.environ.get("REPRO_CHECKS")
    if raw is None or raw.strip() == "":
        return configured
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"REPRO_CHECKS must be an integer sample period (0 disables), "
            f"got {raw!r}") from None
    if value <= 0:
        return CheckConfig(enabled=False)
    return CheckConfig(enabled=True, sample=value,
                       raise_on_violation=configured.raise_on_violation)


class CmpSystem:
    def __init__(self, config: SystemConfig, architecture: "NucaArchitecture",
                 check_tokens: bool = False) -> None:
        self.config = config
        checks = _effective_checks(config.checks)
        self.amap = AddressMap(config)
        self.topology = MeshTopology(config)
        self.network = Network(config, self.topology)
        self.memory = MemorySystem(config)
        self.ledger = TokenLedger(config.num_cores,
                                  checking=check_tokens or checks.enabled)
        self.l1s: List[L1Cache] = [
            L1Cache(core, config.l1.num_sets, config.l1.assoc)
            for core in range(config.num_cores)
        ]
        self.stats = StatsRegistry()
        l1_scope = self.stats.scope("l1")
        for l1 in self.l1s:
            l1_scope.mount(f"core{l1.core_id}", l1.stats)
        self.stats.mount("noc", self.network.stats)
        self.stats.mount("mem", self.memory.stats)
        self.stats.mount("coherence", self.ledger.stats)
        # Demand-access decomposition by data supplier (Figure 6): per
        # supplier an access count, a latency sum and a power-of-two
        # latency histogram. Every demand access records into one flat
        # list per supplier, ``[count, cycles, bucket 0, bucket 1, ...]``
        # (indexed by ``Supplier.idx``); the access scope's sync folds
        # those into the registry objects when it is read or reset.
        self._access_rec: List[List[int]] = [
            [0] * (2 + _HIST_BUCKETS) for _ in Supplier]
        access_scope = self.stats.mount("access", Scope(self._sync_access))
        self._access_scope = access_scope
        self._access_count: Dict[Supplier, Counter] = {}
        self._access_cycles: Dict[Supplier, Counter] = {}
        self._access_hist: Dict[Supplier, Histogram] = {}
        for supplier in Supplier:
            sub = access_scope.scope(supplier.name.lower())
            self._access_count[supplier] = sub.counter("count")
            self._access_cycles[supplier] = sub.counter("cycles")
            self._access_hist[supplier] = sub.histogram("latency")
        # Event tracing (docs/observability.md, "Tracing"): the tracer
        # active at construction time is captured so the hot path pays
        # exactly one attribute check when tracing is off. Set before
        # bind() so on_bound hooks (the duel controller) see it.
        self.tracer = obs.active()
        self.trace_now = 0          # t_issue of the in-flight access
        self._trace_pid: int = 0    # this run's sim-clock pid (lazy)
        self._trace_label: str = ""
        self.architecture = architecture
        architecture.bind(self)
        l2_scope = self.stats.scope("l2")
        for bank in architecture.banks:
            l2_scope.mount(f"bank{bank.bank_id}", bank.stats)
        self.stats.mount("arch", architecture.stats)
        # Invariant checking (docs/checking.md): one ``is None`` test
        # per access when off; a full machine sweep every ``sample``
        # accesses when on.
        self.checker = None
        if checks.enabled:
            from repro.check.invariants import InvariantChecker

            self.checker = InvariantChecker(
                self, sample=checks.sample,
                raise_on_violation=checks.raise_on_violation)
            self.stats.mount("check", self.checker.stats)

    # -- event tracing -----------------------------------------------------------

    def set_tracer(self, tracer) -> object:
        """Swap this system's tracer (the supported rebinding seam —
        components capture the tracer by reference at construction, so
        installing one later must go through here). Returns the
        previous tracer; ``None`` means :data:`~repro.obs.trace.NULL_TRACER`.
        """
        previous = self.tracer
        self.tracer = tracer if tracer is not None else obs.NULL_TRACER
        self._trace_pid = 0
        self.architecture.on_tracer(self.tracer)
        return previous

    def set_trace_label(self, label: str) -> None:
        """Name this run's sim-clock trace process (e.g.
        ``"esp-nuca/apache s42"``); must be set before the first event."""
        self._trace_label = label

    def trace_pid(self) -> int:
        """This run's sim-clock trace process id (allocated lazily:
        untraced systems never register a process)."""
        if not self._trace_pid:
            label = self._trace_label or f"sim {self.architecture.name}"
            self._trace_pid = self.tracer.process(label, clock="sim")
        return self._trace_pid

    # -- demand access entry point -----------------------------------------------

    def access(self, core: int, block: int, is_write: bool, t_issue: int
               ) -> AccessOutcome:
        """One demand reference from ``core`` issued at ``t_issue``.

        Functional state is updated eagerly (the reference completes
        logically now); the returned completion time is when the data
        becomes usable by the core.
        """
        tracer = self.tracer
        if tracer.enabled:
            outcome = self._traced_access(core, block, is_write, t_issue)
        else:
            outcome = self._serve_access(core, block, is_write, t_issue)
        if self.checker is not None:
            self.checker.after_access()
        return outcome

    def _serve_access(self, core: int, block: int, is_write: bool,
                      t_issue: int) -> AccessOutcome:
        l1 = self.l1s[core]
        line = l1.access(block)
        if line is not None:
            t_done = t_issue + self.config.l1.access_latency
            if is_write:
                if line.tokens < self.ledger.total_tokens:
                    t_done = max(t_done, self.architecture.handle_upgrade(
                        core, block, line, t_issue + self.config.l1.tag_latency))
                line.dirty = True
            self._record_access(Supplier.L1_LOCAL, t_done - t_issue)
            return AccessOutcome(t_done, Supplier.L1_LOCAL)
        t_miss = t_issue + self.config.l1.tag_latency
        t_done, supplier = self.architecture.handle_miss(core, block,
                                                         is_write, t_miss)
        self._record_access(supplier, t_done - t_issue)
        return AccessOutcome(t_done, supplier)

    def _traced_access(self, core: int, block: int, is_write: bool,
                       t_issue: int) -> AccessOutcome:
        """The access path with tracing live: publish the in-flight
        timestamp (functional-path instants use it), open a child-span
        context on the architecture when this access is sampled, and
        record the demand span once the outcome is known."""
        tracer = self.tracer
        self.trace_now = t_issue
        sampled = tracer.wants("access") and tracer.sample_step()
        if sampled:
            self.architecture._trace_ctx = obs.SpanContext(
                tracer, self.trace_pid())
            try:
                outcome = self._serve_access(core, block, is_write, t_issue)
            finally:
                self.architecture._trace_ctx = None
            tracer.complete(
                "access", "write" if is_write else "read",
                ts=t_issue, dur=outcome.complete - t_issue,
                pid=self.trace_pid(), tid=f"core{core}",
                args={"block": f"{block:#x}",
                      "supplier": outcome.supplier.value})
            return outcome
        return self._serve_access(core, block, is_write, t_issue)

    def _record_access(self, supplier: Supplier, latency: int) -> None:
        rec = self._access_rec[supplier.idx]
        rec[0] += 1
        rec[1] += latency
        # Histogram.record's bucket: the bit length, saturating.
        bucket = latency.bit_length() + 2
        if bucket >= len(rec):
            bucket = len(rec) - 1
        rec[bucket] += 1

    def _sync_access(self) -> None:
        """Fold the flat per-supplier records into the access scope."""
        for supplier, rec in zip(Supplier, self._access_rec):
            count = rec[0]
            if not count:
                continue
            cycles = rec[1]
            self._access_count[supplier].value += count
            self._access_cycles[supplier].value += cycles
            hist = self._access_hist[supplier]
            hist.count += count
            hist.total += cycles
            buckets = hist.buckets
            for i in range(_HIST_BUCKETS):
                buckets[i] += rec[2 + i]
            rec[:] = [0] * len(rec)

    # -- helpers used by architectures ---------------------------------------------

    def l1_fill(self, core: int, block: int, tokens: int, dirty: bool,
                t: int = 0) -> L1Line:
        """Install a line in ``core``'s L1, routing any displaced line
        into the L2 per the architecture's eviction policy. ``t`` is the
        cycle the fill happens (the serving access's completion time);
        eviction traffic it triggers is charged then, not at t=0."""
        if tokens <= 0:
            raise ValueError("an L1 fill needs at least one token")
        line, evicted, merged = self.l1s[core].fill(block, tokens, dirty)
        if not merged:
            # Fresh line; fill() merges into an existing (already
            # registered) line otherwise.
            self.ledger.register_l1(block, core, line)
        if evicted is not None:
            self.architecture.route_l1_eviction(core, evicted, t)
        return line

    def send_to_memory(self, block: int, tokens: int, dirty: bool,
                       router: int, t: int = 0) -> None:
        """Release tokens from an evicted/refused copy at cycle ``t``.

        Token coherence lets evicted tokens be forwarded to any current
        holder, and doing so matters: parking them in memory while L1
        copies remain would force a later writer into an off-chip
        round trip just to collect them. So: merge into an on-chip L1
        holder if one exists, else into an L2 copy, else write back to
        memory (the only case generating off-chip traffic).
        """
        state = self.ledger.state(block)
        if state.l1:
            line = next(iter(state.l1.values()))
            line.tokens += tokens
            line.dirty = line.dirty or dirty
            return
        if state.l2:
            holding = next(iter(state.l2.values()))
            holding.entry.tokens += tokens
            holding.entry.dirty = holding.entry.dirty or dirty
            return
        if dirty:
            mc, _ = self.topology.controller_hops(router)
            self.memory.controller(mc).post_writeback(t)
        self.ledger.give_to_memory(block, tokens)
        if not self.ledger.on_chip(block):
            self.architecture.on_block_left_chip(block)

    def reset_stats(self) -> None:
        """Clear all statistics while keeping cache/coherence state —
        used to exclude the warm-up phase from measurements.

        One registry walk: every mounted component scope (banks, L1s,
        links, controllers, token ledger, duel controller, policy
        counters) is zeroed, so a newly added component cannot be
        forgotten here. Mechanism state (duel EMAs, ``nmax``, ASR
        levels) is deliberately *not* stored in the registry and
        survives — resetting it would change simulated behaviour.
        """
        self.stats.reset()

    # -- snapshots ---------------------------------------------------------------------

    @property
    def result(self) -> SimResult:
        """Live aggregate view of the registry (cheap, rebuilt per read).

        Timing totals (``cycles``/``instructions``) belong to the
        engine and appear only in the result built by :meth:`finalize`.
        """
        result = SimResult(architecture=self.architecture.name)
        self._access_scope.sync()
        result.supplier_count = {s: self._access_count[s].value
                                 for s in Supplier}
        result.supplier_cycles = {s: self._access_cycles[s].value
                                  for s in Supplier}
        result.memory_accesses = sum(result.supplier_count.values())
        result.l1_hits = sum(l1.hits for l1 in self.l1s)
        result.l1_misses = sum(l1.misses for l1 in self.l1s)
        for bank in self.architecture.banks:
            result.l2_hits += bank.total_hits
            result.l2_demand_lookups += bank.total_hits + bank.misses
        result.offchip_demand = self.memory.demand_requests
        result.offchip_writebacks = self.memory.writebacks
        result.noc_messages = self.network.messages_sent
        result.noc_queueing = self.network.total_queueing
        return result

    # -- end-of-run aggregation -------------------------------------------------------

    def finalize(self, per_core_cycles: List[int],
                 per_core_instructions: List[int]) -> SimResult:
        result = self.result
        result.per_core_cycles = list(per_core_cycles)
        result.per_core_instructions = list(per_core_instructions)
        result.cycles = max(per_core_cycles) if per_core_cycles else 0
        result.instructions = sum(per_core_instructions)
        result.stats = self.stats.to_dict()
        return result

    # -- introspection (tests, examples) ------------------------------------------------

    def l2_occupancy(self) -> int:
        return sum(bank.occupancy() for bank in self.architecture.banks)

    def check_invariants(self) -> None:
        """Full token-conservation and directory cross-check."""
        self.ledger.check_all()
        for block in list(self.ledger.known_blocks()):
            state = self.ledger.state(block)
            for core, line in state.l1.items():
                resident = self.l1s[core].lookup(block, touch=False)
                assert resident is line, (
                    f"ledger/L1 divergence for block {block:#x} at core {core}")
            for holding in state.l2.values():
                bank = self.architecture.banks[holding.bank_id]
                found = bank.sets[holding.set_index].find(block)
                entries = [e for e in bank.sets[holding.set_index].blocks
                           if e is holding.entry]
                assert found is not None and entries, (
                    f"ledger/L2 divergence for block {block:#x} "
                    f"in bank {holding.bank_id}")
