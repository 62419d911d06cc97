"""Workload specification and the per-core trace generator.

Each active core runs a thread with:

* a **private region** (its working set; phases rotate a hot window
  through it),
* a **shared region** common to the workload's threads (referenced
  with probability ``shared_fraction``),
* an **OS region** modelling background system activity (the paper
  stresses that OS effects matter for transactional workloads),
* a sequential **stream** component (stride-1 scans through the
  private region, the dominant pattern of several NAS kernels).

Region references use a power-law ("hot front") distribution so stack
distances look like real programs rather than uniform noise;
``locality`` is the exponent (higher = hotter head, smaller effective
working set).
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Tuple

from repro.common.rng import substream
from repro.sim.cpu import (DEP_LOAD_CODE, INT64, LOAD_CODE, STORE_CODE,
                           Trace, TraceItem, trace_items)

#: Block-number bases carving up a flat address space (block units).
PRIVATE_REGION_STRIDE = 1 << 32
SHARED_REGION_BASE = 1 << 40
OS_REGION_BASE = 1 << 41
STREAM_REGION_BASE = 1 << 42
OS_REGION_BLOCKS = 2048  # 128 KB of OS-touched data


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete description of one benchmark (one row of Table 1)."""

    name: str
    family: str
    active_cores: Tuple[int, ...]
    refs_per_core: int = 50_000
    #: Size of the *reused* (hot) regions; capacity behaviour follows
    #: from how these compare to the 16384-block private partition and
    #: the 131072-block shared pool. Cold/compulsory traffic is the
    #: ``stream_fraction`` below.
    private_footprint_blocks: int = 8192
    shared_footprint_blocks: int = 0
    shared_fraction: float = 0.0
    shared_write_fraction: float = 0.1
    write_fraction: float = 0.25
    dep_fraction: float = 0.05
    mean_gap: int = 3
    locality: float = 2.0
    #: Separate skew for the shared region (None = use ``locality``).
    #: Commercial workloads concentrate shared reuse on a hot head
    #: (metadata, lock words, B-tree roots), which is exactly what
    #: replication mechanisms capture.
    shared_locality: Optional[float] = None
    #: Temporal reuse: probability a reference re-touches a recently
    #: used block (recency-biased pick from the last ``reuse_window``
    #: distinct blocks). This is what gives the trace a realistic
    #: stack-distance profile.
    reuse_fraction: float = 0.70
    reuse_window: int = 192
    #: Cyclic scan over a fixed buffer (art/mcf's LRU-hostile pattern):
    #: hits ~100% when ``loop_blocks`` fits the cache level, ~0% when it
    #: does not — the sharpest capacity discriminator.
    loop_blocks: int = 0
    loop_fraction: float = 0.0
    #: Fraction of new draws that scan an unbounded cold region —
    #: compulsory misses no cache can absorb (streaming kernels, huge
    #: data sets touched once).
    stream_fraction: float = 0.0
    #: Probability a stream access advances to the next block (several
    #: word-level touches land in one 64B block before moving on).
    stream_advance: float = 0.2
    phase_blocks: int = 0          # hot-window size; 0 = whole region
    phase_period: int = 20_000     # refs between hot-window moves
    os_noise: float = 0.01
    description: str = ""
    #: Per-core spec overrides for hybrid workloads: core id -> the
    #: WorkloadSpec of the program that core runs.
    per_core: dict = field(default_factory=dict)

    def capacity_scaled(self, factor: int) -> "WorkloadSpec":
        """Shrink the workload's hot sets by ``factor`` to match a
        :func:`repro.common.config.scaled_config` system. Temporal
        parameters shrink by sqrt(factor) (the L1 shrinks too, but
        reuse distance matters less than capacity ratio)."""
        if factor == 1:
            return self
        shrink = max(1, int(factor ** 0.5))
        scaled_overrides = {core: spec.capacity_scaled(factor)
                            for core, spec in self.per_core.items()}
        return replace(
            self,
            private_footprint_blocks=max(64, self.private_footprint_blocks // factor),
            shared_footprint_blocks=(max(64, self.shared_footprint_blocks // factor)
                                     if self.shared_footprint_blocks else 0),
            loop_blocks=self.loop_blocks // factor,
            phase_blocks=self.phase_blocks // factor,
            reuse_window=max(32, self.reuse_window // shrink),
            per_core=scaled_overrides,
        )

    def scaled(self, refs_per_core: int) -> "WorkloadSpec":
        """The same workload with a different reference budget (per-core
        overrides are scaled proportionally)."""
        if not self.per_core:
            return replace(self, refs_per_core=refs_per_core)
        scaled_overrides = {
            core: spec.scaled(
                max(1, spec.refs_per_core * refs_per_core // self.refs_per_core))
            for core, spec in self.per_core.items()
        }
        return replace(self, refs_per_core=refs_per_core,
                       per_core=scaled_overrides)


class TraceGenerator:
    """Builds deterministic per-core traces for a workload."""

    def __init__(self, spec: WorkloadSpec, seed: int = 1) -> None:
        self.spec = spec
        self.seed = seed

    def materialize(self, num_cores: int) -> List[Optional[Trace]]:
        """One :class:`~repro.sim.cpu.Trace` per core (None for fully
        idle cores)."""
        return [_generate(self._spec_for_core(core), core, self.seed)
                if core in self.spec.active_cores else None
                for core in range(num_cores)]

    def traces(self, num_cores: int) -> List[Optional[Iterator[TraceItem]]]:
        """One ``TraceItem`` iterator per core (None for fully idle
        cores)."""
        return [self.core_trace(core) if core in self.spec.active_cores
                else None
                for core in range(num_cores)]

    def core_trace(self, core: int) -> Iterator[TraceItem]:
        """The core's ``TraceItem``s, read from its freshly drawn
        columns before they are packed. A consumer that lists them
        pays for no packing and no unpacking: listing a 13 000-reference
        ``local_hits`` set took 14.6 ms this way against 15.6 ms through
        a packed ``Trace`` (best of 12), where the generator that
        yielded items took 13.9 ms."""
        return trace_items(*_draw(self._spec_for_core(core), core,
                                  self.seed))

    def _spec_for_core(self, core: int) -> WorkloadSpec:
        override = self.spec.per_core.get(core)
        if override is None:
            return self.spec
        return override


def _generate(spec: WorkloadSpec, core: int, seed: int) -> Trace:
    """One core's trace, packed into :class:`~repro.sim.cpu.Trace`
    columns."""
    gaps, blocks, kinds = _draw(spec, core, seed)
    return Trace(array(INT64, gaps), array(INT64, blocks), bytes(kinds))


def _draw(spec: WorkloadSpec, core: int,
          seed: int) -> Tuple[List[int], List[int], bytearray]:
    """One core's trace as unpacked ``(gaps, blocks, kind codes)``
    columns.

    The order of the ``random()`` draws below *is* the trace: every
    branch draws in a fixed sequence, and any reordered, added or
    removed draw changes every later reference (docs/workloads.md,
    "Draw order is the trace contract"). The loop reads only locals —
    spec fields, module constants and bound methods are hoisted once
    per core — because it runs for every reference of every cold point.
    Each reference is appended straight to the columns.
    """
    rng = substream(seed, f"{spec.name}/core{core}")
    random01 = rng.random
    log = math.log
    private_base = (core + 1) * PRIVATE_REGION_STRIDE
    private_size = max(spec.private_footprint_blocks, 1)
    shared_size = max(spec.shared_footprint_blocks, 1)
    window = spec.phase_blocks if spec.phase_blocks else private_size
    window = min(window, private_size)
    window_start = 0
    phase_period = spec.phase_period
    phased = bool(spec.phase_blocks and phase_period)
    # The cold stream walks an unbounded per-core region: pure
    # compulsory traffic, disjoint across cores and workloads.
    stream_base = STREAM_REGION_BASE + (core + 1) * PRIVATE_REGION_STRIDE
    stream_pos = 0
    # The loop buffer lives in the private region above the hot set.
    loop_blocks = spec.loop_blocks
    loop_base = private_base + private_size
    loop_pos = rng.randrange(loop_blocks) if loop_blocks else 0
    exponent = max(spec.locality, 1.0)
    shared_exponent = max(spec.shared_locality or spec.locality, 1.0)
    recent = deque(maxlen=max(spec.reuse_window, 1))
    remember = recent.append
    os_noise = spec.os_noise
    shared_cut = os_noise + spec.shared_fraction
    reuse_fraction = spec.reuse_fraction
    loop_fraction = spec.loop_fraction
    stream_fraction = spec.stream_fraction
    stream_advance = spec.stream_advance
    write_fraction = spec.write_fraction
    shared_write_fraction = spec.shared_write_fraction
    dep_fraction = spec.dep_fraction
    mean_gap = spec.mean_gap
    neg_mean_gap = -mean_gap
    store, dep_load, load = STORE_CODE, DEP_LOAD_CODE, LOAD_CODE
    os_base, os_blocks = OS_REGION_BASE, OS_REGION_BLOCKS
    shared_base, stream_region = SHARED_REGION_BASE, STREAM_REGION_BASE
    # A list takes an append several times faster than an ``array``
    # does; _generate packs the lists once the loop is done.
    gaps, blocks, kinds = [], [], bytearray()
    append_gap, append_block, append_kind = (
        gaps.append, blocks.append, kinds.append)

    for ref in range(spec.refs_per_core):
        if phased and ref and ref % phase_period == 0:
            window_start = (window_start + window) % private_size
        draw = random01()
        if draw < os_noise:
            block = os_base + int(os_blocks * random01() ** exponent)
        elif recent and random01() < reuse_fraction:
            # Temporal reuse: recency-biased pick among recent blocks
            # (quadratic bias toward the most recent).
            back = int(len(recent) * random01() ** 2)
            block = recent[-1 - back]
        elif draw < shared_cut:
            # Power-law index into the region: index 0 is hottest.
            block = shared_base + int(
                shared_size * random01() ** shared_exponent)
            remember(block)
        elif loop_blocks and random01() < loop_fraction:
            loop_pos += 1
            if loop_pos >= loop_blocks:
                loop_pos = 0
            block = loop_base + loop_pos
        elif random01() < stream_fraction:
            if random01() < stream_advance:
                stream_pos += 1
            block = stream_base + stream_pos
        else:
            block = private_base + (window_start + int(
                window * random01() ** exponent)) % private_size
            remember(block)
        if block >= stream_region:
            write = random01() < write_fraction
        elif block >= os_base:
            write = random01() < 0.05
        elif block >= shared_base:
            write = random01() < shared_write_fraction
        else:
            write = random01() < write_fraction
        if write:
            kind = store
        elif random01() < dep_fraction:
            kind = dep_load
        else:
            kind = load
        # Geometric-ish gap with mean ``mean_gap``; no draw when it is 0.
        if mean_gap <= 0:
            gap = 0
        else:
            r = random01()
            gap = int(neg_mean_gap * log(r if r > 1e-12 else 1e-12))
        append_gap(gap)
        append_block(block)
        append_kind(kind)
    return gaps, blocks, kinds
