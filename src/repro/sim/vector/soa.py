"""Struct-of-arrays trace views (docs/engine.md, "State layout").

A materialized per-core trace is decomposed into parallel columns —
``gaps``, ``blocks``, ``writes``, ``deps`` — so the engine's hot walks
index plain Python lists of scalars instead of touching ``TraceItem``
attributes, and bulk classification can run over numpy views of the
same columns. numpy is optional: when it is unavailable the engine
falls back to the scalar classification path with identical results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.cpu import TraceItem, TraceKind

try:  # soft dependency: everything below degrades to scalar paths
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

HAS_NUMPY = _np is not None

#: Window length below which scalar classification wins: building /
#: intersecting numpy index arrays has a fixed cost that only pays off
#: when many references are classified in one shot.
BULK_THRESHOLD = 512


class SoATrace:
    """One core's trace as parallel scalar columns (+ numpy views)."""

    __slots__ = ("items", "gaps", "blocks", "writes", "deps",
                 "blocks_np", "writes_np")

    def __init__(self, items: Sequence[TraceItem]) -> None:
        self.items = items
        gaps: List[int] = []
        blocks: List[int] = []
        writes: List[bool] = []
        deps: List[bool] = []
        g_app, b_app = gaps.append, blocks.append
        w_app, d_app = writes.append, deps.append
        store, dep_load = TraceKind.STORE, TraceKind.DEP_LOAD
        for it in items:  # single pass: columns amortize over every walk
            g_app(it.gap)
            b_app(it.block)
            kind = it.kind
            w_app(kind is store)
            d_app(kind is dep_load)
        self.gaps = gaps
        self.blocks = blocks
        self.writes = writes
        self.deps = deps
        if HAS_NUMPY and len(items) >= BULK_THRESHOLD:
            self.blocks_np = _np.asarray(self.blocks, dtype=_np.int64)
            self.writes_np = _np.asarray(self.writes, dtype=bool)
        else:
            self.blocks_np = None
            self.writes_np = None

    def __len__(self) -> int:
        return len(self.items)


def local_prefix_length(trace: SoATrace, pos: int, limit: int,
                        resident_np, full_np) -> Optional[int]:
    """Length of the maximal local prefix of ``trace[pos:limit]``, or
    ``None`` when the bulk path does not apply.

    A reference is *local* when its block is L1-resident (reads) or
    resident with all tokens (writes). ``resident_np`` must be exact;
    ``full_np`` may be conservatively stale-low (a write misclassified
    as contention is served through the full access path with
    identical results — see docs/engine.md, "Conservative
    classification").
    """
    if not HAS_NUMPY or trace.blocks_np is None or resident_np is None:
        return None
    blocks = trace.blocks_np[pos:limit]
    writes = trace.writes_np[pos:limit]
    local = _np.isin(blocks, resident_np, assume_unique=False)
    if writes.any():
        if full_np is None or len(full_np) == 0:
            local &= ~writes
        else:
            local &= (~writes) | _np.isin(blocks, full_np)
    stops = _np.flatnonzero(~local)
    return int(stops[0]) if len(stops) else limit - pos


def as_block_array(blocks: set):
    """A set of block ids as a numpy array (``None`` without numpy)."""
    if not HAS_NUMPY:
        return None
    return _np.fromiter(blocks, dtype=_np.int64, count=len(blocks))
