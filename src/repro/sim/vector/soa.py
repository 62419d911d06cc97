"""Struct-of-arrays trace views (docs/engine.md, "State layout").

A materialized per-core trace is decomposed into parallel columns —
``gaps``, ``blocks``, ``writes``, ``deps`` — so the engine's hot walks
index plain Python lists of scalars instead of touching ``TraceItem``
attributes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.cpu import TraceItem, TraceKind


class SoATrace:
    """One core's trace as parallel scalar columns."""

    __slots__ = ("items", "gaps", "blocks", "writes", "deps")

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

    def __len__(self) -> int:
        return len(self.items)
