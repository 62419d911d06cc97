"""Struct-of-arrays trace views (docs/engine.md, "State layout").

A materialized per-core trace is decomposed into parallel columns —
``gaps``, ``blocks``, ``writes``, ``deps`` — so the engine's hot walks
index plain Python lists of scalars instead of touching ``TraceItem``
attributes.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Sequence

from repro.sim.cpu import TraceItem, TraceKind


class SoATrace:
    """One core's trace as parallel scalar columns."""

    __slots__ = ("items", "gaps", "blocks", "writes", "deps")

    def __init__(self, items: Sequence[TraceItem]) -> None:
        self.items = items
        # One C-level pass per column: a tuple subclass misses the
        # interpreter's exact-tuple fast paths, so a Python loop that
        # unpacks each item or reads its fields is the slower build.
        self.gaps: List[int] = list(map(itemgetter(0), items))
        self.blocks: List[int] = list(map(itemgetter(1), items))
        kinds = list(map(itemgetter(2), items))
        store, dep_load = TraceKind.STORE, TraceKind.DEP_LOAD
        self.writes: List[bool] = [kind is store for kind in kinds]
        self.deps: List[bool] = [kind is dep_load for kind in kinds]

    def __len__(self) -> int:
        return len(self.items)
