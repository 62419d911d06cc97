"""Inline-served batch engine (docs/engine.md).

:class:`~repro.sim.vector.engine.VectorizedEngine` serves references in
the reference engine's ``(core clock, core id)`` order, but keeps the
earliest core on the floor for as long as it stays the earliest and
serves each reference through an inline copy of the core timing step
and the L1 access path, while producing byte-identical results to the
reference engine.
"""

from repro.sim.vector.engine import VectorizedEngine

__all__ = ["VectorizedEngine"]
