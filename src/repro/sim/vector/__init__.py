"""Vectorized batch engine (docs/engine.md).

Struct-of-arrays trace views, an L1 membership mirror with a change
journal, and the epoch-batched
:class:`~repro.sim.vector.engine.VectorizedEngine` that commits
contention-free reference runs in bulk between contention points,
serving the contention points through the shared architecture and
timing methods, while producing byte-identical results to the
reference engine.
"""

from repro.sim.vector.engine import VectorizedEngine

__all__ = ["VectorizedEngine"]
