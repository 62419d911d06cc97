"""Engine selection: the reference/vectorized pair (docs/engine.md).

Two engines produce byte-identical :class:`~repro.sim.results.SimResult`
snapshots for the same (config, settings, workload, seed):

* ``reference`` — :class:`~repro.sim.engine.SimulationEngine`, the
  per-reference heap loop. Simple, slow, and the differential oracle:
  every equivalence claim bottoms out in "same result as the reference
  engine".
* ``vectorized`` — :class:`~repro.sim.vector.engine.VectorizedEngine`,
  epoch-batched processing of local (contention-free) reference runs
  between contention points. The default.

Resolution order for the engine name: explicit argument, then the
``REPRO_ENGINE`` environment variable, then the default. Because both
engines are result-equivalent, the persistent run cache is deliberately
*not* keyed by engine — a cached result answers for either engine.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Sequence

from repro.sim.cpu import Trace, TraceItem
from repro.sim.engine import SimulationEngine
from repro.sim.system import CmpSystem

#: Engine names accepted by --engine / REPRO_ENGINE / RunSettings.engine.
ENGINES = ("reference", "vectorized")

DEFAULT_ENGINE = "vectorized"


def resolve_engine(name: Optional[str] = None) -> str:
    """The effective engine name after defaulting.

    ``name=None`` defers to ``REPRO_ENGINE`` (unset/blank means the
    default). An unknown name raises a :class:`ValueError` listing the
    choices, so a typo in ``REPRO_ENGINE`` fails at startup.
    """
    if name is None:
        raw = os.environ.get("REPRO_ENGINE")
        name = raw.strip() if raw is not None and raw.strip() else DEFAULT_ENGINE
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; choices: {', '.join(ENGINES)}")
    return name


def build_engine(system: CmpSystem,
                 traces: Sequence[Optional[Iterator[TraceItem]]],
                 engine: Optional[str] = None) -> SimulationEngine:
    """Construct the selected engine over ``system`` and ``traces``.

    ``traces`` entries may be :class:`~repro.sim.cpu.Trace` columns,
    ``TraceItem`` lists or iterators. A ``Trace`` or a list is never
    consumed: the vectorized engine copies a ``Trace``'s columns
    (:func:`~repro.sim.cpu.as_trace` converts the other forms), and the
    reference engine walks a fresh iterator over it
    (:meth:`~repro.sim.cpu.Trace.rows` for a ``Trace``). The
    single construction seam: the executor, the oracle
    sweep and the equivalence tests all come through here, so engine
    selection is honored identically in serial, pooled and service
    execution.
    """
    name = resolve_engine(engine)
    if name == "reference":
        return SimulationEngine(
            system, [t.rows() if isinstance(t, Trace)
                     else (iter(t) if t is not None else None)
                     for t in traces])
    from repro.sim.vector.engine import VectorizedEngine

    return VectorizedEngine(system, traces)
