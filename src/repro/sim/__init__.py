"""CMP system assembly and the timing simulation kernel."""

from repro.sim.cpu import CoreModel, Trace, TraceItem, TraceKind
from repro.sim.engine import SimulationEngine
from repro.sim.request import Supplier
from repro.sim.results import SimResult
from repro.sim.system import CmpSystem

__all__ = [
    "CoreModel",
    "Trace",
    "TraceItem",
    "TraceKind",
    "SimulationEngine",
    "Supplier",
    "SimResult",
    "CmpSystem",
]
