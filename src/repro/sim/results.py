"""Aggregated results of one simulation run.

A :class:`SimResult` is a *snapshot*: the flat aggregate counters every
experiment consumes (with the derived-metric API the metrics layer
builds on) plus ``stats`` — the full hierarchical registry snapshot
(see :mod:`repro.common.statsreg`) with per-bank, per-link,
per-controller and per-policy breakdowns. ``to_dict``/``from_dict``
round-trip the whole object through JSON losslessly; that form is the
repo's one result serialization — the persistent run cache stores it,
the ``esp-nuca stats`` renderer (and its ``--json`` mode) prints it,
and the simulation service streams it over the wire (see
docs/service.md).

``stats`` may be held encoded: assigning ``bytes`` (the ``marshal``
encoding of the tree) defers the decode to the first read of
``result.stats``. The run cache hands out hits this way, so a caller
that reads only the flat counters (the runner, every figure) never
pays to rebuild the tree. Equality, ``repr``, ``to_dict``,
``dataclasses.replace`` and pickling see the same result either way.

:meth:`SimResult.clone` is how the run cache answers a repeated hit: it
copies a decoded template's containers and attaches the stats still
encoded, so a hit rebuilds nothing from bytes but the tree it reads.
"""

from __future__ import annotations

import marshal
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Optional

from repro.sim.request import Supplier

#: Fields keyed by the Supplier enum, serialized by member name.
_SUPPLIER_FIELDS = ("supplier_count", "supplier_cycles")
#: Member name -> Supplier: a plain dict lookup per key where
#: ``Supplier[name]`` is a Python-level ``Enum.__getitem__`` call, and
#: ``from_dict`` makes one per supplier field key on every cache hit.
_SUPPLIER_BY_NAME = {s.name: s for s in Supplier}


@dataclass
class SimResult:
    """Counters a run produces; the metrics layer derives everything else.

    ``supplier_count`` / ``supplier_cycles`` accumulate, per data
    supplier, the number of demand accesses and the sum of their
    latencies — exactly the decomposition plotted in Figure 6.
    ``stats`` is the hierarchical per-component snapshot exported by
    :meth:`repro.sim.system.CmpSystem.finalize`; empty for results
    built by hand (unit tests, synthetic fixtures).
    """

    architecture: str = ""
    workload: str = ""
    seed: int = 0
    cycles: int = 0
    instructions: int = 0
    memory_accesses: int = 0
    per_core_cycles: List[int] = field(default_factory=list)
    per_core_instructions: List[int] = field(default_factory=list)
    supplier_count: Dict[Supplier, int] = field(
        default_factory=lambda: {s: 0 for s in Supplier})
    supplier_cycles: Dict[Supplier, int] = field(
        default_factory=lambda: {s: 0 for s in Supplier})
    l1_hits: int = 0
    l1_misses: int = 0
    l2_demand_lookups: int = 0
    l2_hits: int = 0
    offchip_demand: int = 0
    offchip_writebacks: int = 0
    noc_messages: int = 0
    noc_queueing: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    # -- derived metrics -----------------------------------------------------

    @property
    def performance(self) -> float:
        """Work per cycle: the run's figure of merit (higher is better).

        All runs of a workload execute the same instruction totals, so
        normalizing this across architectures equals normalizing
        execution time, the paper's metric.
        """
        if self.cycles == 0:
            raise ValueError("empty run")
        return self.instructions / self.cycles

    @property
    def ipc(self) -> float:
        return self.performance

    @property
    def average_access_time(self) -> float:
        """Mean latency of a demand memory access (Figure 6 height)."""
        if self.memory_accesses == 0:
            return 0.0
        return sum(self.supplier_cycles.values()) / self.memory_accesses

    def access_time_component(self, supplier: Supplier) -> float:
        """Contribution of one supplier to the average access time."""
        if self.memory_accesses == 0:
            return 0.0
        return self.supplier_cycles[supplier] / self.memory_accesses

    @property
    def offchip_accesses_per_kilo_access(self) -> float:
        """Off-chip demand traffic, normalized (Figure 7 x-series)."""
        if self.memory_accesses == 0:
            return 0.0
        return 1000.0 * self.offchip_demand / self.memory_accesses

    @property
    def onchip_latency(self) -> float:
        """Average latency of accesses served on chip (Figure 7 y-series)."""
        onchip = [s for s in Supplier if s is not Supplier.OFFCHIP]
        count = sum(self.supplier_count[s] for s in onchip)
        if count == 0:
            return 0.0
        return sum(self.supplier_cycles[s] for s in onchip) / count

    @property
    def l2_miss_rate(self) -> float:
        if self.l2_demand_lookups == 0:
            return 0.0
        return 1.0 - self.l2_hits / self.l2_demand_lookups

    def record_access(self, supplier: Supplier, latency: int) -> None:
        self.memory_accesses += 1
        self.supplier_count[supplier] += 1
        self.supplier_cycles[supplier] += latency

    # -- structured serialization --------------------------------------------

    @classmethod
    def schema_keys(cls) -> List[str]:
        """Sorted top-level key set of :meth:`to_dict` — the *result
        schema*. The persistent run cache derives its version from a
        hash of this list, so any field add/remove/rename invalidates
        stale entries automatically."""
        return list(_SCHEMA_KEYS)

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean structured form (exact round-trip via from_dict)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _SUPPLIER_FIELDS:
                value = {s.name: value.get(s, 0) for s in Supplier}
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> Optional["SimResult"]:
        """Rebuild from :meth:`to_dict` output (or its JSON round-trip).

        Returns ``None`` when the payload's top-level key set does not
        match the current schema — the stale-cache signal.
        """
        if not isinstance(data, dict) or data.keys() != _SCHEMA_KEY_SET:
            return None
        kwargs = dict(data)
        try:
            for name in _SUPPLIER_FIELDS:
                kwargs[name] = {_SUPPLIER_BY_NAME[k]: v
                                for k, v in kwargs[name].items()}
        except (KeyError, AttributeError, TypeError):
            return None
        return cls(**kwargs)

    def clone(self, stats: bytes) -> "SimResult":
        """A copy of this result whose ``stats`` is ``stats``, the
        ``marshal`` encoding of the tree, decoded on first read.

        Every other container field is copied one level deep (the
        per-core lists and supplier dicts hold ints), so the caller may
        mutate the clone without touching this result. A dict copy
        reuses the stored key hashes: no ``Supplier`` is hashed again.
        The stats come from the argument, never from this result's own
        backing, which a read (a ``repr``, say) may have decoded in
        place into a dict the clone would then share.
        """
        state = self.__dict__.copy()
        for name in _CONTAINER_FIELDS:
            state[name] = state[name].copy()
        state["_stats"] = stats
        clone = object.__new__(type(self))
        clone.__dict__ = state
        return clone


def _get_stats(self: SimResult) -> Dict[str, object]:
    stats = self._stats
    if type(stats) is bytes:
        stats = self._stats = marshal.loads(stats)
    return stats


def _set_stats(self: SimResult, value) -> None:
    self._stats = value


# Installed after @dataclass, which has already read the field (and
# removed its class attribute): the generated __init__, __eq__ and
# __repr__, and replace(), all reach the tree through this property.
SimResult.stats = property(_get_stats, _set_stats, doc=(
    "The registry snapshot; a ``bytes`` backing is decoded on first "
    "read and kept."))

#: The schema :meth:`SimResult.schema_keys` reports, computed once.
_SCHEMA_KEYS = tuple(sorted(f.name for f in fields(SimResult)))
_SCHEMA_KEY_SET = frozenset(_SCHEMA_KEYS)
#: The fields :meth:`SimResult.clone` copies: every field but ``stats``
#: built by a ``default_factory``, which a dataclass requires of every
#: list, dict or set default.
_CONTAINER_FIELDS = tuple(f.name for f in fields(SimResult)
                          if f.default_factory is not MISSING
                          and f.name != "stats")
