"""Hierarchical statistics registry: named scopes of cheap counters.

Every simulated component (bank, L1, link, memory controller, duel
state, architecture policy) owns a :class:`Scope` holding its counters;
:class:`~repro.sim.system.CmpSystem` mounts those scopes into one
:class:`StatsRegistry` tree, so

* warm-up reset is a *walk of the tree* (``registry.reset()``) instead
  of a hand-maintained list of components — forgetting to reset a new
  component is no longer a possible bug;
* end-of-run export is a *snapshot of the tree* (``registry.to_dict()``)
  carried inside :class:`~repro.sim.results.SimResult`, giving every
  run a per-component breakdown (per-bank hits by block class, per-link
  NoC traffic, per-controller stalls, per-bank ``nmax``) without
  printf-style tracing;
* conservation is testable: the sum over a scope's children must equal
  the aggregate counter the flat result reports (tests walk the tree).

Three primitive kinds, all O(1) on the hot path:

* :class:`Counter` — a monotonically increasing integer. The hot path
  is ``counter.value += n``: one attribute store, no function call
  needed (``inc`` exists for readability off the hot path).
* :class:`Gauge` — a level (current ``nmax``, an EMA estimate). Set,
  not accumulated.
* :class:`Histogram` — power-of-two latency buckets: ``record(v)``
  increments bucket ``v.bit_length()``, so the full latency *shape*
  costs one integer add per event and a fixed few hundred bytes per
  histogram.

Components whose hot path cannot afford a registry object per event
(the NoC counts one flat slot per message, the system one flat record
per demand access) keep pending counts in their own flat arrays and
give their scope a *sync* callback that folds those counts into the
registry objects. Every read and reset of the scope (``to_dict``,
``walk``, ``get``, ``stats``, ``reset``, ``sync``) runs it first, and
child scopes inherit it, so no reader ever sees an unapplied count and
a warm-up reset also clears what was pending.

Naming convention (see docs/observability.md): scope paths are dotted,
lower-case, with instance indices fused to the kind — ``l2.bank3``,
``l1.core0``, ``noc.links.r0-r1``, ``mem.mc1``, ``arch.duel.bank2``.
Snapshots are plain nested ``dict``s with string keys and int/float
leaves (histograms serialize as a marked dict), so ``json`` round-trips
them losslessly.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

#: Histograms cover values up to 2**(_HIST_BUCKETS-1); larger values
#: saturate into the last bucket. 40 buckets cover any plausible
#: cycle count (~10**12) with negligible footprint.
_HIST_BUCKETS = 40

#: Marker key identifying a histogram inside a snapshot dict.
HIST_KEY = "__hist__"


class Counter:
    """A monotonically increasing integer statistic."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """A last-written level (not an accumulation): ``nmax``, an EMA."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Union[int, float]:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value})"


class Histogram:
    """Power-of-two bucketed histogram of non-negative integers.

    Bucket ``i`` counts values with ``bit_length() == i`` — i.e. bucket
    0 holds zeros and bucket ``i>0`` holds values in ``[2**(i-1),
    2**i)``. ``count``/``total`` keep the exact first moment so means
    stay exact even though the shape is quantized.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * _HIST_BUCKETS
        self.count = 0
        self.total = 0

    def record(self, value: int) -> None:
        bucket = value.bit_length()
        if bucket >= _HIST_BUCKETS:
            bucket = _HIST_BUCKETS - 1
        self.buckets[bucket] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        for i in range(_HIST_BUCKETS):
            self.buckets[i] = 0
        self.count = 0
        self.total = 0

    def snapshot(self) -> Dict[str, object]:
        return {HIST_KEY: {
            "count": self.count,
            "total": self.total,
            # Sparse: only non-empty buckets, keyed by the bit length
            # (stringified so json round-trips the snapshot unchanged).
            "buckets": {str(i): n for i, n in enumerate(self.buckets) if n},
        }}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, total={self.total})"


Stat = Union[Counter, Gauge, Histogram]


class Scope:
    """A named node of the registry tree: statistics plus child scopes.

    Components create their own scope standalone (``Scope()``) so they
    work outside a full system; :class:`CmpSystem` *mounts* them into
    its registry, which only links the existing objects — the component
    keeps incrementing the very same counters the registry walks.

    ``sync``, when given, folds the owner's pending flat counts into
    this subtree's statistics; it runs before every read and reset.
    """

    __slots__ = ("_stats", "_scopes", "_sync")

    def __init__(self, sync: Optional[Callable[[], None]] = None) -> None:
        self._stats: Dict[str, Stat] = {}
        self._scopes: Dict[str, "Scope"] = {}
        self._sync = sync

    def sync(self) -> None:
        """Fold pending flat counts into the registry objects."""
        if self._sync is not None:
            self._sync()

    # -- construction -------------------------------------------------------

    def _add(self, name: str, stat: Stat) -> Stat:
        if not name or "." in name:
            raise ValueError(f"invalid stat name {name!r}")
        if name in self._stats or name in self._scopes:
            raise ValueError(f"duplicate registration {name!r}")
        self._stats[name] = stat
        return stat

    def counter(self, name: str) -> Counter:
        existing = self._stats.get(name)
        if isinstance(existing, Counter):
            return existing
        return self._add(name, Counter())  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        existing = self._stats.get(name)
        if isinstance(existing, Gauge):
            return existing
        return self._add(name, Gauge())  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        existing = self._stats.get(name)
        if isinstance(existing, Histogram):
            return existing
        return self._add(name, Histogram())  # type: ignore[return-value]

    def scope(self, name: str) -> "Scope":
        """Child scope, created on first use."""
        child = self._scopes.get(name)
        if child is None:
            if not name or "." in name:
                raise ValueError(f"invalid scope name {name!r}")
            if name in self._stats:
                raise ValueError(f"{name!r} is already a stat here")
            child = Scope(self._sync)
            self._scopes[name] = child
        return child

    def mount(self, name: str, child: "Scope", replace: bool = False
              ) -> "Scope":
        """Adopt an externally owned scope as child ``name``.

        ``replace=True`` swaps out an earlier mount under the same name
        (a component rebuilt on re-bind, e.g. ESP's duel controller).
        """
        if name in self._stats or (name in self._scopes and not replace):
            raise ValueError(f"duplicate mount {name!r}")
        if not name or "." in name:
            raise ValueError(f"invalid scope name {name!r}")
        self._scopes[name] = child
        return child

    # -- access -------------------------------------------------------------

    def get(self, path: str) -> Union[Stat, "Scope"]:
        """Dotted lookup of a stat or scope: ``get("l2.bank0.misses")``."""
        node: Union[Stat, Scope] = self
        for part in path.split("."):
            if not isinstance(node, Scope):
                raise KeyError(path)
            node.sync()
            child = node._scopes.get(part)
            if child is not None:
                node = child
                continue
            stat = node._stats.get(part)
            if stat is None:
                raise KeyError(path)
            node = stat
        return node

    def scopes(self) -> Dict[str, "Scope"]:
        return dict(self._scopes)

    def stats(self) -> Dict[str, Stat]:
        self.sync()
        return dict(self._stats)

    # -- tree operations ------------------------------------------------------

    def reset(self) -> None:
        """Zero every statistic in this subtree (warm-up reset)."""
        self.sync()
        for stat in self._stats.values():
            stat.reset()
        for child in self._scopes.values():
            child.reset()

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, Stat]]:
        """Yield ``(dotted_path, stat)`` for every statistic in the
        subtree, depth-first in registration order."""
        self.sync()
        for name, stat in self._stats.items():
            yield (f"{prefix}{name}", stat)
        for name, child in self._scopes.items():
            yield from child.walk(f"{prefix}{name}.")

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean nested snapshot of the subtree."""
        self.sync()
        out: Dict[str, object] = {}
        for name, stat in self._stats.items():
            out[name] = stat.snapshot()
        for name, child in self._scopes.items():
            out[name] = child.to_dict()
        return out


class StatsRegistry(Scope):
    """The root scope a :class:`CmpSystem` owns.

    Identical to :class:`Scope`; the distinct type marks the mount
    point all component scopes hang off and carries snapshot helpers.
    """

    __slots__ = ()


# -- snapshot helpers (operate on to_dict() output) ---------------------------

def snapshot_get(snapshot: Dict[str, object], path: str) -> object:
    """Dotted lookup inside a ``to_dict()`` snapshot."""
    node: object = snapshot
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


def is_histogram(value: object) -> bool:
    return isinstance(value, dict) and HIST_KEY in value


def histogram_count(value: Dict[str, object]) -> int:
    return value[HIST_KEY]["count"]  # type: ignore[index]


def histogram_total(value: Dict[str, object]) -> int:
    return value[HIST_KEY]["total"]  # type: ignore[index]


def flatten(snapshot: Dict[str, object], prefix: str = ""
            ) -> Dict[str, object]:
    """``{"l2": {"bank0": {"misses": 3}}}`` -> ``{"l2.bank0.misses": 3}``.

    Histogram leaves stay as their marked dicts.
    """
    flat: Dict[str, object] = {}
    for name, value in snapshot.items():
        path = f"{prefix}{name}"
        if isinstance(value, dict) and not is_histogram(value):
            flat.update(flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat
