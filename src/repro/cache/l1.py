"""Private L1 cache (32 KB, 4-way in Table 2).

The study models a unified request stream per core (the workload
generators emit data references; instruction fetch behaviour is folded
into the per-benchmark locality parameters), so one L1 object per core
stands in for the I/D pair. It stores exact tags with exact LRU and
tracks each line's coherence-token count and dirtiness for the
functional layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.statsreg import Scope


class L1Line:
    __slots__ = ("block", "dirty", "tokens", "lru", "reused")

    def __init__(self, block: int, tokens: int, dirty: bool) -> None:
        self.block = block
        self.tokens = tokens
        self.dirty = dirty
        self.lru = 0
        # Set on any hit after the fill: one bit of temporal-reuse
        # evidence, consumed by replication heuristics (ESP replicas).
        self.reused = False


class L1Cache:
    def __init__(self, core_id: int, num_sets: int, assoc: int) -> None:
        self.core_id = core_id
        self.num_sets = num_sets
        self.assoc = assoc
        self._sets: List[Dict[int, L1Line]] = [dict() for _ in range(num_sets)]
        self._stamp = 0
        # Statistics scope, mounted at ``l1.core<i>`` by the system.
        self.stats = Scope()
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")

    def _index(self, block: int) -> int:
        return block % self.num_sets

    def lookup(self, block: int, touch: bool = True) -> Optional[L1Line]:
        line = self._sets[block % self.num_sets].get(block)
        if line is not None and touch:
            self._stamp += 1
            line.lru = self._stamp
            line.reused = True
        return line

    def access(self, block: int) -> Optional[L1Line]:
        """Demand access: updates hit/miss statistics."""
        line = self.lookup(block)
        if line is None:
            self._misses.value += 1
        else:
            self._hits.value += 1
        return line

    def fill(self, block: int, tokens: int, dirty: bool
             ) -> Tuple[L1Line, Optional[L1Line], bool]:
        """Install a line, returning ``(line, evicted_line, merged)``.

        ``merged`` is True when the tokens went into an already-resident
        (hence already-registered) line — the caller then skips ledger
        registration."""
        cache_set = self._sets[block % self.num_sets]
        existing = cache_set.get(block)
        if existing is not None:
            existing.tokens += tokens
            existing.dirty = existing.dirty or dirty
            self._stamp += 1
            existing.lru = self._stamp
            return existing, None, True
        evicted: Optional[L1Line] = None
        if len(cache_set) >= self.assoc:
            # First-minimum-lru victim (same tie-break as min() over
            # insertion order, without a lambda call per way).
            victim_block = None
            victim_lru = None
            for b, ln in cache_set.items():
                if victim_lru is None or ln.lru < victim_lru:
                    victim_lru = ln.lru
                    victim_block = b
            evicted = cache_set.pop(victim_block)
        line = L1Line(block, tokens, dirty)
        self._stamp += 1
        line.lru = self._stamp
        cache_set[block] = line
        return line, evicted, False

    def invalidate(self, block: int) -> Optional[L1Line]:
        return self._sets[block % self.num_sets].pop(block, None)

    def resident_blocks(self) -> List[int]:
        return [b for s in self._sets for b in s]

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def reset_stats(self) -> None:
        self.stats.reset()
