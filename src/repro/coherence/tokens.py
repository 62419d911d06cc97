"""Authoritative token ledger.

Token-coherence rules (Martin, 2003), as used here:

* every block has a fixed total of T tokens (``2 * num_cores``: enough
  for every L1 plus the L2 copies ESP-NUCA can create);
* holding >= 1 token with data permits reading;
* writing requires all T tokens (so all other copies are invalidated);
* tokens never appear or disappear — the ledger asserts conservation.

Token *counts* live inside the cache line objects (``L1Line.tokens``,
``CacheBlock.tokens``); the ledger owns the directory of where copies
are and is the only code allowed to move counts around. The simulated
system calls the ledger first and then mirrors the result in the cache
structures (install/remove), which the ledger cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.block import CacheBlock
from repro.cache.l1 import L1Line
from repro.common.statsreg import Scope


@dataclass
class L2Holding:
    bank_id: int
    set_index: int
    entry: CacheBlock


@dataclass
class BlockState:
    """Where a block's T tokens currently are."""

    memory_tokens: int
    l1: Dict[int, L1Line] = field(default_factory=dict)
    l2: Dict[int, L2Holding] = field(default_factory=dict)  # keyed by id(entry)

    def on_chip(self) -> bool:
        return bool(self.l1) or bool(self.l2)

    def chip_tokens(self) -> int:
        return (sum(line.tokens for line in self.l1.values())
                + sum(h.entry.tokens for h in self.l2.values()))


class TokenConservationError(AssertionError):
    pass


# Shared empty result for the (dominant) no-L2-copy case; callers only
# iterate or truth-test the returned list, never mutate it.
_NO_HOLDINGS: List[L2Holding] = []


class _StateMap(dict):
    """Block-state table with inline creation: ``states[block]`` runs at
    C dict speed for known blocks and materializes fresh all-in-memory
    state via ``__missing__`` otherwise — the ledger's hot paths hit
    this once or more per miss."""

    __slots__ = ("total_tokens",)

    def __init__(self, total_tokens: int) -> None:
        super().__init__()
        self.total_tokens = total_tokens

    def __missing__(self, block: int) -> BlockState:
        state = self[block] = BlockState(memory_tokens=self.total_tokens)
        return state


class TokenLedger:
    def __init__(self, num_cores: int, checking: bool = False) -> None:
        self.num_cores = num_cores
        self.total_tokens = 2 * num_cores
        self.checking = checking
        # Observation hook (docs/engine.md): take_from_l1 is the single
        # chokepoint through which L1 token counts ever decrease, so
        # the vectorized engine's mirror journal subscribes here to
        # learn when a line's full-token status (write locality) may
        # have lapsed. The journal object itself is installed (duck
        # typed: ``runs``/``dirty``) and its field updates
        # are inlined in take_from_l1 — the hook fires once per token
        # withdrawal, too hot for a method call (the contract is in the
        # repro.sim.vector.mirror docstring).
        self.l1_journal = None
        self._states: Dict[int, BlockState] = _StateMap(self.total_tokens)
        # Statistics scope, mounted at ``coherence`` by the system.
        self.stats = Scope()
        self._token_steals = self.stats.counter("token_steals")
        self._blocks_left_chip = self.stats.counter("blocks_left_chip")

    @property
    def token_steals(self) -> int:
        """Times a new reader had to take a token from a live copy
        because memory's pool for the block was empty."""
        return self._token_steals.value

    @property
    def blocks_left_chip(self) -> int:
        """Blocks whose last on-chip copy disappeared (state forgotten)."""
        return self._blocks_left_chip.value

    # -- state access ----------------------------------------------------------

    def state(self, block: int) -> BlockState:
        return self._states[block]  # _StateMap creates on first touch

    def known_blocks(self) -> Iterator[int]:
        return iter(self._states)

    def on_chip(self, block: int) -> bool:
        state = self._states.get(block)
        return state is not None and state.on_chip()

    def l1_holders(self, block: int) -> List[int]:
        state = self._states.get(block)
        return list(state.l1) if state else []

    def l2_holdings(self, block: int) -> List[L2Holding]:
        state = self._states.get(block)
        if state is None or not state.l2:
            return _NO_HOLDINGS  # shared: callers only iterate/test it
        return list(state.l2.values())

    # -- token movement primitives ----------------------------------------------

    def take_from_memory(self, block: int, amount: Optional[int] = None) -> int:
        """Remove tokens from memory's pool (all of them by default)."""
        state = self._states[block]
        taken = state.memory_tokens if amount is None else min(amount, state.memory_tokens)
        state.memory_tokens -= taken
        if self.checking:
            self._check(block)
        return taken

    def give_to_memory(self, block: int, amount: int) -> None:
        state = self._states[block]
        state.memory_tokens += amount
        if self.checking:
            self._check(block)
        if not state.on_chip() and state.memory_tokens == self.total_tokens:
            # Block fully off chip: forget it (classification resets too,
            # handled by the caller via `left_chip`).
            self._blocks_left_chip.value += 1
            del self._states[block]

    def take_from_l1(self, block: int, core: int, amount: Optional[int] = None) -> int:
        """Take tokens from an L1 line; caller invalidates the line if
        it reaches zero tokens."""
        state = self._states[block]
        line = state.l1[core]
        taken = line.tokens if amount is None else min(amount, line.tokens)
        line.tokens -= taken
        if line.tokens == 0:
            del state.l1[core]
        j = self.l1_journal
        if taken and j is not None:
            # Journal hook, token withdrawal (contract: the
            # repro.sim.vector.mirror docstring).
            run = j.runs[core]
            if run is not None and block in run:
                j.dirty.add(core)
        if self.checking:
            self._check(block)
        return taken

    def take_from_l2(self, block: int, entry: CacheBlock,
                     amount: Optional[int] = None) -> int:
        """Take tokens from an L2 entry; caller removes it from its bank
        if it reaches zero tokens."""
        state = self._states[block]
        if id(entry) not in state.l2:  # caller bug: entry never registered
            raise KeyError(f"L2 entry for block {block:#x} is not registered")
        taken = entry.tokens if amount is None else min(amount, entry.tokens)
        entry.tokens -= taken
        if entry.tokens == 0:
            del state.l2[id(entry)]
        if self.checking:
            self._check(block)
        return taken

    # -- registration ---------------------------------------------------------------

    def register_l1(self, block: int, core: int, line: L1Line) -> None:
        state = self._states[block]
        if line.tokens <= 0:
            raise TokenConservationError("an L1 copy must hold >= 1 token")
        state.l1[core] = line
        if self.checking:
            self._check(block)

    def register_l2(self, block: int, bank_id: int, set_index: int,
                    entry: CacheBlock) -> None:
        state = self._states[block]
        if entry.tokens <= 0:
            raise TokenConservationError("an L2 copy must hold >= 1 token")
        state.l2[id(entry)] = L2Holding(bank_id, set_index, entry)
        if self.checking:
            self._check(block)

    def forget_l1(self, block: int, core: int) -> None:
        """Drop directory knowledge of a zero-token line (already taken)."""
        state = self._states[block]
        state.l1.pop(core, None)

    def forget_l2(self, block: int, entry: CacheBlock) -> None:
        state = self._states[block]
        state.l2.pop(id(entry), None)

    # -- composite helpers -------------------------------------------------------------

    def steal_one_token(self, block: int) -> Optional[Tuple[str, object]]:
        """Find a holder that can spare one token for a new reader when
        memory has none.

        Returns ``('l1', core)`` or ``('l2', entry)`` describing where to
        take the token from, preferring copies with spare tokens so no
        copy dies; returns None when a copy must be sacrificed (the
        caller picks a victim copy and invalidates it).
        """
        state = self._states[block]
        for holding in state.l2.values():
            if holding.entry.tokens > 1:
                self._token_steals.value += 1
                return "l2", holding.entry
        for core, line in state.l1.items():
            if line.tokens > 1:
                self._token_steals.value += 1
                return "l1", core
        return None

    # -- invariants ----------------------------------------------------------------

    def _check(self, block: int) -> None:
        """Relaxed mid-operation check: tokens may be *in flight*
        between a take and the matching grant, so only bounds are
        enforced here; exact conservation is asserted by
        ``check_block``/``check_all`` at quiesced points."""
        if not self.checking:
            return
        state = self._states.get(block)
        if state is None:
            return
        total = state.memory_tokens + state.chip_tokens()
        if not 0 <= total <= self.total_tokens:
            raise TokenConservationError(
                f"block {block:#x}: {total} tokens outside [0, {self.total_tokens}]")
        if state.memory_tokens < 0:
            raise TokenConservationError(f"block {block:#x}: negative memory tokens")

    def check_block(self, block: int) -> None:
        state = self._states.get(block)
        if state is None:
            return
        total = state.memory_tokens + state.chip_tokens()
        if total != self.total_tokens:
            raise TokenConservationError(
                f"block {block:#x}: {total} tokens, expected {self.total_tokens}")
        if state.memory_tokens < 0:
            raise TokenConservationError(f"block {block:#x}: negative memory tokens")
        for core, line in state.l1.items():
            if line.block != block or line.tokens <= 0:
                raise TokenConservationError(
                    f"block {block:#x}: bad L1 holding at core {core}")
        for holding in state.l2.values():
            if holding.entry.block != block or holding.entry.tokens <= 0:
                raise TokenConservationError(
                    f"block {block:#x}: bad L2 holding in bank {holding.bank_id}")

    def check_all(self) -> None:
        for block in list(self._states):
            self.check_block(block)
