"""Trace recording and replay.

Materialized traces are what make runs *paired* across architectures;
persisting them lets a study be re-run bit-identically later (or on
another machine), shared alongside results, or inspected offline.

Format: a small text header, then one line per reference —
``gap kind block_hex`` — gzip-compressed. Self-describing and
diff-able beats clever encoding at this scale (a 160k-reference trace
compresses to ~1 MB).
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.sim.cpu import KINDS, TraceItem, TraceKind, as_trace

MAGIC = "esp-nuca-trace v1"

_KIND_CODE = {TraceKind.LOAD: "L", TraceKind.STORE: "S",
              TraceKind.DEP_LOAD: "D"}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


def save_traces(path: str | Path,
                traces: Sequence[Optional[Iterable[TraceItem]]],
                workload: str = "", seed: int = 0) -> None:
    """Write per-core traces (None = idle core) to ``path``. Each trace
    may be a :class:`~repro.sim.cpu.Trace` or ``TraceItem``s."""
    path = Path(path)
    letters = [_KIND_CODE[kind] for kind in KINDS]
    with gzip.open(path, "wt", encoding="ascii") as handle:
        handle.write(f"{MAGIC}\n")
        handle.write(f"workload={workload} seed={seed} "
                     f"cores={len(traces)}\n")
        for core, trace in enumerate(traces):
            if trace is None:
                handle.write(f"core {core} idle\n")
                continue
            columns = as_trace(trace)
            handle.write(f"core {core} refs={len(columns)}\n")
            for gap, block, code in zip(columns.gaps, columns.blocks,
                                        columns.kinds):
                handle.write(f"{gap} {letters[code]} {block:x}\n")


def load_traces(path: str | Path) -> List[Optional[List[TraceItem]]]:
    """Read traces written by :func:`save_traces`."""
    path = Path(path)
    with gzip.open(path, "rt", encoding="ascii") as handle:
        if handle.readline().strip() != MAGIC:
            raise ValueError(f"{path} is not an esp-nuca trace file")
        header = handle.readline().split()
        cores = int(next(f for f in header if f.startswith("cores=")
                         ).split("=")[1])
        traces: List[Optional[List[TraceItem]]] = [None] * cores
        for _ in range(cores):
            fields = handle.readline().split()
            if not fields or fields[0] != "core":
                raise ValueError(f"{path}: malformed core header")
            core = int(fields[1])
            if fields[2] == "idle":
                continue
            count = int(fields[2].split("=")[1])
            items = []
            for _ in range(count):
                gap, code, block_hex = handle.readline().split()
                items.append(TraceItem(gap=int(gap),
                                       kind=_CODE_KIND[code],
                                       block=int(block_hex, 16)))
            traces[core] = items
        return traces


def trace_info(path: str | Path) -> dict:
    """Header metadata without loading the body."""
    with gzip.open(Path(path), "rt", encoding="ascii") as handle:
        if handle.readline().strip() != MAGIC:
            raise ValueError(f"{path} is not an esp-nuca trace file")
        fields = dict(part.split("=") for part in handle.readline().split()
                      if "=" in part)
        return {"workload": fields.get("workload", ""),
                "seed": int(fields.get("seed", 0)),
                "cores": int(fields.get("cores", 0))}
