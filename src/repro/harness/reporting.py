"""Plain-text rendering of experiment results (tables the paper plots)
and of per-run registry snapshots (the ``esp-nuca stats`` subcommand).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.statsreg import flatten, is_histogram


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 precision: int = 3) -> str:
    """Fixed-width ASCII table; floats rendered with ``precision``."""

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    grid = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in grid:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in grid:
        lines.append("  ".join(t.ljust(w) for t, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ExperimentReport:
    """Structured result of one reproduced table/figure."""

    experiment: str
    title: str
    columns: List[str]
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def value(self, series: str, column: str) -> float:
        return self.series[series][self.columns.index(column)]

    def to_json(self) -> str:
        """Machine-readable form (extra tables are kept as text)."""
        return json.dumps({
            "experiment": self.experiment,
            "title": self.title,
            "columns": self.columns,
            "series": self.series,
            "notes": self.notes,
            "extra": {k: str(v) for k, v in self.extra.items()},
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        data = json.loads(text)
        return cls(experiment=data["experiment"], title=data["title"],
                   columns=data["columns"], series=data["series"],
                   notes=data.get("notes", []),
                   extra=data.get("extra", {}))

    def format(self, precision: int = 3) -> str:
        headers = ["series"] + self.columns
        rows = [[name] + list(values) for name, values in self.series.items()]
        out = [f"== {self.experiment}: {self.title} ==",
               format_table(headers, rows, precision)]
        for name, table in self.extra.items():
            if isinstance(table, str):
                out.append(f"\n-- {name} --\n{table}")
        if self.notes:
            out.append("")
            out.extend(f"note: {note}" for note in self.notes)
        return "\n".join(out)


# -- per-run registry snapshot rendering (`esp-nuca stats`) --------------------

def run_stats_payload(result) -> Dict[str, object]:
    """Machine-readable form of one run: the full
    :meth:`~repro.sim.results.SimResult.to_dict` snapshot (flat counters
    plus the hierarchical ``stats`` registry tree). This is the single
    wire serializer — ``esp-nuca stats --json`` prints it and the
    simulation service's ``watch``/result streams carry it, encoded by
    :func:`wire_json`."""
    return result.to_dict()


#: ``json.dumps(obj, sort_keys=True)``'s encoder, built once.
_WIRE_ENCODER = json.JSONEncoder(sort_keys=True)


def wire_json(obj) -> str:
    """The wire JSON of a payload: ``json.dumps(obj, sort_keys=True)``,
    the encoding of every gateway reply body. A result's wire JSON is
    made once (by the run cache's memo, or when its point completes)
    and spliced as-is into every reply that carries it."""
    return _WIRE_ENCODER.encode(obj)


def format_run_stats_json(result) -> str:
    """``esp-nuca stats --json`` output: canonical, diff-friendly JSON."""
    return json.dumps(run_stats_payload(result), indent=2, sort_keys=True)

def _instance_order(name: str) -> tuple:
    """Sort ``bank2`` before ``bank10`` (trailing-integer aware)."""
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


def _scope_table(scopes: Dict[str, dict], first_header: str,
                 total_row: str = "total") -> Optional[str]:
    """Render sibling scopes of identical shape as one table with a
    totals row (``l2.bank*``, ``mem.mc*``, ``arch.duel.bank*``...).

    Nested children are flattened to dotted columns; histogram leaves
    are summarized by their count.
    """
    if not scopes:
        return None
    names = sorted(scopes, key=_instance_order)
    flat = {name: flatten(scopes[name]) for name in names}
    columns: List[str] = []
    for row in flat.values():
        for column in row:
            if column not in columns:
                columns.append(column)
    rows = []
    totals = [0] * len(columns)
    for name in names:
        row: List[object] = [name]
        for i, column in enumerate(columns):
            value = flat[name].get(column, 0)
            if is_histogram(value):
                value = value["__hist__"]["count"]
            row.append(value)
            totals[i] += value
        rows.append(row)
    rows.append([total_row] + totals)
    return format_table([first_header] + columns, rows)


def format_run_stats(result) -> str:
    """Per-component breakdown of one run's registry snapshot.

    ``result`` is a :class:`~repro.sim.results.SimResult` whose
    ``stats`` field carries the hierarchical snapshot a finalized run
    attaches. Every table ends in a totals row; conservation tests
    assert those totals equal the flat aggregate counters.
    """
    head = f"== {result.architecture}"
    if result.workload:
        head += f" on {result.workload} (seed {result.seed})"
    out = [head + " ==",
           f"cycles: {result.cycles}  instructions: {result.instructions}  "
           f"demand accesses: {result.memory_accesses}"]
    stats = result.stats
    if not stats:
        out.append("(result carries no registry snapshot)")
        return "\n".join(out)

    access = stats.get("access")
    if access:
        rows = []
        totals = [0, 0]
        for name in access:
            sub = access[name]
            count, cycles = sub["count"], sub["cycles"]
            totals[0] += count
            totals[1] += cycles
            rows.append([name, count, cycles,
                         cycles / count if count else 0.0])
        rows.append(["total", totals[0], totals[1],
                     totals[1] / totals[0] if totals[0] else 0.0])
        out.append("\n-- demand accesses by supplier --")
        out.append(format_table(["supplier", "count", "cycles", "mean"],
                                rows, precision=2))

    sections = [
        ("l2", "L2 banks", "bank"),
        ("l1", "L1 caches", "core"),
        ("mem", "memory controllers", "mc"),
    ]
    for key, title, header in sections:
        scopes = stats.get(key)
        if isinstance(scopes, dict) and scopes:
            table = _scope_table(
                {k: v for k, v in scopes.items() if isinstance(v, dict)},
                header)
            if table:
                out.append(f"\n-- {title} --")
                out.append(table)

    noc = stats.get("noc")
    if noc:
        agg = {k: v for k, v in noc.items() if not isinstance(v, dict)}
        out.append("\n-- NoC --")
        out.append("  ".join(f"{k}: {v}" for k, v in agg.items()))
        kinds = noc.get("kinds")
        if kinds:
            rows = [[k, v] for k, v in kinds.items()]
            rows.append(["total", sum(v for _, v in rows)])
            out.append(format_table(["kind", "messages"], rows))
        links = noc.get("links")
        if links:
            table = _scope_table(links, "link")
            if table:
                out.append("\n-- NoC links --")
                out.append(table)

    coherence = stats.get("coherence")
    if coherence:
        out.append("\n-- coherence --")
        out.append("  ".join(f"{k}: {v}" for k, v in coherence.items()))

    arch = stats.get("arch")
    if arch:
        out.append("\n-- architecture policy --")
        rows = sorted(flatten(arch).items())
        out.append(format_table(
            ["stat", "value"],
            [[path, value] for path, value in rows
             if not is_histogram(value)]))
    return "\n".join(out)
