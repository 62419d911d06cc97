"""Generic parameter sweeps over nested configuration fields.

The Section 5.2 sensitivity study is one instance of a general need:
"re-run this (architecture, workload) point while varying a config
field". ``Sweep`` names fields with dotted paths into the (frozen,
nested) :class:`SystemConfig` dataclasses — ``esp.degradation_shift``,
``mem.latency``, ``core.max_outstanding`` — and produces one
:class:`ExperimentReport` row per value.
"""

from __future__ import annotations

from dataclasses import is_dataclass, replace
from typing import Callable, List, Sequence

from repro.common.config import SystemConfig
from repro.harness.reporting import ExperimentReport
from repro.harness.runner import ExperimentRunner


def set_config_field(config: SystemConfig, path: str, value) -> SystemConfig:
    """A copy of ``config`` with the dotted ``path`` replaced.

    >>> cfg = set_config_field(SystemConfig(), "esp.degradation_shift", 4)
    >>> cfg.esp.degradation_shift
    4
    """
    parts = path.split(".")
    return _set(config, parts, value)


def _set(node, parts: List[str], value):
    if not is_dataclass(node):
        raise ValueError(f"cannot descend into non-dataclass at {parts!r}")
    head = parts[0]
    if not hasattr(node, head):
        raise AttributeError(f"{type(node).__name__} has no field {head!r}")
    if len(parts) == 1:
        return replace(node, **{head: value})
    child = _set(getattr(node, head), parts[1:], value)
    return replace(node, **{head: child})


class Sweep:
    """Sweep one dotted config field across values for one registered
    architecture, measuring a metric per (value, workload)."""

    def __init__(self, runner: ExperimentRunner, field: str,
                 values: Sequence, arch: str,
                 metric: Callable = lambda agg: agg.performance) -> None:
        self.runner = runner
        self.field = field
        self.values = list(values)
        self.arch = arch
        self.metric = metric

    def _label(self, value) -> str:
        return f"{self.arch}[{self.field}={value}]"

    def run(self, workloads: Sequence[str],
            baseline_arch: str = "shared") -> ExperimentReport:
        report = ExperimentReport(
            experiment=f"sweep:{self.field}",
            title=f"{self.arch} vs {self.field} "
                  f"(metric normalized to {baseline_arch})",
            columns=list(workloads))
        # One batch for the whole grid: the executor parallelizes the
        # (value, workload, seed) points and the loops below hit the memo.
        configs = {value: set_config_field(self.runner.config, self.field,
                                           value)
                   for value in self.values}
        self.runner.prefetch([baseline_arch], workloads)
        self.runner.prefetch_custom(
            [(self._label(value), config, self.arch, workload)
             for value, config in configs.items() for workload in workloads])
        for value, config in configs.items():
            row = []
            for workload in workloads:
                base = self.metric(
                    self.runner.aggregate(baseline_arch, workload))
                agg = self.runner.aggregate_custom(
                    self._label(value), config, self.arch, workload)
                row.append(self.metric(agg) / base)
            report.series[f"{self.field}={value}"] = row
        return report
