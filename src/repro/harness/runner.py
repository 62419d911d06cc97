"""Shared run machinery for all experiments.

Key properties:

* **trace reuse** — the same materialized trace (workload, seed) is
  replayed against every architecture, so comparisons are paired;
* **run caching** — a (settings, architecture, workload, seed) run is
  simulated once and reused, first from an in-process memo and then
  from the persistent on-disk cache (Figures 6, 7 and 8 share their
  transactional runs, as in the paper; a second harness invocation
  shares *everything* via ``.repro_cache/``);
* **parallel execution** — independent run points are submitted in
  batches through :class:`~repro.harness.executor.Executor`, which fans
  them out over ``REPRO_JOBS`` worker processes (``REPRO_JOBS=1`` is a
  deterministic serial fallback with identical results);
* **perturbed seeds** — each extra seed regenerates the workload with
  a different random stream, the stand-in for the paper's pseudo-random
  perturbation, giving the 95% confidence intervals.

See docs/harness.md for the pipeline end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig, scaled_config
from repro.common.rng import perturbed_seeds
from repro.harness.executor import Executor, RunPoint
from repro.harness.runcache import env_int
from repro.metrics.performance import AggregateResult
from repro.sim.engines import ENGINES
from repro.sim.results import SimResult


@dataclass(frozen=True)
class RunSettings:
    """Knobs shared by every run of an experiment session.

    The defaults implement the capacity-scaled configuration argued in
    DESIGN.md §2; environment variables allow scaling the fidelity:
    ``REPRO_REFS``, ``REPRO_WARMUP``, ``REPRO_SEEDS``, ``REPRO_SCALE``
    (and ``REPRO_JOBS`` for the executor). Malformed or out-of-range
    values raise a :class:`ValueError` naming the variable.
    """

    capacity_factor: int = 8
    refs_per_core: int = 20_000
    warmup_refs_per_core: int = 12_000
    num_seeds: int = 2
    base_seed: int = 42
    #: Simulation engine (docs/engine.md): ``None`` defers to the
    #: ``REPRO_ENGINE`` environment variable at build time, falling back
    #: to the registry default. Both engines are result-equivalent, so
    #: this knob never changes numbers — only wall-clock.
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"choices: {', '.join(ENGINES)}")

    @classmethod
    def from_env(cls) -> "RunSettings":
        return cls(
            capacity_factor=env_int("REPRO_SCALE", 8, minimum=1),
            refs_per_core=env_int("REPRO_REFS", 20_000, minimum=1),
            warmup_refs_per_core=env_int("REPRO_WARMUP", 12_000, minimum=0),
            num_seeds=env_int("REPRO_SEEDS", 2, minimum=1),
        )

    def quick(self) -> "RunSettings":
        """Reduced-fidelity settings for smoke tests."""
        return RunSettings(capacity_factor=self.capacity_factor,
                           refs_per_core=6_000, warmup_refs_per_core=3_000,
                           num_seeds=1, base_seed=self.base_seed,
                           engine=self.engine)


def grid_points(config: SystemConfig, settings: RunSettings,
                architectures: Sequence[str], workloads: Sequence[str],
                seeds: Sequence[int]) -> List[RunPoint]:
    """Expand an (architecture × workload × seed) grid into run points.

    Single source of truth for grid expansion order: the runner's
    :meth:`~ExperimentRunner.prefetch` and the simulation service's
    ``submit`` both build their batches here, which is what makes
    service results byte-identical to direct runner results.
    """
    return [RunPoint(name=arch, workload=wl, seed=seed, config=config,
                     settings=settings, arch=arch)
            for wl in workloads for arch in architectures for seed in seeds]


class ExperimentRunner:
    """Session-level façade over the executor: builds run points, memoizes
    results in-process, and aggregates them per (architecture, workload).
    """

    def __init__(self, settings: Optional[RunSettings] = None,
                 config: Optional[SystemConfig] = None,
                 executor: Optional[Executor] = None) -> None:
        self.settings = settings or RunSettings.from_env()
        self.config = config or scaled_config(self.settings.capacity_factor)
        self.seeds = perturbed_seeds(self.settings.base_seed,
                                     self.settings.num_seeds)
        self.executor = executor or Executor()
        self._run_cache: Dict[Tuple[str, str, int], SimResult] = {}

    # -- run-point construction ---------------------------------------------

    def _point(self, architecture: str, workload: str, seed: int) -> RunPoint:
        return RunPoint(name=architecture, workload=workload, seed=seed,
                        config=self.config, settings=self.settings,
                        arch=architecture)

    def _custom_point(self, name: str, config: SystemConfig, arch: str,
                      workload: str, seed: int) -> RunPoint:
        return RunPoint(name=name, workload=workload, seed=seed,
                        config=config, settings=self.settings, arch=arch)

    def submit(self, points: Sequence[RunPoint]) -> List[SimResult]:
        """Run a batch of points through the executor, memoizing results.

        The in-process memo keys on (name, workload, seed) — the
        executor's content-hash cache additionally covers the config, so
        custom names must encode their parameters (as before).
        """
        pending: List[RunPoint] = []
        seen = set()
        for point in points:
            key = (point.name, point.workload, point.seed)
            if key not in self._run_cache and key not in seen:
                seen.add(key)
                pending.append(point)
        if pending:
            for point, result in zip(pending, self.executor.run(pending)):
                self._run_cache[(point.name, point.workload,
                                 point.seed)] = result
        return [self._run_cache[(p.name, p.workload, p.seed)]
                for p in points]

    # -- running -------------------------------------------------------------

    def run_one(self, architecture: str, workload: str, seed: int) -> SimResult:
        return self.submit([self._point(architecture, workload, seed)])[0]

    def aggregate(self, architecture: str, workload: str) -> AggregateResult:
        points = [self._point(architecture, workload, seed)
                  for seed in self.seeds]
        agg = AggregateResult(architecture, workload)
        for result in self.submit(points):
            agg.add(result)
        return agg

    def prefetch(self, architectures: Sequence[str],
                 workloads: Sequence[str]) -> None:
        """Submit a whole (architecture, workload, seed) grid as one
        batch so the executor can fan it out; results land in the memo
        and subsequent :meth:`aggregate` calls are cache hits."""
        self.submit(grid_points(self.config, self.settings, architectures,
                                workloads, self.seeds))

    def prefetch_custom(self, specs: Sequence[Tuple[str, SystemConfig,
                                                    str, str]]) -> None:
        """Batch custom run points: ``specs`` holds
        (name, config, arch, workload) tuples, expanded over the
        session's seeds."""
        self.submit([self._custom_point(name, config, arch, wl, seed)
                     for name, config, arch, wl in specs
                     for seed in self.seeds])

    def matrix(self, architectures: Sequence[str], workloads: Sequence[str]
               ) -> Dict[Tuple[str, str], AggregateResult]:
        """All (architecture, workload) aggregates, trace-paired."""
        self.prefetch(architectures, workloads)
        return {(arch, wl): self.aggregate(arch, wl)
                for wl in workloads for arch in architectures}

    def run_custom(self, name: str, config: SystemConfig, arch: str,
                   workload: str, seed: int) -> SimResult:
        """Run the registry architecture ``arch`` under a non-default
        ``config`` (parameter ablations). ``name`` keys the caches and
        labels the result, so it must encode the parameters."""
        return self.submit([self._custom_point(name, config, arch,
                                               workload, seed)])[0]

    def aggregate_custom(self, name: str, config: SystemConfig, arch: str,
                         workload: str) -> AggregateResult:
        points = [self._custom_point(name, config, arch, workload, seed)
                  for seed in self.seeds]
        agg = AggregateResult(name, workload)
        for result in self.submit(points):
            agg.add(result)
        return agg

    def clear_run_cache(self) -> None:
        """Drop the in-process memo (the on-disk cache is unaffected;
        use ``repro-cache clear`` for that)."""
        self._run_cache.clear()
