"""Shared benchmark infrastructure.

All figure benchmarks share one session-scoped :class:`ExperimentRunner`
so runs are paired and cached across figures (Figures 6, 7 and 8 reuse
the same transactional runs, exactly like the paper's methodology). The
runner submits run points through the parallel executor, so the suite
also shares the *persistent* cache under ``.repro_cache/``: a second
``pytest benchmarks/`` invocation at the same fidelity re-simulates
nothing (see docs/harness.md).

Fidelity knobs (environment):

* ``REPRO_BENCH_REFS``    measured references per core (default 8000)
* ``REPRO_BENCH_WARMUP``  warm-up references per core (default 6000)
* ``REPRO_BENCH_SEEDS``   perturbed runs per data point (default 1)
* ``REPRO_SCALE``         capacity scale factor (default 8)
* ``REPRO_JOBS``          worker processes (default CPU count; 1 = serial)
* ``REPRO_CACHE``         0 disables the persistent cache
* ``REPRO_CACHE_DIR``     cache location (default ``.repro_cache``)

The defaults keep ``pytest benchmarks/ --benchmark-only`` in the
tens-of-minutes range cold; raise the knobs for publication-fidelity
runs (see EXPERIMENTS.md for the settings used there).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import pytest

from repro.harness.executor import Executor
from repro.harness.runcache import RunCache, env_int
from repro.harness.runner import ExperimentRunner, RunSettings


@pytest.fixture(scope="session")
def runner():
    settings = RunSettings(
        capacity_factor=env_int("REPRO_SCALE", 8, minimum=1),
        refs_per_core=env_int("REPRO_BENCH_REFS", 8_000, minimum=1),
        warmup_refs_per_core=env_int("REPRO_BENCH_WARMUP", 6_000, minimum=0),
        num_seeds=env_int("REPRO_BENCH_SEEDS", 1, minimum=1),
    )
    executor = Executor(cache=RunCache.from_env())
    return ExperimentRunner(settings, executor=executor)


def emit(report) -> None:
    """Print a report so the series appear in the benchmark log."""
    print()
    print(report.format())
