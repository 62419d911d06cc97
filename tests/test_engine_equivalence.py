"""Cross-engine equivalence: the vectorized engine must reproduce the
reference engine byte for byte (docs/engine.md, "Oracle guarantees").

Layers, cheapest first:

* **fuzz grid** — every architecture family in the oracle registry,
  seeded random workloads, full ``to_dict()`` equality (flat result
  fields *and* the hierarchical stats snapshot);
* **real workloads** — trace-generator workloads on representative
  architectures, as materialized ``Trace`` columns;
* **trace forms** — each engine gives the same result for a trace as
  ``Trace`` columns and as a ``TraceItem`` list;
* **oracle sweep under both engines** — the differential oracles hold
  regardless of engine selection;
* **conservation on the vectorized engine** — the per-component sums
  that back the stats tables;
* **fallback path** — checker-enabled runs take the reference schedule
  inside the vectorized engine and still match;
* **bounded-commit tie** — a directed two-core trace where a local
  read ties with another core's write on the clock;
* **long local runs** — a high-hit trace;
* **selection plumbing** — ``RunSettings.engine`` is honored through
  the executor (serial and pooled take the same ``simulate_point``
  seam) and validated at construction.
"""

from __future__ import annotations

import pytest

from repro.architectures.registry import make_architecture
from repro.check.oracles import (FUZZ_ARCHITECTURES, fuzz_traces,
                                 oracle_flat_unbounded, oracle_pinned_zero,
                                 small_config)
from repro.common.config import scaled_config
from repro.common.rng import substream
from repro.harness.executor import Executor, RunPoint
from repro.harness.runcache import RunCache
from repro.harness.runner import RunSettings
from repro.sim.cpu import Trace, TraceItem, TraceKind
from repro.sim.engines import (DEFAULT_ENGINE, ENGINES, build_engine,
                               resolve_engine)
from repro.sim.request import Supplier
from repro.sim.system import CmpSystem
from repro.sim.tracing import AccessTracer
from repro.workloads.base import TraceGenerator
from repro.workloads.registry import get_workload


def run_engine(engine: str, arch: str, traces, config) -> dict:
    system = CmpSystem(config, make_architecture(arch, config))
    return build_engine(system, traces, engine).run().to_dict()


def workload_traces(workload: str, seed: int, refs: int, config,
                    form: str = "items"):
    """The workload's per-core traces as ``Trace`` columns
    (``form="trace"``) or as ``TraceItem`` lists (``"items"``)."""
    spec = get_workload(workload).capacity_scaled(8).scaled(refs)
    traces = TraceGenerator(spec, seed).materialize(config.num_cores)
    if form == "trace":
        return traces
    return [list(t) if t is not None else None for t in traces]


def high_hit_traces(config, refs: int, seed: int):
    """Each core cycles over a private working set of a quarter of its
    L1 (the 0.25 point of ``locality_sweep`` in
    benchmarks/bench_vectorized.py), one reference in four a store.
    One reference in 64 goes to an 8-block pool every core shares and
    one in 256 to a fresh block, so the long local runs are cut by
    misses, evictions and token losses."""
    l1_blocks = config.l1.size // config.l1.block_size
    working_set = l1_blocks // 4
    traces = []
    for core in range(config.num_cores):
        rng = substream(seed, f"high-hit-core{core}")
        base = 0x400000 + core * 0x40000
        items = []
        for n in range(refs):
            pick = rng.randrange(256)
            if pick == 0:
                block = base + 0x1000 + n
            elif pick < 5:
                block = 0x100 + rng.randrange(8)
            else:
                block = base + rng.randrange(working_set)
            items.append(TraceItem(
                gap=rng.randrange(3), block=block,
                kind=(TraceKind.STORE if rng.randrange(4) == 0
                      else TraceKind.LOAD)))
        traces.append(items)
    return traces


def assert_identical(ref: dict, vec: dict, label: str) -> None:
    if ref == vec:
        return
    diffs = [k for k in ref if ref.get(k) != vec.get(k)]
    raise AssertionError(
        f"{label}: engines diverged in fields {diffs[:6]} "
        f"(e.g. {diffs[0]}: reference={ref[diffs[0]]!r} "
        f"vectorized={vec[diffs[0]]!r})")


class TestFuzzGrid:
    """Every policy family, random workloads, full snapshot equality."""

    @pytest.mark.parametrize("arch", FUZZ_ARCHITECTURES)
    def test_architecture(self, arch: str) -> None:
        config = small_config(checks=False)
        for seed in (11, 12):
            traces = fuzz_traces(config, seed, refs_per_core=150)
            ref = run_engine("reference", arch, traces, config)
            vec = run_engine("vectorized", arch, traces, config)
            assert_identical(ref, vec, f"{arch} seed {seed}")


class TestRealWorkloads:
    @pytest.mark.parametrize("arch,workload", [
        ("esp-nuca", "apache"), ("esp-nuca", "oltp"), ("shared", "apache"),
        ("sp-nuca", "CG"),
    ])
    def test_workload(self, arch: str, workload: str) -> None:
        config = scaled_config(8)
        traces = workload_traces(workload, seed=1, refs=800, config=config,
                                 form="trace")
        ref = run_engine("reference", arch, traces, config)
        vec = run_engine("vectorized", arch, traces, config)
        assert_identical(ref, vec, f"{arch}/{workload}")


class TestTraceForms:
    """Both engines give one result whether a trace arrives as
    ``Trace`` columns or as a ``TraceItem`` list, and a ``Trace`` is
    left intact for the next point that replays it."""

    @pytest.mark.parametrize("arch", ["esp-nuca", "private"])
    def test_trace_and_item_list_agree(self, arch: str) -> None:
        config = scaled_config(8)
        columns = workload_traces("oltp", seed=3, refs=600, config=config,
                                  form="trace")
        items = [list(t) if t is not None else None for t in columns]
        results = {(engine, form): run_engine(engine, arch, traces, config)
                   for engine in ENGINES
                   for form, traces in (("trace", columns),
                                        ("items", items))}
        expected = results["reference", "items"]
        for (engine, form), result in results.items():
            assert_identical(expected, result, f"{arch}, {engine}, {form}")
        assert all(isinstance(t, Trace) for t in columns if t is not None)
        assert [list(t) if t is not None else None
                for t in columns] == items

    def test_high_hit_trace_as_columns(self) -> None:
        config = scaled_config(8)
        items = high_hit_traces(config, refs=600, seed=5)
        columns = [Trace.from_items(t) for t in items]
        expected = run_engine("reference", "esp-nuca", items, config)
        for engine in ENGINES:
            assert_identical(expected,
                             run_engine(engine, "esp-nuca", columns, config),
                             f"{engine}, high-hit columns")


class TestOraclesUnderBothEngines:
    """The differential oracles are engine-independent: running them
    under each engine *is* the cross-engine check for the oracle grid
    (tools/check_sweep.py does the full sweep in CI)."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pinned_zero(self, engine: str, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE", engine)
        report = oracle_pinned_zero(seed=5, refs_per_core=200)
        assert report.ok, str(report)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_flat_unbounded(self, engine: str, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE", engine)
        report = oracle_flat_unbounded(seed=5, refs_per_core=200)
        assert report.ok, str(report)


class TestConservationOnVectorized:
    """The stats-table sums (tests/test_conservation.py) hold for runs
    produced by the vectorized engine."""

    @pytest.fixture(scope="class")
    def result(self):
        config = scaled_config(8)
        traces = workload_traces("apache", seed=1, refs=1200, config=config)
        system = CmpSystem(config, make_architecture("esp-nuca", config))
        return build_engine(system, traces, "vectorized").run()

    def test_bank_hits_sum_to_l2_hits(self, result) -> None:
        banks = result.stats["l2"]
        hits = sum(sum(bank["hits"].values()) for bank in banks.values())
        lookups = hits + sum(bank["misses"] for bank in banks.values())
        assert hits == result.l2_hits
        assert lookups == result.l2_demand_lookups

    def test_l1_cores_sum_to_l1_totals(self, result) -> None:
        cores = result.stats["l1"]
        assert sum(c["hits"] for c in cores.values()) == result.l1_hits
        assert sum(c["misses"] for c in cores.values()) == result.l1_misses

    def test_supplier_counts_cover_every_access(self, result) -> None:
        assert (sum(result.supplier_count.values())
                == result.memory_accesses)

    def test_noc_links_sum_to_totals(self, result) -> None:
        links = result.stats["noc"]["links"]
        # Each message increments one link counter per hop traversed.
        assert (sum(l["messages"] for l in links.values())
                == result.stats["noc"]["hops"])
        assert (sum(l["queueing"] for l in links.values())
                == result.noc_queueing)


class TestFallbackPath:
    def test_checker_run_falls_back_and_matches(self) -> None:
        """With invariant checking on, the vectorized engine takes the
        reference schedule — and still matches the reference engine."""
        config = small_config(checks=True, sample=16)
        traces = fuzz_traces(config, seed=7, refs_per_core=120)
        ref = run_engine("reference", "esp-nuca", traces, config)
        vec = run_engine("vectorized", "esp-nuca", traces, config)
        assert_identical(ref, vec, "checked esp-nuca")


class TestBoundedCommitTie:
    """A local run commits only the references whose key ``(clock,
    core)`` orders strictly before the owner's: on an exact clock tie
    the lower core id goes first.

    Core 1 fetches a block, then reads it twice more, both times at
    clock 1; core 0 writes the same block at clock 1 and needs core
    1's token to do so. The first of those reads is keyed by the clock
    before its gap, (0, 1), so it commits from core 1's L1 ahead of the
    write; the second is keyed (1, 1), ties with the write's (1, 0),
    orders after it and misses. Committing it as part of core 1's
    local run would count it as a local hit."""

    def test_exact_clock_tie_orders_by_core_id(self) -> None:
        config = small_config(checks=False)
        block = 0x100
        load, store = TraceKind.LOAD, TraceKind.STORE
        traces = [None] * config.num_cores
        traces[0] = [TraceItem(1, block, load), TraceItem(0, block, store)]
        traces[1] = [TraceItem(0, block, load), TraceItem(1, block, load),
                     TraceItem(0, block, load)]
        system = CmpSystem(config, make_architecture("esp-nuca", config))
        with AccessTracer(system) as tracer:
            ref = build_engine(system, traces, "reference").run().to_dict()
        write, read = [(e.issue, e.core, e.supplier)
                       for e in tracer.events[-2:]]
        assert write == (1, 0, Supplier.L1_LOCAL)
        assert read == (1, 1, Supplier.L1_REMOTE)
        vec = run_engine("vectorized", "esp-nuca", traces, config)
        assert_identical(ref, vec, "esp-nuca, exact clock tie")


class TestLongLocalRuns:
    """High-hit phases commit local runs hundreds of references long,
    cut by misses, evictions and token losses."""

    def test_high_hit_trace(self) -> None:
        config = scaled_config(8)
        traces = high_hit_traces(config, refs=2000, seed=9)
        ref = run_engine("reference", "esp-nuca", traces, config)
        vec = run_engine("vectorized", "esp-nuca", traces, config)
        assert ref["l1_hits"] > 0.95 * (ref["l1_hits"] + ref["l1_misses"])
        assert_identical(ref, vec, "esp-nuca, high-hit trace")


class TestSelectionPlumbing:
    def test_resolve_engine_defaults(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == DEFAULT_ENGINE
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine() == "reference"
        assert resolve_engine("vectorized") == "vectorized"  # arg wins

    def test_resolve_engine_rejects_typos(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE", "vectorised")
        with pytest.raises(ValueError, match="vectorised"):
            resolve_engine()

    def test_run_settings_validates_engine(self) -> None:
        with pytest.raises(ValueError, match="bogus"):
            RunSettings(engine="bogus")
        assert RunSettings(engine="reference").quick().engine == "reference"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_executor_honors_settings_engine(self, engine: str,
                                             tmp_path) -> None:
        """The serial executor path (the same ``simulate_point`` the
        pool workers run) builds the engine named by the point."""
        settings = RunSettings(capacity_factor=8, refs_per_core=300,
                               warmup_refs_per_core=0, num_seeds=1,
                               engine=engine)
        point = RunPoint(name="esp-nuca", workload="apache", seed=1,
                         config=scaled_config(8), settings=settings,
                         arch="esp-nuca")
        executor = Executor(jobs=1, cache=RunCache(enabled=False))
        result = executor.run([point])[0]
        assert result.memory_accesses > 0

    def test_engines_agree_through_executor(self) -> None:
        """End to end through the executor seam: the two engines'
        results are interchangeable (which is why the run cache is not
        keyed by engine)."""
        results = {}
        for engine in ENGINES:
            settings = RunSettings(capacity_factor=8, refs_per_core=300,
                                   warmup_refs_per_core=100, num_seeds=1,
                                   engine=engine)
            point = RunPoint(name="esp-nuca", workload="oltp", seed=2,
                             config=scaled_config(8), settings=settings,
                             arch="esp-nuca")
            executor = Executor(jobs=1, cache=RunCache(enabled=False))
            results[engine] = executor.run([point])[0].to_dict()
        assert_identical(results["reference"], results["vectorized"],
                         "executor esp-nuca/oltp")
