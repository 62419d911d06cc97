"""Trace persistence: save/load round trips and replay equivalence."""

import importlib.util
import os

import pytest

from repro.sim.cpu import Trace, TraceItem, TraceKind
from repro.workloads.base import TraceGenerator
from repro.workloads.registry import get_workload
from repro.workloads.tracefile import load_traces, save_traces, trace_info


def small_traces():
    spec = get_workload("gcc-4").capacity_scaled(8).scaled(150)
    return [list(t) if t is not None else None
            for t in TraceGenerator(spec, seed=9).traces(8)]


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        traces = small_traces()
        path = tmp_path / "t.trace.gz"
        save_traces(path, traces, workload="gcc-4", seed=9)
        loaded = load_traces(path)
        assert loaded == traces

    def test_idle_cores_preserved(self, tmp_path):
        traces = small_traces()
        path = tmp_path / "t.trace.gz"
        save_traces(path, traces)
        loaded = load_traces(path)
        for original, restored in zip(traces, loaded):
            assert (original is None) == (restored is None)

    def test_all_kinds_roundtrip(self, tmp_path):
        items = [TraceItem(3, 0xABC, TraceKind.LOAD),
                 TraceItem(0, 0xDEF, TraceKind.STORE),
                 TraceItem(7, 1 << 40, TraceKind.DEP_LOAD)]
        path = tmp_path / "k.trace.gz"
        save_traces(path, [items] + [None] * 7)
        assert load_traces(path)[0] == items

    def test_info_reads_header_only(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        save_traces(path, small_traces(), workload="gcc-4", seed=9)
        info = trace_info(path)
        assert info == {"workload": "gcc-4", "seed": 9, "cores": 8}

    def test_rejects_foreign_files(self, tmp_path):
        import gzip
        path = tmp_path / "bogus.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("something else\n")
        with pytest.raises(ValueError):
            load_traces(path)


def _pin_generation():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "pin_generation", os.path.join(root, "tools", "pin_generation.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExportDigest:
    """An exported trace file holds exactly the materialized trace,
    by the pin tool's field-value digest."""

    def test_saved_columns_reload_with_the_same_digest(self, tmp_path):
        from repro.common.config import scaled_config
        from repro.harness.executor import materialize_traces
        from repro.harness.runner import RunSettings

        trace_digest = _pin_generation().trace_digest
        settings = RunSettings(refs_per_core=120, warmup_refs_per_core=30)
        traces = materialize_traces(scaled_config(8), settings, "oltp", 3)
        assert all(isinstance(t, Trace) for t in traces if t is not None)
        path = tmp_path / "oltp.trace.gz"
        save_traces(path, traces, workload="oltp", seed=3)
        assert trace_digest(load_traces(path)) == trace_digest(traces)

    def test_cli_export_matches_materialized_digest(self, tmp_path):
        from repro.common.config import scaled_config
        from repro.common.rng import perturbed_seeds
        from repro.harness.cli import main as cli_main
        from repro.harness.executor import materialize_traces
        from repro.harness.runner import RunSettings

        trace_digest = _pin_generation().trace_digest
        out = tmp_path / "gzip.trace.gz"
        assert cli_main(["trace", "--workload", "gzip-4", "--refs", "100",
                         "--warmup", "20", "--seeds", "1", "--scale", "8",
                         "--out", str(out)]) == 0
        settings = RunSettings(capacity_factor=8, refs_per_core=100,
                               warmup_refs_per_core=20, num_seeds=1)
        seed = perturbed_seeds(settings.base_seed, 1)[0]
        expected = materialize_traces(scaled_config(8), settings,
                                      "gzip-4", seed)
        assert trace_info(out)["seed"] == seed
        assert trace_digest(load_traces(out)) == trace_digest(expected)


class TestReplayEquivalence:
    def test_replayed_trace_gives_identical_run(self, tmp_path):
        from repro.architectures.registry import make_architecture
        from repro.common.config import scaled_config
        from repro.sim.engine import SimulationEngine
        from repro.sim.system import CmpSystem

        config = scaled_config(8)
        traces = small_traces()
        path = tmp_path / "replay.trace.gz"
        save_traces(path, traces)

        def run(per_core):
            system = CmpSystem(config, make_architecture("esp-nuca", config))
            engine = SimulationEngine(
                system, [iter(t) if t is not None else None
                         for t in per_core])
            return engine.run()

        live = run(traces)
        replayed = run(load_traces(path))
        assert live.cycles == replayed.cycles
        assert live.supplier_count == replayed.supplier_count
