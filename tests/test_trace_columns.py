"""``Trace``: one core's materialized trace as typed columns."""

import sys

import pytest

from repro.common.config import scaled_config
from repro.harness.executor import materialize_traces
from repro.harness.runner import RunSettings
from repro.sim.cpu import KINDS, Trace, TraceItem, TraceKind, as_trace
from repro.workloads.base import TraceGenerator
from repro.workloads.registry import get_workload

ITEMS = [TraceItem(3, 0xABC, TraceKind.LOAD),
         TraceItem(0, 0xDEF, TraceKind.STORE),
         TraceItem(7, 1 << 42, TraceKind.DEP_LOAD),
         TraceItem(1, 0xABC, TraceKind.STORE)]


def column_bytes(trace: Trace) -> int:
    return sum(sys.getsizeof(column) for column in
               (trace.gaps, trace.blocks, trace.kinds, trace.writes,
                trace.deps))


class TestStorage:
    @pytest.mark.parametrize("workload", ["apache", "art-4"])
    def test_materialized_set_stores_at_most_24_bytes_per_ref(
            self, workload):
        """A list of ``TraceItem`` tuples costs about 85-105 bytes a
        reference; the columns, with both derived flags, about 19."""
        settings = RunSettings(refs_per_core=500, warmup_refs_per_core=125)
        traces = [t for t in materialize_traces(scaled_config(8), settings,
                                                workload, 1)
                  if t is not None]
        refs = sum(len(t) for t in traces)
        assert refs >= 2500
        assert sum(column_bytes(t) for t in traces) / refs <= 24


class TestColumns:
    def test_from_items_round_trips(self):
        trace = Trace.from_items(ITEMS)
        assert list(trace) == ITEMS
        assert all(type(item) is TraceItem for item in trace)
        assert [trace[i] for i in range(len(trace))] == ITEMS
        assert len(trace) == 4

    def test_columns_hold_codes(self):
        trace = Trace.from_items(iter(ITEMS))
        assert list(trace.gaps) == [3, 0, 7, 1]
        assert list(trace.blocks) == [0xABC, 0xDEF, 1 << 42, 0xABC]
        assert [KINDS[code] for code in trace.kinds] == [
            item.kind for item in ITEMS]
        assert list(trace.writes) == [0, 1, 0, 1]
        assert list(trace.deps) == [0, 0, 1, 0]

    def test_derived_flags_are_built_once(self):
        trace = Trace.from_items(ITEMS)
        assert trace.writes is trace.writes
        assert trace.deps is trace.deps

    def test_iteration_does_not_consume(self):
        trace = Trace.from_items(ITEMS)
        assert list(trace) == list(trace) == ITEMS

    def test_as_trace_adopts_a_trace(self):
        trace = Trace.from_items(ITEMS)
        assert as_trace(trace) is trace
        assert list(as_trace(ITEMS)) == ITEMS
        assert list(as_trace(iter(ITEMS))) == ITEMS

    def test_columns_must_agree_in_length(self):
        trace = Trace.from_items(ITEMS)
        with pytest.raises(ValueError):
            Trace(trace.gaps, trace.blocks, trace.kinds[:-1])

    def test_generator_iterators_read_the_columns(self):
        spec = get_workload("oltp").capacity_scaled(8).scaled(200)
        generator = TraceGenerator(spec, seed=4)
        columns = generator.materialize(8)
        iterators = generator.traces(8)
        for core, (trace, items) in enumerate(zip(columns, iterators)):
            if trace is None:
                assert items is None
                continue
            assert list(items) == list(trace)
            assert list(generator.core_trace(core)) == list(trace)
