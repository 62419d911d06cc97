"""Access tracer (protocol debugging aid)."""

import pytest

from repro.sim.request import Supplier
from repro.sim.tracing import AccessTracer

from tests.util import build


class TestTracer:
    def test_records_events_with_outcomes(self):
        system = build("sp-nuca", check_tokens=False)
        with AccessTracer(system) as tracer:
            system.access(0, 0x123, False, 0)
            system.access(0, 0x123, False, 1000)
        assert len(tracer.events) == 2
        assert tracer.events[0].supplier is Supplier.OFFCHIP
        assert tracer.events[1].supplier is Supplier.L1_LOCAL
        assert tracer.events[0].latency > tracer.events[1].latency

    def test_classification_captured(self):
        system = build("sp-nuca", check_tokens=False)
        with AccessTracer(system) as tracer:
            system.access(2, 0x44, False, 0)
        assert tracer.events[0].classification == "private"

    def test_filters(self):
        system = build("shared", check_tokens=False)
        with AccessTracer(system, core_filter=lambda c: c == 1) as tracer:
            system.access(0, 0x1, False, 0)
            system.access(1, 0x2, False, 0)
        assert len(tracer.events) == 1
        assert tracer.events[0].core == 1

    def test_limit_drops_and_reports(self):
        system = build("shared", check_tokens=False)
        with AccessTracer(system, limit=2) as tracer:
            for i in range(5):
                system.access(0, 0x100 + i, False, i * 10)
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        assert "dropped" in tracer.format()

    def test_uninstall_restores(self):
        system = build("shared", check_tokens=False)
        with AccessTracer(system) as tracer:
            assert system.tracer.enabled  # listener-only tracer in place
        assert not system.tracer.enabled  # back to the null tracer
        system.access(0, 0x1, False, 0)
        assert tracer.events == []

    def test_context_manager_detaches_on_exception(self):
        system = build("shared", check_tokens=False)
        tracer = AccessTracer(system)
        with pytest.raises(RuntimeError):
            with tracer:
                system.access(0, 0x1, False, 0)
                raise RuntimeError("mid-trace failure")
        assert not system.tracer.enabled
        assert len(tracer.events) == 1
        system.access(0, 0x2, False, 100)
        assert len(tracer.events) == 1  # detached: no longer recording

    def test_queries_and_format(self):
        system = build("shared", check_tokens=False)
        with AccessTracer(system) as tracer:
            system.access(0, 0xAA, True, 0)
            system.access(3, 0xBB, False, 50)
        assert len(tracer.for_block(0xAA)) == 1
        assert len(tracer.by_supplier(Supplier.OFFCHIP)) == 2
        text = tracer.format(last=1)
        assert "bb" in text and "core 3" in text
