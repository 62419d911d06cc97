"""Timeline instrumentation (Figure 3 monitoring view)."""

import pytest

from repro.core.timeline import TimelineRecorder
from repro.sim.cpu import TraceItem, TraceKind
from repro.sim.engine import SimulationEngine

from tests.util import build, tiny_config


def run_with_recorder(trace_blocks, period=32):
    system = build("esp-nuca", check_tokens=False)
    trace = [TraceItem(gap=1, block=b, kind=TraceKind.LOAD)
             for b in trace_blocks]
    traces = [iter(trace)] + [None] * 7
    with TimelineRecorder(system.architecture, period=period) as recorder:
        SimulationEngine(system, traces).run()
    return recorder


class TestRecording:
    def test_samples_accumulate(self):
        blocks = list(range(0x100, 0x140)) * 30
        recorder = run_with_recorder(blocks, period=16)
        assert len(recorder.samples) >= 2
        assert recorder.samples[0].events == 16

    def test_sample_fields_in_range(self):
        blocks = list(range(0x100, 0x140)) * 30
        recorder = run_with_recorder(blocks)
        for sample in recorder.samples:
            assert 0.0 <= sample.hr_reference <= 1.0
            assert 0 <= sample.average_nmax <= 15
            assert len(sample.per_bank_nmax) == 32

    def test_snapshot_every_period(self):
        blocks = list(range(0x100, 0x140)) * 30
        recorder = run_with_recorder(blocks, period=16)
        assert [s.events for s in recorder.samples] == \
            [16 * (i + 1) for i in range(len(recorder.samples))]

    def test_requires_dueling_variant(self):
        system = build("esp-nuca-flat")
        with pytest.raises(ValueError):
            TimelineRecorder(system.architecture)

    def test_requires_bound_architecture(self):
        from repro.core.esp_nuca import EspNuca

        with pytest.raises(ValueError):
            TimelineRecorder(EspNuca(tiny_config()))

    def test_double_install_is_idempotent(self):
        def samples(nested):
            system = build("esp-nuca", check_tokens=False)
            recorder = TimelineRecorder(system.architecture, period=1)
            with recorder as outer:
                if nested:
                    with recorder as inner:
                        assert inner is outer
                        assert recorder.installed
                        system.access(0, 0x100, False, 0)
                else:
                    system.access(0, 0x100, False, 0)
            return [s.events for s in recorder.samples]

        # Entering an installed recorder again subscribes nothing more:
        # every monitored event is counted once.
        assert samples(nested=True) == samples(nested=False) != []

    def test_uninstall_is_idempotent_and_stops_recording(self):
        system = build("esp-nuca", check_tokens=False)
        recorder = TimelineRecorder(system.architecture, period=1)
        with recorder:
            with recorder:
                system.access(0, 0x100, False, 0)
            seen = len(recorder.samples)
            assert seen
            assert not recorder.installed  # the inner exit detached
            system.access(0, 0x200, False, 1000)
        # The outer exit detaches a second time: a no-op.
        assert not recorder.installed
        assert not system.tracer.enabled  # private tracer restored
        system.access(0, 0x300, False, 2000)
        assert len(recorder.samples) == seen

    def test_context_manager_detaches_on_exception(self):
        system = build("esp-nuca", check_tokens=False)
        recorder = TimelineRecorder(system.architecture, period=1)
        with pytest.raises(RuntimeError):
            with recorder:
                system.access(0, 0x100, False, 0)
                raise RuntimeError("mid-run failure")
        assert not recorder.installed
        assert not system.tracer.enabled  # private tracer restored


class TestRendering:
    def test_sparkline_shape(self):
        blocks = list(range(0x100, 0x180)) * 20
        recorder = run_with_recorder(blocks, period=16)
        line = recorder.sparkline("average_nmax")
        assert len(line) == len(recorder.samples)
        assert set(line) <= set("▁▂▃▄▅▆▇█")

    def test_sparkline_downsampling(self):
        blocks = list(range(0x100, 0x180)) * 20
        recorder = run_with_recorder(blocks, period=8)
        line = recorder.sparkline("average_nmax", width=10)
        assert len(line) <= 10

    def test_format_mentions_all_monitors(self):
        blocks = list(range(0x100, 0x140)) * 30
        text = run_with_recorder(blocks).format()
        assert "HR_ref" in text and "HR_conv" in text and "HR_expl" in text

    def test_empty_recorder_formats(self):
        system = build("esp-nuca")
        recorder = TimelineRecorder(system.architecture)
        assert recorder.format() == "no samples"
        assert recorder.sparkline() == ""

    def test_sparkline_flat_series_is_well_defined(self):
        system = build("esp-nuca")
        recorder = TimelineRecorder(system.architecture)
        from repro.core.timeline import TimelineSample

        recorder.samples = [TimelineSample(events=i, average_nmax=2.0,
                                           hr_reference=0.5,
                                           hr_conventional=0.5,
                                           hr_explorer=0.5)
                            for i in range(4)]
        assert recorder.sparkline("average_nmax") == "▁▁▁▁"
