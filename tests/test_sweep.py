"""Parameter-sweep utility."""

import pytest

from repro.common.config import SystemConfig
from repro.harness.runner import ExperimentRunner, RunSettings
from repro.harness.sweep import Sweep, set_config_field


class TestSetConfigField:
    def test_top_level_field(self):
        cfg = set_config_field(SystemConfig(), "num_cores", 8)
        assert cfg.num_cores == 8

    def test_nested_field(self):
        cfg = set_config_field(SystemConfig(), "esp.degradation_shift", 4)
        assert cfg.esp.degradation_shift == 4
        # Everything else untouched.
        assert cfg.l2.size == SystemConfig().l2.size

    def test_doubly_nested_rejected_on_bad_path(self):
        with pytest.raises(AttributeError):
            set_config_field(SystemConfig(), "esp.bogus_field", 1)

    def test_cannot_descend_into_scalar(self):
        with pytest.raises(ValueError):
            set_config_field(SystemConfig(), "num_cores.x", 1)

    def test_original_unmodified(self):
        base = SystemConfig()
        set_config_field(base, "mem.latency", 100)
        assert base.mem.latency == 350


class TestSweepRun:
    def test_sweep_produces_one_series_per_value(self):
        runner = ExperimentRunner(RunSettings(
            capacity_factor=8, refs_per_core=400,
            warmup_refs_per_core=100, num_seeds=1))
        sweep = Sweep(runner, "esp.degradation_shift", [3, 5], "esp-nuca")
        report = sweep.run(["gzip-4"])
        assert set(report.series) == {"esp.degradation_shift=3",
                                      "esp.degradation_shift=5"}
        assert report.title.startswith("esp-nuca vs esp.degradation_shift")
        for values in report.series.values():
            assert len(values) == 1 and values[0] > 0
