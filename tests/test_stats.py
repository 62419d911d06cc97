"""Statistics primitives used by the evaluation harness, and the
``esp-nuca stats`` rendering of a run's registry snapshot."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    RunningStats,
    confidence_interval95,
    geometric_mean,
    mean,
    normalized,
    sample_variance,
    variance,
)
from repro.harness import cli, executor
from repro.harness.reporting import format_run_stats, format_run_stats_json
from repro.harness.runcache import RunCache

FLOATS = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_population_variance(self):
        assert variance([2.0, 2.0, 2.0]) == 0.0
        assert variance([1.0, 3.0]) == 1.0

    def test_sample_variance(self):
        assert sample_variance([1.0, 3.0]) == 2.0
        assert sample_variance([5.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            variance([])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_normalized(self):
        assert normalized([2.0, 4.0], 2.0) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalized([1.0], 0.0)


class TestConfidenceInterval:
    def test_single_sample_zero_width(self):
        assert confidence_interval95([1.0]) == 0.0

    def test_identical_samples_zero_width(self):
        assert confidence_interval95([3.0] * 5) == 0.0

    def test_two_samples_uses_wide_t(self):
        # dof=1 -> t = 12.706
        ci = confidence_interval95([0.0, 2.0])
        assert ci == pytest.approx(12.706 * math.sqrt(2.0 / 2))

    def test_shrinks_with_more_samples(self):
        narrow = confidence_interval95([0.0, 2.0] * 10)
        wide = confidence_interval95([0.0, 2.0])
        assert narrow < wide


class TestRunningStats:
    def test_matches_batch_computation(self):
        values = [1.5, 2.5, -3.0, 0.25, 9.0]
        rs = RunningStats()
        rs.extend(values)
        assert rs.mean == pytest.approx(mean(values))
        assert rs.variance == pytest.approx(variance(values))
        assert rs.minimum == -3.0 and rs.maximum == 9.0

    @given(st.lists(FLOATS, min_size=1, max_size=50),
           st.lists(FLOATS, min_size=1, max_size=50))
    def test_merge_equals_concatenation(self, a, b):
        merged = RunningStats()
        merged.extend(a)
        other = RunningStats()
        other.extend(b)
        merged.merge(other)
        assert merged.count == len(a) + len(b)
        assert merged.mean == pytest.approx(mean(a + b), rel=1e-6, abs=1e-6)
        assert merged.variance == pytest.approx(variance(a + b),
                                                rel=1e-6, abs=1e-3)

    def test_merge_into_empty(self):
        empty = RunningStats()
        other = RunningStats()
        other.extend([1.0, 2.0])
        empty.merge(other)
        assert empty.count == 2 and empty.mean == 1.5

    def test_no_samples_raises(self):
        with pytest.raises(ValueError):
            _ = RunningStats().mean


class TestRunStatsFromCache:
    """A cache hit carries its ``stats`` tree encoded until first read;
    ``esp-nuca stats`` must render it exactly as a fresh result."""

    ARGS = ["stats", "--arch", "esp-nuca", "--workload", "apache",
            "--seeds", "1", "--refs", "300", "--warmup", "100"]

    def test_text_and_json_of_a_cached_result_match_a_fresh_one(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        simulated = []
        real = executor.simulate_point
        monkeypatch.setattr(executor, "simulate_point",
                            lambda point: simulated.append(point) or
                            real(point))
        assert cli.main(self.ARGS) == 0  # simulates and fills the cache
        capsys.readouterr()
        out = {}
        for mode, flags in (("fresh", ["--no-cache"]), ("cached", [])):
            for extra in ([], ["--json"]):
                assert cli.main(self.ARGS + flags + extra) == 0
                out[mode, bool(extra)] = capsys.readouterr().out
        assert len(simulated) == 3  # the fill and the two --no-cache runs
        assert RunCache.from_env().stats()["entries"] == 1
        assert out["cached", False] == out["fresh", False]
        assert out["cached", True] == out["fresh", True]
        assert "-- L2 banks --" in out["fresh", False]

    def test_memo_hit_renders_like_the_result_it_stored(self, tmp_path):
        from tests.test_conservation import run_workload

        _, fresh = run_workload("esp-nuca", refs=300)
        cache = RunCache(root=str(tmp_path / "cache"))
        cache.put("ab" * 32, fresh)
        hit = cache.get("ab" * 32)
        assert format_run_stats_json(hit) == format_run_stats_json(fresh)
        assert format_run_stats(cache.get("ab" * 32)) == \
            format_run_stats(fresh)
