"""Executor and persistent run cache: parallel == serial, cache hits,
versioned invalidation, validated environment knobs."""

import dataclasses
import os

import pytest

from repro.common.config import scaled_config
from repro.harness.executor import Executor, RunPoint, default_jobs
from repro.harness.runcache import RunCache, cache_key, env_int
from repro.harness.runcache import main as cache_main
from repro.harness.runner import ExperimentRunner, RunSettings
from repro.sim.results import SimResult

QUICK = RunSettings(capacity_factor=8, refs_per_core=400,
                    warmup_refs_per_core=100, num_seeds=2)
GRID_ARCHS = ["shared", "private", "esp-nuca"]
GRID_WORKLOADS = ["apache", "gcc-4"]


def make_runner(cache_dir, jobs, settings=QUICK):
    cache = (RunCache(root=str(cache_dir)) if cache_dir is not None
             else RunCache(enabled=False))
    return ExperimentRunner(settings, executor=Executor(jobs=jobs,
                                                        cache=cache))


@pytest.fixture(scope="module")
def serial_grid():
    """The reference results: serial path, no persistent cache."""
    runner = make_runner(None, 1)
    runner.matrix(GRID_ARCHS, GRID_WORKLOADS)
    return runner


class TestParallelEqualsSerial:
    def test_results_identical_fieldwise(self, serial_grid, tmp_path):
        parallel = make_runner(tmp_path / "cache", 2)
        parallel.matrix(GRID_ARCHS, GRID_WORKLOADS)
        for arch in GRID_ARCHS:
            for wl in GRID_WORKLOADS:
                for seed in serial_grid.seeds:
                    a = serial_grid.run_one(arch, wl, seed)
                    b = parallel.run_one(arch, wl, seed)
                    assert a == b, (arch, wl, seed)

    def test_custom_config_points_reach_the_pool(self, tmp_path):
        # A variant is a registry name plus a config, so its points are
        # dispatched to the fabric like any other and equal a serial run.
        config = dataclasses.replace(
            scaled_config(8), esp=dataclasses.replace(
                scaled_config(8).esp, degradation_shift=1))
        runner = make_runner(tmp_path / "cache", 2)
        try:
            agg = runner.aggregate_custom("esp[d=1]", config, "esp-nuca",
                                          "apache")
            assert runner.executor.fabric_summary()["dispatched"] >= 1
        finally:
            runner.executor.close()
        serial = make_runner(None, 1).aggregate_custom(
            "esp[d=1]", config, "esp-nuca", "apache")
        assert [r.to_dict() for r in agg.runs] == \
            [r.to_dict() for r in serial.runs]
        assert {r.architecture for r in agg.runs} == {"esp[d=1]"}

    def test_jobs_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert default_jobs() == 1
        assert Executor().jobs == 1
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() == (os.cpu_count() or 1)

    def test_jobs_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            Executor()


class TestPersistentCache:
    def test_second_run_all_hits(self, tmp_path):
        first = make_runner(tmp_path / "cache", 1)
        first.matrix(GRID_ARCHS, GRID_WORKLOADS)
        points = len(GRID_ARCHS) * len(GRID_WORKLOADS) * QUICK.num_seeds
        assert first.executor.cache.writes == points

        second = make_runner(tmp_path / "cache", 1)
        second.matrix(GRID_ARCHS, GRID_WORKLOADS)
        assert second.executor.cache.misses == 0
        assert second.executor.cache.hits == points
        for arch in GRID_ARCHS:
            for wl in GRID_WORKLOADS:
                for seed in first.seeds:
                    assert first.run_one(arch, wl, seed) == \
                        second.run_one(arch, wl, seed)

    def test_settings_change_invalidates(self, tmp_path):
        runner = make_runner(tmp_path / "cache", 1)
        runner.run_one("shared", "apache", runner.seeds[0])
        longer = dataclasses.replace(QUICK, refs_per_core=500)
        rerun = make_runner(tmp_path / "cache", 1, settings=longer)
        rerun.run_one("shared", "apache", rerun.seeds[0])
        assert rerun.executor.cache.hits == 0
        assert rerun.executor.cache.misses == 1

    def test_config_change_invalidates(self):
        base = scaled_config(8)
        other = dataclasses.replace(
            base, mem=dataclasses.replace(base.mem, latency=351))
        assert cache_key(base, QUICK, "shared", "apache", 1) != \
            cache_key(other, QUICK, "shared", "apache", 1)

    def test_duplicate_points_simulated_once(self, tmp_path):
        executor = Executor(jobs=1, cache=RunCache(root=str(tmp_path)))
        point = RunPoint(name="shared", workload="apache", seed=7,
                         config=scaled_config(8), settings=QUICK,
                         arch="shared")
        results = executor.run([point, point, point])
        assert executor.cache.writes == 1
        assert results[0] == results[1] == results[2]

    def test_payload_round_trip(self, tmp_path):
        result = make_runner(None, 1).run_one("shared", "apache", 3)
        assert SimResult.from_dict(result.to_dict()) == result

    def test_stale_payload_is_a_miss(self):
        result = make_runner(None, 1).run_one("shared", "apache", 3)
        payload = result.to_dict()
        payload.pop("cycles")  # field set no longer matches SimResult
        assert SimResult.from_dict(payload) is None

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache_dir = tmp_path / "never"
        runner = ExperimentRunner(QUICK, executor=Executor(
            jobs=1, cache=RunCache(root=str(cache_dir), enabled=False)))
        runner.run_one("shared", "apache", runner.seeds[0])
        assert not cache_dir.exists()

    def test_cli_stats_and_clear(self, tmp_path, capsys):
        runner = make_runner(tmp_path / "cache", 1)
        runner.run_one("shared", "apache", runner.seeds[0])
        assert cache_main(["stats", "--dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert cache_main(["clear", "--dir", str(tmp_path / "cache")]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()


class TestCorruptEntries:
    """Real damage on disk — every flavor of bad payload reads as a
    miss (the ``except (OSError, ValueError)`` and schema-check paths
    in :meth:`RunCache.get`), and re-simulation heals the entry."""

    def _seeded_cache(self, tmp_path):
        """A cache holding one real entry; returns (cache, key, result)."""
        cache = RunCache(root=str(tmp_path / "cache"))
        runner = ExperimentRunner(QUICK, executor=Executor(jobs=1,
                                                           cache=cache))
        seed = runner.seeds[0]
        result = runner.run_one("shared", "apache", seed)
        key = cache_key(runner.config, QUICK, "shared", "apache", seed)
        assert cache.get(key) == result  # sanity: entry is readable
        return cache, key, result

    @pytest.mark.parametrize("damage", [
        pytest.param(b"", id="empty-file"),
        pytest.param(b'{"architecture": "shared", "cyc', id="truncated"),
        pytest.param(b"\x00\xffnot json at all\x80", id="binary-garbage"),
        pytest.param(b'"hello"', id="json-non-object"),
        pytest.param(b'{"foo": 1}', id="wrong-schema"),
    ])
    def test_damaged_entry_is_a_miss(self, tmp_path, damage):
        cache, key, _ = self._seeded_cache(tmp_path)
        with open(cache.entry_path(key), "wb") as handle:
            handle.write(damage)
        misses_before = cache.misses
        assert cache.get(key) is None
        assert cache.misses == misses_before + 1

    def test_resimulation_heals_damaged_entry(self, tmp_path):
        cache, key, result = self._seeded_cache(tmp_path)
        with open(cache.entry_path(key), "wb") as handle:
            handle.write(b'{"half a payl')
        fresh = ExperimentRunner(QUICK, executor=Executor(
            jobs=1, cache=RunCache(root=cache.root)))
        healed = fresh.run_one("shared", "apache", fresh.seeds[0])
        assert healed == result
        assert fresh.executor.cache.misses == 1
        assert fresh.executor.cache.writes == 1
        assert cache.get(key) == result

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        cache, key, _ = self._seeded_cache(tmp_path)
        path = cache.entry_path(key)
        os.chmod(path, 0o000)
        try:
            if os.access(path, os.R_OK):  # running as root: chmod no-op
                pytest.skip("permissions not enforced for this user")
            assert cache.get(key) is None
        finally:
            os.chmod(path, 0o644)


class TestEnvValidation:
    def test_malformed_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", "twenty")
        with pytest.raises(ValueError, match="REPRO_REFS.*integer"):
            RunSettings.from_env()

    def test_negative_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "-5")
        with pytest.raises(ValueError, match="REPRO_WARMUP.*>= 0"):
            RunSettings.from_env()

    def test_zero_seeds_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "0")
        with pytest.raises(ValueError, match="REPRO_SEEDS.*>= 1"):
            RunSettings.from_env()

    def test_blank_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "  ")
        assert RunSettings.from_env().capacity_factor == 8

    def test_env_int_passes_good_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", " 123 ")
        assert env_int("REPRO_REFS", 7, minimum=1) == 123
