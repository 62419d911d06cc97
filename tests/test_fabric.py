"""The worker fabric and the shard-aware run cache.

Pins the tentpole contract of the process-based execution substrate:

* a :class:`WorkerPool` really fans jobs out over distinct OS
  processes, and the executor's fabric path returns results
  byte-identical to the serial path;
* a worker killed mid-job is detected, replaced, and its job requeued
  **exactly once** — a second crash fails the job with
  :class:`WorkerCrashError` instead of retrying forever; deterministic
  runner exceptions are never requeued;
* the cache layout is the historical ``key[:2]`` directory layout (no
  silent cache invalidation), and a worker's read-through ``get``
  finds entries another process committed without listing a
  directory;
* two processes writing the same key concurrently never produce torn
  reads or leftover ``.tmp.<pid>`` files (satellite: concurrent cache
  writers).
"""

import glob
import hashlib
import os
import pickle
import signal
import threading
import time

import pytest

from repro.common.config import scaled_config
from repro.harness.cli import main as cli_main
from repro.harness.executor import Executor, RunPoint, simulate_point
from repro.harness.fabric import (RemoteJobError, WorkerCrashError,
                                  WorkerPool, default_workers, mp_context,
                                  run_point_batch)
from repro.harness.runcache import RunCache, cache_generation
from repro.harness.runner import ExperimentRunner, RunSettings
from repro.obs import trace as obs

QUICK = RunSettings(capacity_factor=8, refs_per_core=400,
                    warmup_refs_per_core=100, num_seeds=2)

POOL_TIMEOUT = 60


def _wait_for(predicate, timeout=POOL_TIMEOUT, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- module-level runners (must be picklable under spawn) ---------------------

def echo_runner(payload):
    return {"value": payload["value"] * 2, "pid": os.getpid()}


def suicide_runner(payload):
    """Die the moment the job starts, before the worker's queue feeder
    thread has flushed its ``started`` message to the parent."""
    os.kill(os.getpid(), signal.SIGKILL)


def boom_runner(payload):
    if payload.get("boom"):
        raise ValueError(f"deterministic failure {payload['value']}")
    return payload["value"]


def gate_runner(payload):
    """Write a pid marker, then hold the job until the release file
    appears — lets the test pin which worker runs what, and kill it at
    a known point."""
    gate_dir = payload["dir"]
    marker = os.path.join(gate_dir, f"started-{os.getpid()}-{time.time_ns()}")
    with open(marker, "w", encoding="utf-8"):
        pass
    release = os.path.join(gate_dir, payload.get("release", "release"))
    while not os.path.exists(release):
        time.sleep(0.01)
    return {"value": payload["value"], "pid": os.getpid()}


def _markers(gate_dir):
    """``(pid, name)`` of each started job, oldest first (by the start
    timestamp: sorting the names would order by pid digits)."""
    out = []
    for name in os.listdir(gate_dir):
        if name.startswith("started-"):
            out.append((int(name.split("-")[1]), name))
    out.sort(key=lambda marker: int(marker[1].split("-")[2]))
    return out


def hammer_put(root, key, result, rounds):
    """Concurrent-writer child: re-commit the same (key, result) pair
    as fast as possible."""
    cache = RunCache(root=root)
    for _ in range(rounds):
        cache.put(key, result)


# -- the worker pool ----------------------------------------------------------

class TestWorkerPool:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            WorkerPool(0, runner=echo_runner)

    def test_batch_runs_in_worker_processes(self):
        pool = WorkerPool(2, runner=echo_runner)
        try:
            outcomes = pool.run_batch([{"value": v} for v in (1, 2, 3)])
            assert [value["value"] for value, _ in outcomes] == [2, 4, 6]
            for value, reported_pid in outcomes:
                assert value["pid"] == reported_pid
                assert reported_pid != os.getpid()
            stats = pool.stats()
            assert stats["completed"] == 3
            assert sum(stats["completed_by_pid"].values()) == 3
        finally:
            pool.close()

    def test_two_workers_run_concurrently_distinct_pids(self, tmp_path):
        """Both jobs gate open simultaneously => two distinct worker
        processes were executing at the same time (the deterministic
        form of the distinct-PID acceptance criterion)."""
        gate = str(tmp_path)
        pool = WorkerPool(2, runner=gate_runner)
        try:
            futures = [pool.submit({"dir": gate, "value": v})
                       for v in (1, 2)]
            assert _wait_for(lambda: len(_markers(gate)) == 2), \
                "both workers should pick up a job"
            pids = {pid for pid, _ in _markers(gate)}
            assert len(pids) == 2
            assert pool.busy == 2
            with open(os.path.join(gate, "release"), "w",
                      encoding="utf-8"):
                pass
            values = [f.result(timeout=POOL_TIMEOUT) for f in futures]
            assert {v["pid"] for v, _ in values} == pids
        finally:
            pool.close()

    def test_remote_exception_propagates_and_is_not_requeued(self):
        pool = WorkerPool(1, runner=boom_runner)
        try:
            with pytest.raises(RemoteJobError,
                               match="deterministic failure 9"):
                pool.run_batch([{"value": 1}, {"value": 9, "boom": True}])
            # deterministic failures burn no requeue budget and leave
            # the pool healthy
            stats = pool.stats()
            assert stats["requeued"] == 0
            assert stats["crashed"] == 0
            assert pool.run_batch([{"value": 5}]) == [(5, stats["alive"][0])]
        finally:
            pool.close()

    def test_crashed_worker_job_requeued_once_and_completes(self, tmp_path):
        gate = str(tmp_path)
        pool = WorkerPool(2, runner=gate_runner)
        try:
            future = pool.submit({"dir": gate, "value": 42})
            assert _wait_for(lambda: _markers(gate))
            first_pid = _markers(gate)[0][0]
            os.kill(first_pid, signal.SIGKILL)
            # the requeued attempt lands on a surviving/replacement
            # worker and writes a second marker
            assert _wait_for(lambda: len(_markers(gate)) == 2), \
                "crashed job should be requeued and restarted"
            with open(os.path.join(gate, "release"), "w",
                      encoding="utf-8"):
                pass
            value, pid = future.result(timeout=POOL_TIMEOUT)
            assert value["value"] == 42
            assert pid != first_pid
            stats = pool.stats()
            assert stats["requeued"] == 1
            assert stats["crashed"] == 1
            # the pool healed back to full strength
            assert _wait_for(lambda: len(pool.pids()) == 2)
        finally:
            pool.close()

    def test_crash_before_start_reaches_the_parent(self):
        # The parent never hears "started" from a worker killed at once:
        # the crash must still be pinned on the job, not leave it
        # pending forever.
        pool = WorkerPool(1, runner=suicide_runner)
        try:
            future = pool.submit({"value": 1})
            with pytest.raises(WorkerCrashError, match="requeue-once"):
                future.result(timeout=POOL_TIMEOUT)
            assert pool.stats()["requeued"] == 1
        finally:
            pool.close()

    def test_second_crash_fails_the_job(self, tmp_path):
        gate = str(tmp_path)
        pool = WorkerPool(1, runner=gate_runner)
        try:
            future = pool.submit({"dir": gate, "value": 7})
            for attempt in (1, 2):
                assert _wait_for(lambda: len(_markers(gate)) == attempt), \
                    f"attempt {attempt} never started"
                os.kill(_markers(gate)[-1][0], signal.SIGKILL)
            with pytest.raises(WorkerCrashError, match="requeue-once"):
                future.result(timeout=POOL_TIMEOUT)
            assert pool.stats()["requeued"] == 1  # once, not twice
        finally:
            pool.close()

    def test_unpicklable_payload_raises_in_the_caller(self):
        """A payload the task queue cannot pickle fails its submit at
        once and registers no job; the pool still serves the next
        batch. (Pickled by the queue's feeder thread, the error was lost
        and ``run_batch`` waited forever, so the wait here is bounded.)"""
        pool = WorkerPool(1, runner=echo_runner)
        outcome = {}

        def submit():
            try:
                pool.run_batch([{"value": 1, "fn": lambda: 0}])
            except Exception as exc:  # noqa: BLE001 — inspected below
                outcome["error"] = exc

        thread = threading.Thread(target=submit, daemon=True)
        try:
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive(), \
                "run_batch still waits on an unpicklable payload"
            assert isinstance(outcome.get("error"),
                              (pickle.PicklingError, AttributeError))
            assert pool.stats()["dispatched"] == 0
            assert pool.busy == 0
            (value, _), = pool.run_batch([{"value": 2}])
            assert value["value"] == 4
        finally:
            pool.close()  # fails a pending future, releasing the thread
            thread.join(timeout=10)

    def test_close_is_idempotent_and_rejects_new_work(self):
        pool = WorkerPool(1, runner=echo_runner)
        assert pool.run_batch([{"value": 1}])[0][0]["value"] == 2
        pool.close()
        pool.close()
        assert pool.pids() == []
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit({"value": 2})

    def test_heartbeats_observed(self):
        pool = WorkerPool(1, runner=echo_runner, heartbeat=0.05)
        try:
            assert _wait_for(lambda: pool.stats()["heartbeat_age_s"])
            ages = pool.stats()["heartbeat_age_s"]
            assert set(ages) == set(pool.pids())
        finally:
            pool.close()


class TestDefaultWorkers:
    """Satellite: REPRO_WORKERS through the same env_int validation as
    REPRO_JOBS."""

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_malformed_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*integer"):
            default_workers()

    def test_zero_and_negative_rejected(self, monkeypatch):
        for bad in ("0", "-2"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ValueError, match="REPRO_WORKERS.*>= 1"):
                default_workers()

    def test_falls_back_to_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert default_workers() == 5

    def test_serve_workers_zero_is_a_clear_error(self, capsys):
        assert cli_main(["gateway", "serve", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be >= 1" in err


# -- the shard map ------------------------------------------------------------

def _fake_key(n):
    return hashlib.sha256(f"key-{n}".encode()).hexdigest()


class TestShardMap:
    def test_default_layout_matches_historical_key_prefix(self):
        cache = RunCache(root="unused")
        for n in range(64):
            key = _fake_key(n)
            assert cache.entry_path(key) == os.path.join(
                "unused", cache_generation(), key[:2], f"{key}.json")

    def test_stats_report_shard_map(self, tmp_path):
        cache = RunCache(root=str(tmp_path))
        result = _quick_result(cache)
        for n in range(4):
            cache.put(_fake_key(n), result)
        stats = cache.stats()
        populated = cache.shard_usage()
        assert stats["shards"]["populated"] == len(populated)
        assert sum(count for count, _ in populated.values()) == 4
        hottest = stats["shards"]["hottest"]
        assert populated[hottest["shard"]][0] == hottest["entries"]

    def test_spec_round_trip(self, tmp_path):
        cache = RunCache(root=str(tmp_path))
        rebuilt = RunCache.from_spec(cache.spec())
        assert rebuilt.root == cache.root
        disabled = RunCache(enabled=False)
        assert disabled.spec() is None
        assert RunCache.from_spec(None).enabled is False


_RESULT_MEMO = {}


def _quick_result(cache_for_key=None):
    """One real SimResult (memoized — the content doesn't matter, the
    bytes do)."""
    if "r" not in _RESULT_MEMO:
        executor = Executor(jobs=1, cache=RunCache(enabled=False))
        runner = ExperimentRunner(QUICK, executor=executor)
        _RESULT_MEMO["r"] = runner.run_one("shared", "apache",
                                           runner.seeds[0])
    return _RESULT_MEMO["r"]


def _no_listing(*_args, **_kwargs):
    raise AssertionError("a cache lookup listed a directory")


class TestReadThroughIndex:
    def test_cross_instance_discovery(self, tmp_path):
        """A second cache instance (stand-in for a second process — the
        layout is a pure function of the key) reads what the first
        committed."""
        writer = RunCache(root=str(tmp_path))
        reader = RunCache(root=str(tmp_path))
        key = _fake_key(3)
        assert reader.get(key) is None
        writer.put(key, _quick_result())
        assert reader.get(key) == _quick_result()
        assert (reader.hits, reader.misses) == (1, 1)

    def test_own_writes_visible_without_rescan(self, tmp_path, monkeypatch):
        cache = RunCache(root=str(tmp_path))
        key = _fake_key(4)
        monkeypatch.setattr(os, "scandir", _no_listing)
        monkeypatch.setattr(os, "listdir", _no_listing)
        assert cache.get(key) is None
        cache.put(key, _quick_result())
        assert cache.get(key) == _quick_result()

    def test_worker_batch_serves_from_cache_instead_of_simulating(
            self, tmp_path, monkeypatch):
        """Cross-process coalescing: run_point_batch (the worker entry)
        answers a committed key from disk. The point's workload does not
        exist, so any attempt to actually simulate would raise; and the
        lookup is a stat of the entry's path, never a directory listing."""
        cache = RunCache(root=str(tmp_path))
        poisoned = RunPoint(name="shared", workload="no-such-workload",
                            seed=1, config=scaled_config(8), settings=QUICK,
                            arch="shared")
        key = poisoned.key
        cache.put(key, _quick_result())
        with pytest.raises(KeyError):
            simulate_point(poisoned)  # sanity: simulating would fail
        monkeypatch.setattr(os, "scandir", _no_listing)
        monkeypatch.setattr(os, "listdir", _no_listing)
        results = run_point_batch({"points": [(key, poisoned)],
                                   "cache": cache.spec()})
        assert results == [_quick_result()]


class TestConcurrentWriters:
    """Satellite: two processes put() the same key simultaneously."""

    def test_no_torn_reads_no_leftover_tmp_files(self, tmp_path):
        root = str(tmp_path)
        cache = RunCache(root=root)
        key = _fake_key(6)
        result = _quick_result()
        ctx = mp_context()
        rounds = 40
        writers = [ctx.Process(target=hammer_put,
                               args=(root, key, result, rounds))
                   for _ in range(2)]
        for w in writers:
            w.start()
        # hammer get() while both writers race on the same entry
        observed = 0
        deadline = time.monotonic() + POOL_TIMEOUT
        while any(w.is_alive() for w in writers):
            assert time.monotonic() < deadline, "writers wedged"
            got = cache.get(key)
            if got is not None:
                assert got == result  # never torn, never partial
                observed += 1
        for w in writers:
            w.join(timeout=POOL_TIMEOUT)
            assert w.exitcode == 0
        assert observed > 0
        # last-write-wins equivalence: the surviving entry is the payload
        assert cache.get(key) == result
        # atomic renames leave no temp droppings anywhere in the cache
        leftovers = glob.glob(os.path.join(root, "**", "*.tmp.*"),
                              recursive=True)
        assert leftovers == []


# -- the executor's fabric path ----------------------------------------------

class TestExecutorFabric:
    def _points(self, n=4):
        config = scaled_config(QUICK.capacity_factor)
        combos = [("shared", "apache"), ("private", "apache"),
                  ("esp-nuca", "apache"), ("shared", "gcc-4"),
                  ("private", "gcc-4"), ("esp-nuca", "gcc-4")]
        return [RunPoint(name=a, workload=w, seed=9, config=config,
                         settings=QUICK, arch=a)
                for a, w in combos[:n]]

    def test_parallel_identical_to_serial_with_worker_pids_traced(
            self, tmp_path):
        points = self._points(4)
        serial = Executor(jobs=1, cache=RunCache(enabled=False))
        expected = [r.to_dict() for r in serial.run(points)]

        tracer = obs.Tracer(categories=["executor", "fabric"])
        parallel = Executor(jobs=2,
                            cache=RunCache(root=str(tmp_path / "cache")))
        try:
            with obs.activated(tracer):
                got = [r.to_dict() for r in parallel.run(points)]
            assert got == expected
            runs = [e for e in tracer.events
                    if e.category == "executor" and e.name == "pool run"]
            assert runs, "fabric batches should emit pool run instants"
            pids = {e.args["worker_pid"] for e in runs}
            assert os.getpid() not in pids  # really other processes
            assert sum(e.args["points"] for e in runs) == len(points)
            spawned = {e.args["worker_pid"] for e in tracer.events
                       if e.category == "fabric"
                       and e.name == "worker spawned"}
            assert pids <= spawned
        finally:
            parallel.close()

    def test_pool_persists_across_batches(self, tmp_path):
        executor = Executor(jobs=2, cache=RunCache(enabled=False))
        try:
            executor.run(self._points(2))
            pool = executor._pool
            assert pool is not None
            first = pool.stats()["completed"]
            executor.run(self._points(4)[2:])
            assert executor._pool is pool  # same fabric, reused
            assert pool.stats()["completed"] > first
        finally:
            executor.close()

    def test_close_then_run_restarts_lazily(self, tmp_path):
        executor = Executor(jobs=2, cache=RunCache(enabled=False))
        try:
            r1 = [r.to_dict() for r in executor.run(self._points(2))]
            executor.close()
            assert executor.fabric_stats() is None
            r2 = [r.to_dict() for r in executor.run(self._points(2))]
            assert r1 == r2
        finally:
            executor.close()

    def test_procs_busy_zero_when_idle(self):
        executor = Executor(jobs=2, cache=RunCache(enabled=False))
        try:
            assert executor.procs_busy() == 0
            executor.run(self._points(2))
            assert executor.procs_busy() == 0  # batch fully drained
        finally:
            executor.close()

    def test_serial_executor_never_starts_the_fabric(self):
        executor = Executor(jobs=1, cache=RunCache(enabled=False))
        executor.run(self._points(2))
        assert executor._pool is None
        assert executor.fabric_stats() is None
