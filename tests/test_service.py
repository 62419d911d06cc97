"""The service core's lifecycle contract, served through the gateway:
coalescing, backpressure, streaming, tracing and drain —
integration-tested against real (tiny-fidelity) simulations on an
in-process :class:`GatewayThread`, bound to a unix socket unless a test
says otherwise.

The acceptance contract pinned here:

* concurrent clients submitting overlapping grids get results
  byte-identical to direct executor/runner runs;
* duplicate in-flight submissions coalesce (executor sees fewer points
  than were requested);
* a full queue rejects with a typed ``queue-full`` 503 instead of
  blocking, and leaves no stored job behind;
* repeat submissions are answered from the persistent run cache without
  touching a worker;
* a drain completes with zero orphaned workers (asyncio tasks, OS
  threads and fabric processes);
* a traced submit exports a valid Chrome trace, one traced job at a
  time;
* ``esp-nuca submit`` talks to the gateway end to end.
"""

import json
import os
import shutil
import signal
import socket
import time
import tempfile
import threading

import pytest

from repro.gateway import (GatewayClient, GatewayConfig, GatewayError,
                           GatewayThread, JobStore)
from repro.gateway.client import parse_address, payloads_to_results
from repro.harness.executor import Executor
from repro.harness.runcache import RunCache
from repro.harness.runner import RunSettings, grid_points
from repro.service import ProtocolError, QueueFullError
from repro.service.core import check_int

QUICK = RunSettings(capacity_factor=8, refs_per_core=400,
                    warmup_refs_per_core=100, num_seeds=2)
SEEDS = [7, 11]
ARCHS = ["shared", "private", "esp-nuca"]
WORKLOADS = ["apache", "gcc-4"]
SETTINGS_WIRE = {"refs_per_core": QUICK.refs_per_core,
                 "warmup_refs_per_core": QUICK.warmup_refs_per_core,
                 "capacity_factor": QUICK.capacity_factor}

CLIENT_TIMEOUT = 120.0


class CountingExecutor(Executor):
    """Real executor that records traffic and can hold batches at a gate
    (to pin work in-flight while assertions run)."""

    def __init__(self, *args, gate=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0
        self.points_seen = 0
        self.point_log = []
        self._gate = gate
        self._lock = threading.Lock()

    def run(self, points):
        with self._lock:
            self.calls += 1
            self.points_seen += len(points)
            self.point_log.extend((p.name, p.workload, p.seed)
                                  for p in points)
        if self._gate is not None:
            assert self._gate.wait(timeout=60), "test gate never released"
        return super().run(points)


def gated_point_batch(payload):
    """Fabric runner for the crash-recovery test: marks which worker
    process started the job, then holds it until the release file
    appears (so the test can kill a worker mid-batch at a known point).
    Module-level so it pickles under any start method."""
    from repro.harness.fabric import run_point_batch

    gate_dir = os.environ.get("REPRO_TEST_FABRIC_GATE")
    if gate_dir:
        marker = os.path.join(
            gate_dir, f"started-{os.getpid()}-{time.time_ns()}")
        with open(marker, "w", encoding="utf-8"):
            pass
        release = os.path.join(gate_dir, "release")
        while not os.path.exists(release):
            time.sleep(0.01)
    return run_point_batch(payload)


class GatedFabricExecutor(Executor):
    """Executor whose fabric workers run the gated job runner."""

    def _ensure_pool(self):
        from repro.harness import fabric

        with self._pool_lock:
            if self._pool is None:
                self._pool = fabric.WorkerPool(
                    self.jobs, runner=gated_point_batch)
            return self._pool


@pytest.fixture
def sock_dir():
    """A short-lived directory with a short path (unix socket paths are
    length-limited; pytest's tmp_path can exceed it)."""
    path = tempfile.mkdtemp(prefix="espsvc-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def service(sock_dir, executor, cache_dir=None, **config):
    """An anonymous-access gateway on ``<sock_dir>/gw.sock`` whose rate
    bucket never runs dry (these tests pin the core, not rate limits)."""
    if executor is None:
        cache = (RunCache(root=cache_dir) if cache_dir
                 else RunCache(enabled=False))
        executor = CountingExecutor(jobs=1, cache=cache)
    config.setdefault("bind", ("unix", f"{sock_dir}/gw.sock"))
    config.setdefault("db_path", f"{sock_dir}/gw.sqlite")
    config.setdefault("allow_anonymous", True)
    config.setdefault("anon_rate_capacity", 1e6)
    config.setdefault("anon_rate_refill", 1e6)
    return GatewayThread(GatewayConfig(**config), executor=executor,
                         settings=QUICK)


def connect(handle, api_key=None):
    return GatewayClient(handle.base_url, api_key=api_key,
                         timeout=CLIENT_TIMEOUT)


def finish(client, job):
    """Follow a job's SSE stream to its ``end`` frame."""
    events = list(client.events(job))
    assert events[-1]["event"] == "end", events[-1]
    return events[-1]


def wait_until(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def reference_payloads(archs, workloads, seeds):
    """Direct serial executor run of the same grid, no caches."""
    from repro.common.config import scaled_config

    executor = Executor(jobs=1, cache=RunCache(enabled=False))
    points = grid_points(scaled_config(QUICK.capacity_factor), QUICK,
                         archs, workloads, seeds)
    return [r.to_dict() for r in executor.run(points)]


# -- request validation and addresses -----------------------------------------

class TestProtocol:
    def test_check_int_rejects_bool_and_below_minimum(self):
        with pytest.raises(ProtocolError):
            check_int({"n": True}, "n", 1, 0)
        with pytest.raises(ProtocolError):
            check_int({"n": -1}, "n", 1, 0)
        assert check_int({}, "n", 5, 0) == 5

    def test_request_points_builds_each_config_once(self, monkeypatch):
        from repro.service import core as service_core

        built = []
        scaled = service_core.scaled_config
        monkeypatch.setattr(service_core, "scaled_config",
                            lambda factor: built.append(factor) or
                            scaled(factor))
        core = service_core.ServiceCore(StubExecutor(), QUICK)
        request = {"architectures": ["shared"], "workloads": ["apache"],
                   "settings": SETTINGS_WIRE}
        first, _ = core.request_points(request)
        second, _ = core.request_points(request)
        core.request_points(dict(request, check=64))
        assert built == [QUICK.capacity_factor] * 2
        assert [p.key for p in first] == [p.key for p in second]

    def test_parse_address_forms(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("example.org:1234") == \
            ("tcp", "example.org", 1234)
        assert parse_address(":9000") == ("tcp", "127.0.0.1", 9000)
        with pytest.raises(ValueError):
            parse_address("host:not-a-port")
        with pytest.raises(ValueError):
            parse_address("unix:")


# -- scheduler unit tests -----------------------------------------------------

def keyed_points(n):
    """``n`` distinct ``(cache key, RunPoint)`` pairs."""
    from repro.common.config import scaled_config

    config = scaled_config(QUICK.capacity_factor)
    return [(p.key, p) for p in grid_points(
        config, QUICK, ARCHS, WORKLOADS, range(n))][:n]


class TestScheduler:
    def _points(self, n):
        return keyed_points(n)

    def test_admission_is_all_or_nothing(self):
        import asyncio

        from repro.service.queue import Scheduler

        async def scenario():
            scheduler = Scheduler(limit=3)
            pts = self._points(5)
            tasks, coalesced = scheduler.admit(pts[:2])
            assert len(tasks) == 2 and coalesced == 0
            with pytest.raises(QueueFullError):
                scheduler.admit(pts[2:5])  # needs 3 slots, 1 free
            assert scheduler.backlog == 2  # untouched by the reject
            # resubmitting the same keys coalesces without using slots
            tasks2, coalesced2 = scheduler.admit(pts[:2])
            assert coalesced2 == 2
            assert tasks2.keys() == tasks.keys()
            assert scheduler.backlog == 2

        asyncio.run(scenario())

    def test_batch_pop_respects_priority_then_order(self):
        import asyncio

        from repro.service.queue import Scheduler

        async def scenario():
            scheduler = Scheduler(limit=10)
            pts = self._points(4)
            scheduler.admit(pts[:2], priority=0)
            scheduler.admit(pts[2:4], priority=5)
            batch = await scheduler.next_batch(10)
            assert [t.key for t in batch] == \
                [k for k, _ in pts[2:4] + pts[:2]]

        asyncio.run(scenario())

    def test_release_drops_unwanted_queued_tasks(self):
        import asyncio

        from repro.service.queue import Scheduler

        async def scenario():
            scheduler = Scheduler(limit=10)
            pts = self._points(1)
            tasks, _ = scheduler.admit(pts)
            task = next(iter(tasks.values()))
            scheduler.release(task)
            assert scheduler.backlog == 0
            assert scheduler.inflight == 0
            scheduler.close()
            assert await scheduler.next_batch(10) is None

        asyncio.run(scenario())


# -- core unit tests: job states and the live-job views ------------------------

class StubResult:
    """Stands in for a SimResult: the core only serializes it."""

    def to_dict(self):
        return {"stub": True}


class StubExecutor:
    """What ServiceCore reads of an executor, with no simulation behind
    it: a run cache that hits a fixed key set."""

    jobs = 1
    executed = 0

    def __init__(self, hits=()):
        self.hits = set(hits)
        self.cache = self  # its own run cache: ``get_wire`` below

    def get_wire(self, key):
        return json.dumps(StubResult().to_dict(), sort_keys=True) \
            if key in self.hits else None

    def procs_busy(self):
        return 0


def unstarted_core(hits=()):
    """A ServiceCore with a scheduler but no dispatchers: the test
    drives dispatch and settlement itself."""
    from repro.service.core import ServiceCore
    from repro.service.queue import Scheduler

    core = ServiceCore(StubExecutor(hits), QUICK, queue_limit=64)
    core.scheduler = Scheduler(core.queue_limit)
    return core


def core_submit(core, owner, points, job_id):
    """The core calls one ``POST /v1/jobs`` makes (``Gateway._submit``):
    both quota reads, admission, seal and the reply."""
    core.active_jobs(owner)
    core.active_points(owner)
    job, unique = core.create_job([p for _, p in points], 0, owner,
                                  job_id, [k for k, _ in points])
    core.admit(job, unique)
    job.seal()
    job.snapshot()
    job.results()
    return job


def one_point_job(job_id, key, point):
    from repro.service.progress import Job

    return Job(job_id, [key], {key: (point.name, point.workload,
                                     point.seed)}, 0, "anon")


class TestJobStates:
    def test_cancelled_job_stays_cancelled_when_shared_point_fails(self):
        """Job A cancels a point job B coalesced onto; the point then
        fails for B. A stays cancelled (as the store records it)."""
        import asyncio

        from repro.service.queue import Scheduler

        async def scenario():
            scheduler = Scheduler(limit=4)
            (key, point), = keyed_points(1)
            a = one_point_job("a", key, point)
            b = one_point_job("b", key, point)
            for job in (a, b):
                tasks, _ = scheduler.admit([(key, point)])
                job.attach(key, tasks[key])
                job.seal()
            a.cancel(scheduler)
            assert scheduler.inflight == 1  # B still wants the point
            scheduler.finish(tasks[key], error=RuntimeError("boom"))
            await asyncio.sleep(0)
            assert (a.state, b.state) == ("cancelled", "failed")
            assert (a.done.result(), b.done.result()) == \
                ("cancelled", "failed")
            assert a.counts()["cancelled"] == 1 and not a.errors

        asyncio.run(scenario())

    def test_cancel_with_running_point_ends_cancelled(self):
        """A point left running by a cancel completes for the cache; if
        it fails, the job still ends cancelled."""
        import asyncio

        from repro.service.queue import Scheduler

        async def scenario():
            scheduler = Scheduler(limit=4)
            (key, point), = keyed_points(1)
            job = one_point_job("a", key, point)
            tasks, _ = scheduler.admit([(key, point)])
            job.attach(key, tasks[key])
            job.seal()
            batch = await scheduler.next_batch(1)
            job.mark_running([key])
            job.cancel(scheduler)
            assert job.state == "running"
            assert job.done.result() == "cancelled"
            scheduler.finish(batch[0], error=RuntimeError("boom"))
            await asyncio.sleep(0)
            assert job.state == "cancelled"

        asyncio.run(scenario())


class TestEncodedResults:
    """A job holds each result as wire JSON text, encoded once and
    shared: never a decoded tree per job."""

    def test_cache_answered_jobs_share_one_text(self, tmp_path):
        import asyncio

        from repro.service.core import ServiceCore
        from repro.service.queue import Scheduler

        (key, point), = keyed_points(1)
        result, = Executor(jobs=1, cache=RunCache(root=str(tmp_path))).run(
            [point])

        async def two_jobs():
            core = ServiceCore(
                Executor(jobs=1, cache=RunCache(root=str(tmp_path))), QUICK,
                queue_limit=64)
            core.scheduler = Scheduler(core.queue_limit)
            jobs = [core_submit(core, owner, [(key, point)], f"j{owner}")
                    for owner in ("alice", "bob")]
            return core, jobs

        core, (first, second) = asyncio.run(two_jobs())
        text = first.payloads[key]
        assert type(text) is str
        assert text == json.dumps(result.to_dict(), sort_keys=True)
        assert second.payloads[key] is text
        assert first.results()[0] is text and second.results()[0] is text
        assert core.executor.cache._memo[key][4] is text
        for job in (first, second):
            assert all(type(value) is str for value in job.payloads.values())

    def test_cold_point_is_encoded_once_and_spliced(self, sock_dir,
                                                     monkeypatch):
        from repro.gateway import http as ghttp
        from repro.service import progress

        encoded, spliced = [], []
        wire_json, encode = progress.wire_json, ghttp.encode

        def counting_wire_json(obj):
            encoded.append(wire_json(obj))
            return encoded[-1]

        def recording_encode(obj):
            if type(obj) is dict and "results" in obj:
                spliced.append(list(obj["results"]))
            return encode(obj)

        monkeypatch.setattr(progress, "wire_json", counting_wire_json)
        monkeypatch.setattr(ghttp, "encode", recording_encode)
        with service(sock_dir, None) as handle:
            with connect(handle) as client:
                job = client.submit(["esp-nuca"], ["apache"], seeds=[7],
                                    settings=SETTINGS_WIRE)["job"]
                end = finish(client, job)
                results = client.results(job)["results"]
                # Nor does the job keep the point's task, whose future
                # holds the decoded result.
                assert handle.gateway.core.jobs[job]._tasks == {}
        assert len(encoded) == 1  # the one point, when it completed
        assert len(spliced) == 2  # the SSE end frame and /results
        for items in spliced:
            assert len(items) == 1 and items[0] is encoded[0]
        want = reference_payloads(["esp-nuca"], ["apache"], [7])
        assert canonical(end["results"]) == canonical(results) == \
            canonical(want)


class TestLiveJobViews:
    def test_cache_hit_submit_cost_is_independent_of_history(
            self, monkeypatch):
        """A cache-hit submit evaluates ``Job.state`` as often after 300
        earlier terminal jobs as after 10."""
        import asyncio

        from repro.service.progress import Job

        calls = []
        state = Job.state
        monkeypatch.setattr(Job, "state", property(
            lambda job: calls.append(job.id) or state.fget(job)))
        points = keyed_points(2)

        async def evaluations(history):
            core = unstarted_core(hits=[k for k, _ in points])
            for i in range(history):
                core_submit(core, "alice", points, f"h{i}")
            before = len(calls)
            job = core_submit(core, "alice", points, "measured")
            spent = len(calls) - before
            assert job.state == "done"
            assert core.jobs_by_state() == {"done": history + 1}
            return spent

        assert asyncio.run(evaluations(10)) == asyncio.run(evaluations(300))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_views_match_a_scan_of_every_job(self, seed):
        """Random admit / coalesce / dispatch / settle / cancel steps
        across two owners; after each, the quota and status views equal
        a brute-force scan of the whole job table, and no job leaves a
        terminal state."""
        import asyncio
        import random
        from collections import Counter

        from repro.service.progress import TERMINAL
        from repro.service.queue import QUEUED, RUNNING

        def scan(core, owner):
            jobs = [job for job in core.jobs.values()
                    if owner is None or job.owner == owner]
            live = [job for job in jobs if job.state not in TERMINAL]
            points = sum(1 for job in live
                         for key in dict.fromkeys(job.order)
                         if job.states.get(key) in (QUEUED, RUNNING))
            return len(live), points

        async def scenario():
            rng = random.Random(seed)
            points = keyed_points(8)
            core = unstarted_core(hits=[k for k, _ in points[:2]])
            running = []
            final = {}
            for step in range(250):
                op = rng.choice(("admit", "admit", "dispatch", "settle",
                                 "cancel"))
                if op == "admit":
                    picked = rng.sample(points, rng.randint(1, 3))
                    if rng.random() < 0.2:
                        picked.append(picked[0])  # duplicate grid point
                    core_submit(core, rng.choice(("alice", "bob")),
                                picked, f"j{step}")
                elif op == "dispatch" and core.scheduler.backlog:
                    batch = await core.scheduler.next_batch(
                        rng.randint(1, 3))
                    running.extend(batch)
                    keys = [task.key for task in batch]
                    for job in core.jobs.values():
                        job.mark_running(keys)
                elif op == "settle" and running:
                    task = running.pop(rng.randrange(len(running)))
                    if rng.random() < 0.3:
                        core.scheduler.finish(task,
                                              error=RuntimeError("boom"))
                    else:
                        core.scheduler.finish(task, result=StubResult())
                elif op == "cancel" and core.jobs:
                    rng.choice(list(core.jobs.values())).cancel(
                        core.scheduler)
                await asyncio.sleep(0)  # done-callbacks settle jobs

                for job in core.jobs.values():
                    if job.id in final:
                        assert job.state == final[job.id], job.id
                    elif job.state in TERMINAL:
                        final[job.id] = job.state
                for owner in (None, "alice", "bob"):
                    assert (core.active_jobs(owner),
                            core.active_points(owner)) == \
                        scan(core, owner), (step, owner)
                assert core.jobs_by_state() == \
                    dict(Counter(job.state for job in core.jobs.values()))
            assert len(final) > 20 and set(final.values()) == set(TERMINAL)

        asyncio.run(scenario())


# -- integration: concurrent clients ------------------------------------------

class TestConcurrentClients:
    def test_overlapping_grids_byte_identical_and_coalesced(self, sock_dir):
        """N=8 concurrent clients, overlapping grids, gate held so every
        duplicate is genuinely in-flight when it coalesces."""
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        # Overlapping subsets: every client shares points with others.
        grids = [(ARCHS[i % 2:], WORKLOADS) for i in range(8)]
        requested = sum(len(a) * len(w) * len(SEEDS) for a, w in grids)
        collected = [None] * len(grids)
        errors = []

        try:
            with service(sock_dir, executor, workers=2, batch=4,
                         queue_limit=64) as handle:
                def run_client(i, archs, workloads):
                    try:
                        with connect(handle) as client:
                            reply = client.submit(archs, workloads,
                                                  seeds=SEEDS,
                                                  settings=SETTINGS_WIRE)
                            end = finish(client, reply["job"])
                            assert end["state"] == "done"
                            collected[i] = end["results"]
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [threading.Thread(target=run_client,
                                            args=(i, a, w))
                           for i, (a, w) in enumerate(grids)]
                for thread in threads:
                    thread.start()
                # Everything submitted before any simulation completes.
                with connect(handle) as admin:
                    wait_until(lambda: admin.status()["points"]["requested"]
                               >= requested, "all submissions")
                    assert admin.status()["points"]["coalesced"] > 0
                gate.set()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
        finally:
            gate.set()
        assert not errors, errors

        # Coalescing: the executor saw each unique point once.
        unique = len({(a, w, s) for archs, wls in grids
                      for a in archs for w in wls for s in SEEDS})
        assert executor.points_seen == unique
        assert unique < requested

        # Byte-identical to a direct serial executor run of each grid.
        for (archs, workloads), results in zip(grids, collected):
            reference = reference_payloads(archs, workloads, SEEDS)
            assert [canonical(r) for r in results] == \
                [canonical(r) for r in reference]

    def test_tcp_transport(self, sock_dir):
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False))
        with service(sock_dir, executor,
                     bind=("tcp", "127.0.0.1", 0)) as handle:
            assert handle.base_url.startswith("http://127.0.0.1:")
            with connect(handle) as client:
                assert client.health()["ok"] is True
                reply = client.submit(["shared"], ["apache"], seeds=[7],
                                      settings=SETTINGS_WIRE)
                end = finish(client, reply["job"])
                assert end["state"] == "done"
                result = payloads_to_results(end["results"])[0]
                assert result.architecture == "shared"
                assert result.cycles > 0

    def test_unix_socket_serves_a_full_submit(self, sock_dir):
        with service(sock_dir, None) as handle:
            assert handle.base_url == f"unix:{sock_dir}/gw.sock"
            with connect(handle) as client:
                job = client.submit(["esp-nuca"], ["apache"], seeds=[7],
                                    settings=SETTINGS_WIRE)["job"]
                assert client.wait(job)["state"] == "done"
                got = client.results(job)["results"]
                assert canonical(got) == canonical(reference_payloads(
                    ["esp-nuca"], ["apache"], [7]))
                assert [j["job"] for j in client.jobs()] == [job]

    def test_unix_socket_removed_on_exit_and_rebindable(self, sock_dir):
        path = f"{sock_dir}/gw.sock"
        for _ in range(2):  # the second gateway binds the same path
            with service(sock_dir, None) as handle:
                assert os.path.exists(path)
                with connect(handle) as client:
                    assert client.health()["ok"] is True
            assert not os.path.exists(path)


# -- integration: cache fast path ---------------------------------------------

class TestCacheFastPath:
    def test_repeat_submission_never_reaches_a_worker(self, sock_dir):
        cache_dir = f"{sock_dir}/cache"
        executor = CountingExecutor(jobs=1, cache=RunCache(root=cache_dir))
        with service(sock_dir, executor) as handle:
            with connect(handle) as client:
                job = client.submit(["shared", "esp-nuca"], ["apache"],
                                    seeds=SEEDS,
                                    settings=SETTINGS_WIRE)["job"]
                first = finish(client, job)
                assert first["state"] == "done"
                executed = executor.points_seen
                assert executed == 4
                second = client.submit(["shared", "esp-nuca"], ["apache"],
                                       seeds=SEEDS, settings=SETTINGS_WIRE)
                assert second["state"] == "done"
                assert second["cached"] == 4
                assert executor.points_seen == executed  # no worker touched
                assert [canonical(r) for r in second["results"]] == \
                    [canonical(r) for r in first["results"]]

    def test_cache_survives_service_restart(self, sock_dir):
        cache_dir = f"{sock_dir}/cache"
        with service(sock_dir, None, cache_dir=cache_dir) as handle:
            with connect(handle) as client:
                job = client.submit(["shared"], ["apache"], seeds=[7],
                                    settings=SETTINGS_WIRE)["job"]
                first = finish(client, job)
        executor = CountingExecutor(jobs=1, cache=RunCache(root=cache_dir))
        with service(sock_dir, executor,
                     db_path=f"{sock_dir}/fresh.sqlite") as handle:
            with connect(handle) as client:
                again = client.submit(["shared"], ["apache"], seeds=[7],
                                      settings=SETTINGS_WIRE)
                assert again["cached"] == 1
                assert executor.calls == 0
                assert canonical(again["results"][0]) == \
                    canonical(first["results"][0])


# -- integration: backpressure and limits -------------------------------------

class TestBackpressure:
    def test_full_queue_rejects_with_typed_error(self, sock_dir):
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(sock_dir, executor, workers=1, batch=1,
                         queue_limit=2) as handle:
                with connect(handle) as client:
                    blocker = client.submit(["shared"], ["apache"],
                                            seeds=[1],
                                            settings=SETTINGS_WIRE)
                    # Wait until the blocker occupies the worker, so the
                    # backlog below is exactly deterministic.
                    wait_until(lambda: client.job(blocker["job"])
                               ["counts"]["running"] == 1, "blocker running")
                    client.submit(["shared"], ["apache"], seeds=[2],
                                  settings=SETTINGS_WIRE)
                    client.submit(["shared"], ["apache"], seeds=[3],
                                  settings=SETTINGS_WIRE)
                    points = client.status()["points"]
                    with pytest.raises(GatewayError) as exc:
                        client.submit(["shared"], ["apache"], seeds=[4],
                                      settings=SETTINGS_WIRE)
                    assert (exc.value.status, exc.value.code) == \
                        (503, "queue-full")
                    assert exc.value.retry_after >= 1
                    # A rejected job's points are not counted.
                    assert client.status()["points"] == points
                    # The rejected job left no stored row behind (it
                    # must never be "recovered" after a restart).
                    assert len(client.jobs()) == 3
                    assert sum(client.status()["store"]["jobs"].values()) \
                        == 3
                    # The reject left the queue intact; coalescing onto
                    # queued work still succeeds (needs no new slot).
                    joined = client.submit(["shared"], ["apache"], seeds=[3],
                                           settings=SETTINGS_WIRE)
                    assert joined["coalesced"] == 1
                    gate.set()
        finally:
            gate.set()

    def test_per_client_job_limit(self, sock_dir):
        """The gateway's per-tenant concurrent-job quota: the anonymous
        tenant is capped, a keyed tenant has its own allowance."""
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        with JobStore.open(f"{sock_dir}/gw.sqlite") as store:
            _, key = store.add_tenant("other", rate_capacity=100,
                                      rate_refill=50)
        try:
            with service(sock_dir, executor, workers=1, batch=1,
                         anon_max_jobs=2, queue_limit=64) as handle:
                with connect(handle) as client:
                    for seed in (1, 2):
                        client.submit(["shared"], ["apache"], seeds=[seed],
                                      settings=SETTINGS_WIRE)
                    with pytest.raises(GatewayError) as exc:
                        client.submit(["shared"], ["apache"], seeds=[3],
                                      settings=SETTINGS_WIRE)
                    assert (exc.value.status, exc.value.code) == \
                        (429, "quota-jobs")
                    with connect(handle, api_key=key) as other:
                        other.submit(["shared"], ["apache"], seeds=[3],
                                     settings=SETTINGS_WIRE)
                    gate.set()
        finally:
            gate.set()

    def test_bad_requests_are_typed(self, sock_dir):
        with service(sock_dir, None) as handle:
            with connect(handle) as client:
                with pytest.raises(GatewayError) as exc:
                    client.submit(["no-such-arch"], ["apache"], seeds=[1])
                assert (exc.value.status, exc.value.code) == \
                    (400, "bad-request")
                with pytest.raises(GatewayError) as exc:
                    client.job("g999")
                assert (exc.value.status, exc.value.code) == \
                    (404, "unknown-job")
                for body in ({"architectures": ["shared"],
                              "workloads": ["apache"],
                              "settings": {"bogus_knob": 3}},
                             {"architectures": ["shared"],
                              "workloads": ["apache"], "trace": "yes"}):
                    with pytest.raises(GatewayError) as exc:
                        client.request("POST", "/v1/jobs", body)
                    assert (exc.value.status, exc.value.code) == \
                        (400, "bad-request")


# -- integration: watch, cancel, drain ----------------------------------------

class TestLifecycle:
    def test_watch_streams_progress_then_results(self, sock_dir):
        with service(sock_dir, None) as handle:
            with connect(handle) as client:
                reply = client.submit(["shared", "private"], ["apache"],
                                      seeds=[7], settings=SETTINGS_WIRE)
                events = list(client.events(reply["job"]))
        assert events[-1]["event"] == "end"
        assert all(e["event"] == "progress" for e in events[:-1])
        done_counts = [e["counts"]["done"] for e in events[:-1]]
        assert done_counts == sorted(done_counts)  # monotonic progress
        results = events[-1]["results"]
        assert len(results) == 2
        # Results carry the full hierarchical registry snapshot.
        for payload in results:
            assert payload["stats"].get("l2")
            assert payload["stats"].get("noc")

    def test_cancel_drops_queued_points(self, sock_dir):
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(sock_dir, executor, workers=1, batch=1,
                         queue_limit=64) as handle:
                with connect(handle) as client:
                    blocker = client.submit(["shared"], ["apache"],
                                            seeds=[1],
                                            settings=SETTINGS_WIRE)
                    victim = client.submit(["private"], ["apache"],
                                           seeds=[2],
                                           settings=SETTINGS_WIRE)
                    cancelled = client.cancel(victim["job"])
                    assert cancelled["state"] == "cancelled"
                    gate.set()
                    assert finish(client, blocker["job"])["state"] == "done"
                drained = handle.drain()
            assert drained["workers_alive"] == 0
            assert drained["store"] == {"done": 1, "cancelled": 1}
            # The cancelled point never ran.
            assert ("private", "apache", 2) not in executor.point_log
        finally:
            gate.set()

    def test_drain_completes_with_zero_orphaned_workers(self, sock_dir):
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False))
        with service(sock_dir, executor, workers=3) as handle:
            with connect(handle) as client:
                job = client.submit(["shared"], ["apache"], seeds=[5],
                                    settings=SETTINGS_WIRE)["job"]
                assert client.wait(job)["state"] == "done"
            drained = handle.drain()
            assert drained["drained"] is True
            assert drained["workers_alive"] == 0
            assert drained["executed_points"] == 1
            assert "cache" in drained
            assert handle.drain() is None  # already stopped
        # No simulation threads survive the drain.
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("esp-nuca-sim")]

    def test_worker_crash_mid_batch_requeued_once_and_drains(
            self, sock_dir, tmp_path, monkeypatch):
        """Kill a simulation worker process mid-batch: the fabric
        requeues its job exactly once, the job completes on a
        surviving/replacement worker with correct results, and the
        drain barrier still resolves everything."""
        gate_dir = str(tmp_path / "gate")
        os.makedirs(gate_dir)
        monkeypatch.setenv("REPRO_TEST_FABRIC_GATE", gate_dir)

        def markers():
            return sorted(name for name in os.listdir(gate_dir)
                          if name.startswith("started-"))

        executor = GatedFabricExecutor(jobs=2, cache=RunCache(enabled=False))
        with service(sock_dir, executor, workers=1, batch=4) as handle:
            with connect(handle) as client:
                job = client.submit(["shared", "private"], ["apache"],
                                    seeds=[7],
                                    settings=SETTINGS_WIRE)["job"]
                # two points -> two fabric jobs, one per worker process
                wait_until(lambda: len(markers()) >= 2,
                           "both workers starting a job", timeout=60)
                pids = {int(name.split("-")[1]) for name in markers()}
                assert len(pids) == 2
                status = client.status()
                assert status["procs"] == 2
                assert status["procs_busy"] == 2
                victim = min(pids)
                os.kill(victim, signal.SIGKILL)
                wait_until(lambda: len(markers()) >= 3,
                           "the crashed job restarting", timeout=60)
                with open(os.path.join(gate_dir, "release"), "w",
                          encoding="utf-8"):
                    pass
                end = finish(client, job)
                assert end["state"] == "done"
                # byte-identical to a direct serial run despite the crash
                assert ([canonical(p) for p in end["results"]]
                        == [canonical(p) for p in reference_payloads(
                            ["shared", "private"], ["apache"], [7])])
                stats = executor.fabric_stats()
                assert stats["requeued"] == 1
                assert stats["crashed"] == 1
            drained = handle.drain()
            assert drained["workers_alive"] == 0
        # the drain barrier tore the fabric down with the gateway
        assert executor.fabric_stats() is None
        for pid in pids - {victim}:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_submissions_while_draining_get_typed_error(self, sock_dir):
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(sock_dir, executor, workers=1, batch=1) as handle:
                with connect(handle) as client:
                    client.submit(["shared"], ["apache"], seeds=[1],
                                  settings=SETTINGS_WIRE)
                    drain_reply = {}
                    thread = threading.Thread(
                        target=lambda: drain_reply.update(handle.drain()))
                    thread.start()
                    wait_until(lambda: client.health()["draining"],
                               "the drain to begin")
                    with pytest.raises(GatewayError) as exc:
                        client.submit(["shared"], ["apache"], seeds=[9],
                                      settings=SETTINGS_WIRE)
                    assert (exc.value.status, exc.value.code) == \
                        (503, "draining")
                    gate.set()
                    thread.join(timeout=60)
                    assert drain_reply.get("drained") is True
        finally:
            gate.set()


# -- event tracing + live gauges ----------------------------------------------

class TestTracingAndGauges:
    def test_snapshots_carry_queue_and_worker_gauges(self, sock_dir):
        with service(sock_dir, None, workers=1, batch=1) as handle:
            with connect(handle) as client:
                job = client.submit(["shared"], ["apache"], seeds=[3],
                                    settings=SETTINGS_WIRE)["job"]
                gauges = client.wait(job)["gauges"]
                assert set(gauges) >= {"queue_backlog", "queue_inflight",
                                       "queue_limit", "workers_busy",
                                       "workers", "procs_busy", "procs"}
                assert gauges["queue_backlog"] == 0  # job is done
                assert gauges["workers"] == 1
                assert gauges["procs"] == 1  # simulation processes
                status = client.status()
                assert status["workers_busy"] == 0
                assert status["procs_busy"] == 0
                assert status["procs"] == 1
                # jobs=1 is the serial fallback: the fabric never starts
                assert status["fabric"] is None

    def test_watch_stream_includes_gauges(self, sock_dir):
        with service(sock_dir, None, workers=1, batch=1) as handle:
            with connect(handle) as client:
                job = client.submit(["shared"], ["apache"], seeds=[4],
                                    settings=SETTINGS_WIRE)["job"]
                progress = [e for e in client.events(job)
                            if e.get("event") == "progress"]
                assert progress
                assert all("gauges" in e for e in progress)

    def test_traced_submit_exports_valid_chrome_trace(self, sock_dir,
                                                      tmp_path, monkeypatch):
        from repro.obs import trace as obs
        from repro.obs.export import (events_of_category, span_names,
                                      validate_chrome)

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        with service(sock_dir, None, workers=1, batch=1) as handle:
            with connect(handle) as client:
                job = client.submit(["esp-nuca"], ["apache"], seeds=[5],
                                    trace=True,
                                    settings=SETTINGS_WIRE)["job"]
                snap = client.wait(job)
                assert snap["state"] == "done"
                assert snap["trace"] is True
                assert snap.get("trace_error") is None
                # The server-side export path is not shown to clients.
                assert "trace_path" not in snap
                payload = client.trace(job)
        exported = tmp_path / "traces" / f"{job}.trace.json"
        assert json.loads(exported.read_text(encoding="utf-8")) == payload
        # The tracer was uninstalled when the job finished.
        assert obs.active() is obs.NULL_TRACER
        assert validate_chrome(payload) == []
        # Lifecycle spans + gauges counters on the service track.
        service_events = events_of_category(payload, "service")
        assert {e["name"] for e in service_events} >= \
            {"job admitted", "queue depth", "busy workers"}
        lifecycle = [e["name"] for e in service_events if e["ph"] == "X"]
        assert "running" in lifecycle
        # Sim-clock events from the worker's simulation made it in.
        assert events_of_category(payload, "l2")
        assert any(name.startswith("run esp-nuca/")
                   for name in span_names(payload))

    def test_one_traced_job_at_a_time(self, sock_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(sock_dir, executor, workers=1, batch=1) as handle:
                with connect(handle) as client:
                    first = client.submit(["shared"], ["apache"], seeds=[6],
                                          trace=True,
                                          settings=SETTINGS_WIRE)["job"]
                    with pytest.raises(GatewayError) as exc:
                        client.submit(["shared"], ["apache"], seeds=[8],
                                      trace=True, settings=SETTINGS_WIRE)
                    assert (exc.value.status, exc.value.code) == \
                        (400, "bad-request")
                    # The reject does not name the traced job.
                    assert first not in str(exc.value)
                    with pytest.raises(GatewayError) as exc:
                        client.trace(first)
                    assert (exc.value.status, exc.value.code) == \
                        (409, "not-done")
                    untraced = client.submit(["shared"], ["apache"],
                                             seeds=[8],
                                             settings=SETTINGS_WIRE)["job"]
                    gate.set()
                    assert finish(client, first)["state"] == "done"
                    assert client.trace(first)["traceEvents"]
                    client.wait(untraced)
                    with pytest.raises(GatewayError) as exc:
                        client.trace(untraced)
                    assert (exc.value.status, exc.value.code) == \
                        (404, "not-traced")
                    # The slot is free again for a new traced job.
                    again = client.submit(["shared"], ["apache"], seeds=[9],
                                          trace=True,
                                          settings=SETTINGS_WIRE)["job"]
                    assert client.wait(again)["trace"] is True
                    assert client.trace(again)["traceEvents"]
        finally:
            gate.set()

    def test_keyed_gateway_refuses_traced_submits(self, sock_dir):
        """A trace records every tenant's concurrent work, so only an
        ``allow_anonymous`` (dev/CI) gateway accepts ``trace``."""
        db = f"{sock_dir}/gw.sqlite"
        with JobStore.open(db) as store:
            _, key = store.add_tenant("alice")
        with service(sock_dir, None, allow_anonymous=False) as handle:
            with connect(handle, api_key=key) as client:
                with pytest.raises(GatewayError) as exc:
                    client.submit(["shared"], ["apache"], seeds=[5],
                                  trace=True, settings=SETTINGS_WIRE)
                assert (exc.value.status, exc.value.code) == \
                    (400, "bad-request")
                assert "--allow-anonymous" in str(exc.value)
                # Untraced submits from the same tenant are unaffected.
                job = client.submit(["shared"], ["apache"], seeds=[5],
                                    settings=SETTINGS_WIRE)["job"]
                assert client.wait(job)["state"] == "done"


# -- hostile and broken clients on the unix socket ----------------------------

class TestProtocolHardening:
    """A hostile or broken client must get a typed error (where a reply
    is still possible) and must never wedge a worker or kill the
    gateway: every test ends by proving a fresh connection still does
    real work."""

    def _raw_connect(self, handle):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(handle.address[1])
        sock.settimeout(CLIENT_TIMEOUT)
        return sock

    def _still_serving(self, handle):
        with connect(handle) as client:
            job = client.submit(["shared"], ["apache"], seeds=[77],
                                settings=SETTINGS_WIRE)["job"]
            assert client.wait(job)["state"] == "done"

    def test_malformed_json_line_gets_typed_error(self, sock_dir):
        with service(sock_dir, None) as handle:
            sock = self._raw_connect(handle)
            try:
                body = b'{"architectures": ["shared"], not json}'
                sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: %d\r\n\r\n%s"
                             % (len(body), body))
                stream = sock.makefile("rb")
                assert b" 400 " in stream.readline()
                length = 0
                for line in iter(stream.readline, b"\r\n"):
                    name, _, value = line.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                reply = json.loads(stream.read(length))
                assert reply["error"]["code"] == "bad-json"
            finally:
                sock.close()
            self._still_serving(handle)

    def test_abrupt_disconnect_mid_watch_leaves_job_running(self, sock_dir):
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(sock_dir, executor, workers=1, batch=1) as handle:
                with connect(handle) as client:
                    job = client.submit(["shared"], ["apache"], seeds=[21],
                                        settings=SETTINGS_WIRE)["job"]
                # A raw watcher that vanishes mid-stream (first snapshot
                # arrives, then the socket dies without a goodbye).
                sock = self._raw_connect(handle)
                sock.sendall(b"GET /v1/jobs/" + job.encode() +
                             b"/events HTTP/1.1\r\nHost: x\r\n\r\n")
                stream = sock.makefile("rb")
                while b"data: " not in stream.readline():
                    pass
                sock.close()  # abrupt: no unsubscribe, mid-subscription
                gate.set()
                # The job is unaffected and a healthy client still sees
                # it complete with results.
                with connect(handle) as client:
                    end = finish(client, job)
                    assert end["state"] == "done"
                    assert len(end["results"]) == 1
                self._still_serving(handle)
        finally:
            gate.set()


# -- the submit CLI -----------------------------------------------------------

class TestSubmitCli:
    def test_submit_json_and_trace_out(self, sock_dir, tmp_path,
                                       monkeypatch, capsys):
        """``esp-nuca submit`` against an in-process gateway on a unix
        socket: ``--json -`` prints byte-identical results, ``--trace
        --out`` saves the job's Chrome trace fetched over HTTP."""
        from repro.common.rng import perturbed_seeds
        from repro.harness.cli import main as cli_main
        from repro.obs.export import validate_chrome

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        fidelity = ["--refs", str(QUICK.refs_per_core),
                    "--warmup", str(QUICK.warmup_refs_per_core),
                    "--scale", str(QUICK.capacity_factor), "--seeds", "1"]
        with service(sock_dir, None) as handle:
            base = ["submit", "--http", handle.base_url,
                    "--workload", "apache"] + fidelity
            assert cli_main(base + ["--arch", "shared,esp-nuca",
                                    "--json", "-"]) == 0
            printed = json.loads(capsys.readouterr().out)
            seeds = perturbed_seeds(QUICK.base_seed, 1)
            assert canonical(printed) == canonical(reference_payloads(
                ["shared", "esp-nuca"], ["apache"], seeds))

            out = str(tmp_path / "job.trace.json")
            assert cli_main(base + ["--arch", "private", "--trace",
                                    "--out", out]) == 0
            assert f"to {out}" in capsys.readouterr().out
        with open(out, encoding="utf-8") as handle_:
            assert validate_chrome(json.load(handle_)) == []

    def test_submit_watch_and_no_wait(self, sock_dir, tmp_path,
                                      monkeypatch, capsys):
        """``--watch`` prints progress frames before the results;
        ``--no-wait`` returns at admission with the job id; an
        unreachable gateway is a clean error, not a traceback."""
        from repro.harness.cli import main as cli_main

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))

        fidelity = ["--refs", str(QUICK.refs_per_core),
                    "--warmup", str(QUICK.warmup_refs_per_core),
                    "--scale", str(QUICK.capacity_factor), "--seeds", "1",
                    "--workload", "apache"]
        with service(sock_dir, None) as handle:
            base = ["submit", "--http", handle.base_url] + fidelity
            assert cli_main(base + ["--arch", "shared", "--watch"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith("[g1] ")
            assert "point(s) done" in lines[0]
            assert any(line.startswith("job g1: done, 1 result(s)")
                       for line in lines)
            assert cli_main(base + ["--arch", "private", "--no-wait"]) == 0
            assert capsys.readouterr().out.startswith("job g2: ")
            with connect(handle) as client:
                assert client.wait("g2")["state"] == "done"
            # A traced --no-wait submit says where its trace will be.
            assert cli_main(base + ["--arch", "esp-nuca", "--trace",
                                    "--no-wait"]) == 0
            out = capsys.readouterr().out
            assert out.startswith("job g3: ")
            assert "GET /v1/jobs/g3/trace once the job ends" in out
            with connect(handle) as client:
                assert client.wait("g3")["state"] == "done"
                assert client.trace("g3")["traceEvents"]
        assert cli_main(["submit", "--http", f"unix:{sock_dir}/gone.sock"]
                        + fidelity) == 1
        assert "cannot reach the gateway" in capsys.readouterr().err
