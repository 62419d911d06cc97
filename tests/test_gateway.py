"""HTTP gateway: store migrations, auth/admission primitives, the REST
API end to end (real tiny-fidelity simulations), crash recovery, and
hostile-client hardening.

The acceptance contract pinned here:

* the SQLite store migrates forward in versioned steps (a v1 database
  upgrades in place; a newer database is refused, never corrupted);
* API keys authenticate tenants, cross-tenant access is an
  indistinguishable 404, and quota/rate rejects are typed 429s;
* a backlog stored as ``queued``/``running`` is recovered on startup
  and completes with results byte-identical to direct serial runs;
* stored results survive even when the results table is missing rows —
  the run cache backstops them;
* the route table and the served OpenAPI document stay in sync;
* malformed or oversized HTTP input gets a typed 4xx and never kills
  the gateway.
"""

import json
import socket
import threading

import pytest

from repro.gateway import (GatewayClient, GatewayConfig, GatewayError,
                           GatewayThread, JobStore, StoreError, TokenBucket,
                           generate_key, hash_key)
from repro.gateway import http as ghttp
from repro.gateway.auth import validate_tenant
from repro.gateway.store import available_migrations
from repro.harness.executor import Executor
from repro.harness.runcache import RunCache
from repro.harness.runner import RunSettings, grid_points

QUICK = RunSettings(capacity_factor=8, refs_per_core=400,
                    warmup_refs_per_core=100, num_seeds=1)
SETTINGS_WIRE = {"refs_per_core": QUICK.refs_per_core,
                 "warmup_refs_per_core": QUICK.warmup_refs_per_core,
                 "capacity_factor": QUICK.capacity_factor}


class GatedExecutor(Executor):
    """Real executor that can hold batches at a gate so tests can pin
    jobs in flight while quota/cancel assertions run."""

    def __init__(self, *args, gate=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._gate = gate

    def run(self, points):
        if self._gate is not None:
            assert self._gate.wait(timeout=60), "test gate never released"
        return super().run(points)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def quick_points(archs, workloads, seeds):
    from repro.common.config import scaled_config

    return grid_points(scaled_config(QUICK.capacity_factor), QUICK,
                       archs, workloads, seeds)


def reference_payloads(archs, workloads, seeds):
    """Direct serial executor run of the same grid, no caches."""
    executor = Executor(jobs=1, cache=RunCache(enabled=False))
    return [r.to_dict() for r in executor.run(
        quick_points(archs, workloads, seeds))]


def gateway(db, executor=None, cache_dir=None, **config):
    if executor is None:
        cache = (RunCache(root=str(cache_dir)) if cache_dir
                 else RunCache(enabled=False))
        executor = Executor(jobs=1, cache=cache)
    config.setdefault("bind", ("tcp", "127.0.0.1", 0))
    config.setdefault("db_path", str(db))
    return GatewayThread(GatewayConfig(**config), executor=executor,
                         settings=QUICK)


def wire_texts(payloads):
    """What a job hands the store: each payload as its wire JSON."""
    return {key: json.dumps(payload, sort_keys=True)
            for key, payload in payloads.items()}


def mint(db, name, **quotas):
    """Create a tenant in a (closed-afterwards) store; returns the key."""
    with JobStore.open(str(db)) as store:
        _, key = store.add_tenant(name, **quotas)
    return key


# -- migrations ---------------------------------------------------------------

class TestMigrations:
    def test_shipped_migrations_are_a_sequence(self):
        shipped = available_migrations()
        assert [v for v, _ in shipped] == list(range(1, len(shipped) + 1))
        assert shipped[0][1] == "0001_initial.sql"

    def test_fresh_database_migrates_to_head(self, tmp_path):
        with JobStore(str(tmp_path / "a.sqlite")) as store:
            assert store.version() == 0
            applied = store.migrate()
            assert applied == [name for _, name in available_migrations()]
            assert store.version() == len(applied)
            assert store.migrate() == []  # idempotent

    def test_partial_upgrade_preserves_rows(self, tmp_path):
        """A database built at v1, with data, upgrades in place: the
        remaining migrations run and the old rows gain the new columns
        (``jobs.tenant`` arrives in 0002)."""
        path = str(tmp_path / "old.sqlite")
        with JobStore(path) as store:
            assert store.migrate(upto=1) == ["0001_initial.sql"]
            assert store.version() == 1
            with store._lock:
                store._conn.execute(
                    "INSERT INTO jobs (state, priority, request, "
                    "created_at, updated_at) VALUES "
                    "('queued', 0, '{}', 1.0, 1.0)")
                store._conn.commit()
        with JobStore(path) as store:
            assert [v for v, _ in store.pending_migrations()] == \
                list(range(2, len(available_migrations()) + 1))
            store.migrate()
            row = store.get_job(1)
            assert row["state"] == "queued"
            assert row["tenant"] is None  # new column, backfilled NULL
            store.add_tenant("later")  # 0002's table exists too

    def test_newer_database_is_refused(self, tmp_path):
        """An old binary (fewer shipped migrations) must refuse a newer
        database instead of guessing at its schema."""
        import shutil

        from repro.gateway.store import MIGRATIONS_DIR

        path = str(tmp_path / "new.sqlite")
        JobStore.open(path).close()  # at head (>= 3 migrations)
        old_build = tmp_path / "old-migrations"
        old_build.mkdir()
        shutil.copy(f"{MIGRATIONS_DIR}/0001_initial.sql", old_build)
        store = JobStore(path, migrations=str(old_build))
        try:
            with pytest.raises(StoreError, match="newer"):
                store.pending_migrations()
            with pytest.raises(StoreError, match="newer"):
                store.migrate()
        finally:
            store.close()

    def test_gapped_migration_files_are_rejected(self, tmp_path):
        gapped = tmp_path / "migrations"
        gapped.mkdir()
        (gapped / "0001_initial.sql").write_text("CREATE TABLE a (x);")
        (gapped / "0003_oops.sql").write_text("CREATE TABLE b (x);")
        with pytest.raises(StoreError, match="1..N"):
            available_migrations(str(gapped))

    def test_failed_migration_rolls_back_and_is_not_recorded(self, tmp_path):
        broken = tmp_path / "migrations"
        broken.mkdir()
        (broken / "0001_bad.sql").write_text("THIS IS NOT SQL;")
        store = JobStore(str(tmp_path / "b.sqlite"),
                         migrations=str(broken))
        try:
            with pytest.raises(StoreError, match="0001_bad.sql"):
                store.migrate()
            assert store.version() == 0
        finally:
            store.close()


# -- auth primitives ----------------------------------------------------------

class TestAuth:
    def test_tenant_name_contract(self):
        for good in ("a", "alice", "team-7", "x_1", "a" * 32):
            assert validate_tenant(good) == good
        for bad in ("", "Alice", "a.b", "-lead", "a" * 33, 7, None):
            with pytest.raises((ValueError, TypeError)):
                validate_tenant(bad)

    def test_keys_are_prefixed_random_and_hash_stably(self):
        key = generate_key()
        assert key.startswith("esp_") and len(key) > 20
        assert key != generate_key()
        assert hash_key(key) == hash_key(key)
        assert len(hash_key(key)) == 64  # sha256 hex
        assert key not in hash_key(key)

    def test_token_bucket_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(capacity=2, refill=0.5, clock=lambda: now[0])
        assert bucket.take() == (True, 0.0)
        assert bucket.take() == (True, 0.0)
        ok, retry = bucket.take()
        assert not ok and retry == pytest.approx(2.0)  # 1 token / 0.5 tps
        now[0] += 2.0
        assert bucket.take() == (True, 0.0)
        # refill caps at capacity: a long sleep buys one burst, not many
        now[0] += 1000.0
        assert bucket.tokens == pytest.approx(2.0)

    def test_token_bucket_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=5, refill=0.0)


# -- store behavior -----------------------------------------------------------

class TestStore:
    def test_tenant_key_round_trip(self, tmp_path):
        with JobStore.open(str(tmp_path / "t.sqlite")) as store:
            row, key = store.add_tenant("alice", max_jobs=7)
            assert row["max_jobs"] == 7
            assert store.find_tenant_by_key(key)["name"] == "alice"
            assert store.find_tenant_by_key("esp_wrong") is None
            assert key not in str(store.get_tenant("alice"))  # only hash
            with pytest.raises(StoreError, match="already exists"):
                store.add_tenant("alice")

    def test_job_rows_and_tenant_scoped_listing(self, tmp_path):
        with JobStore.open(str(tmp_path / "j.sqlite")) as store:
            points = [("k1", "esp-nuca", "apache", 7),
                      ("k2", "shared", "apache", 7)]
            a = store.create_job({"architectures": ["x"]}, 0, "alice", points)
            b = store.create_job({}, 5, "bob", points[:1])
            anon = store.create_job({}, 0, None, points[:1])
            assert [p["point_key"] for p in store.job_points(a)] == \
                ["k1", "k2"]
            assert [r["id"] for r in store.list_jobs("alice")] == [a]
            assert [r["id"] for r in store.list_jobs("bob")] == [b]
            assert [r["id"] for r in store.list_jobs(None)] == [anon]
            assert [r["id"] for r in store.list_jobs(any_tenant=True)] == \
                [anon, b, a]  # newest first
            assert [r["id"] for r in store.unfinished_jobs()] == [a, b, anon]
            store.set_job_state(b, "done")
            store.set_job_state(a, "failed", "boom")
            assert store.counts_by_state() == \
                {"done": 1, "failed": 1, "queued": 1}
            assert store.get_job(a)["error"] == "boom"
            store.delete_job(anon)
            assert store.get_job(anon) is None
            assert store.job_points(anon) == []

    def test_results_upsert_and_chunked_lookup(self, tmp_path):
        with JobStore.open(str(tmp_path / "r.sqlite")) as store:
            many = {f"key{i}": {"i": i} for i in range(503)}
            store.record_results(wire_texts(many))
            store.record_results(wire_texts({"key0": {"i": 0}}))  # upsert
            assert store.result_count() == 503
            got = store.result_payloads(list(many) + ["absent"])
            assert got == many  # >500 keys exercises the IN-chunking
            assert "absent" not in got

    def test_replayed_results_are_not_rewritten(self, tmp_path):
        with JobStore.open(str(tmp_path / "r.sqlite")) as store:
            grid = wire_texts({f"key{i}": {"i": i} for i in range(4)})
            store.record_results(grid)

            def created():
                return dict(store._conn.execute(
                    "SELECT point_key, created_at FROM results").fetchall())

            stamps = created()
            changes = store._conn.total_changes
            store.record_results(grid)  # a cache-hit replay of the grid
            assert store._conn.total_changes == changes
            assert created() == stamps
            store.record_results({**grid, **wire_texts({"key4": {"i": 4}})})
            assert store._conn.total_changes == changes + 1
            assert {k: v for k, v in created().items()
                    if k != "key4"} == stamps
            assert store.result_payloads(["key4"]) == {"key4": {"i": 4}}


# -- the REST API, end to end -------------------------------------------------

class TestGatewayHttp:
    def test_submit_watch_results_list_cached_resubmit(self, tmp_path):
        key = mint(tmp_path / "g.sqlite", "alice",
                   rate_capacity=100, rate_refill=50)
        with gateway(tmp_path / "g.sqlite",
                     cache_dir=tmp_path / "cache") as handle:
            with GatewayClient(handle.base_url, api_key=key) as client:
                assert client.health()["ok"] is True
                reply = client.submit(["esp-nuca", "shared"], ["apache"],
                                      seeds=[7], settings=SETTINGS_WIRE)
                job = reply["job"]
                assert job.startswith("g")
                events = list(client.events(job))
                assert events[-1]["event"] == "end"
                assert events[-1]["state"] == "done"
                results = client.results(job)["results"]
                assert [canonical(r) for r in results] == \
                    [canonical(r) for r in reference_payloads(
                        ["esp-nuca", "shared"], ["apache"], [7])]
                # identical grid again: served from cache, results inline
                again = client.submit(["esp-nuca", "shared"], ["apache"],
                                      seeds=[7], settings=SETTINGS_WIRE)
                assert again["state"] == "done"
                assert again["cached"] == 2
                assert canonical(again["results"]) == canonical(results)
                listing = client.jobs()
                assert [j["job"] for j in listing] == [again["job"], job]
                assert {j["state"] for j in listing} == {"done"}
                status = client.status()
                assert status["gateway"]["admits"] == 2
                assert status["store"]["results"] == 2
                snap = client.job(job, points=True)
                assert snap["state"] == "done" and "points" in snap

    def test_results_before_done_is_409_and_cancel_drops_job(self, tmp_path):
        gate = threading.Event()
        db = tmp_path / "c.sqlite"
        key = mint(db, "alice", rate_capacity=100, rate_refill=50)
        executor = GatedExecutor(jobs=1, cache=RunCache(enabled=False),
                                 gate=gate)
        try:
            with gateway(db, executor, workers=1, batch=1) as handle:
                with GatewayClient(handle.base_url, api_key=key) as client:
                    blocker = client.submit(["shared"], ["apache"], seeds=[1],
                                            settings=SETTINGS_WIRE)["job"]
                    victim = client.submit(["private"], ["apache"], seeds=[2],
                                           settings=SETTINGS_WIRE)["job"]
                    with pytest.raises(GatewayError) as exc:
                        client.results(victim)
                    assert exc.value.status == 409
                    assert exc.value.code == "not-done"
                    assert client.cancel(victim)["state"] == "cancelled"
                    gate.set()
                    assert client.wait(blocker)["state"] == "done"
                    # the tracker persisted both terminal states
                    assert client.status()["store"]["jobs"] == \
                        {"done": 1, "cancelled": 1}
        finally:
            gate.set()

    def test_auth_required_invalid_and_cross_tenant_404(self, tmp_path):
        db = tmp_path / "a.sqlite"
        key = mint(db, "alice", rate_capacity=100, rate_refill=50)
        other = mint(db, "bob", rate_capacity=100, rate_refill=50)
        with gateway(db, cache_dir=tmp_path / "cache") as handle:
            alice = GatewayClient(handle.base_url, api_key=key)
            job = alice.submit(["shared"], ["apache"], seeds=[3],
                               settings=SETTINGS_WIRE)["job"]
            alice.wait(job)
            with pytest.raises(GatewayError) as exc:
                GatewayClient(handle.base_url).status()
            assert (exc.value.status, exc.value.code) == \
                (401, "auth-required")
            with pytest.raises(GatewayError) as exc:
                GatewayClient(handle.base_url, api_key="esp_bogus").status()
            assert (exc.value.status, exc.value.code) == (403, "auth-invalid")
            bob = GatewayClient(handle.base_url, api_key=other)
            # bob can't see, fetch, or cancel alice's job — and the 404
            # is the same one an absent id gets (no existence oracle)
            for poke in (lambda: bob.job(job), lambda: bob.results(job),
                         lambda: bob.cancel(job), lambda: bob.job("g999")):
                with pytest.raises(GatewayError) as exc:
                    poke()
                assert (exc.value.status, exc.value.code) == \
                    (404, "unknown-job")
            assert bob.jobs() == []
            assert [j["job"] for j in alice.jobs()] == [job]

    def test_quota_jobs_quota_points_and_rate_limit(self, tmp_path):
        gate = threading.Event()
        db = tmp_path / "q.sqlite"
        jobs_key = mint(db, "narrow", max_jobs=1, max_points=64,
                        rate_capacity=100, rate_refill=50)
        points_key = mint(db, "tiny", max_jobs=8, max_points=2,
                          rate_capacity=100, rate_refill=50)
        rate_key = mint(db, "bursty", max_jobs=8, max_points=64,
                        rate_capacity=1, rate_refill=0.001)
        executor = GatedExecutor(jobs=1, cache=RunCache(enabled=False),
                                 gate=gate)
        try:
            with gateway(db, executor, workers=1, batch=1) as handle:
                url = handle.base_url
                narrow = GatewayClient(url, api_key=jobs_key)
                held = narrow.submit(["shared"], ["apache"], seeds=[1],
                                     settings=SETTINGS_WIRE)["job"]
                with pytest.raises(GatewayError) as exc:
                    narrow.submit(["shared"], ["apache"], seeds=[2],
                                  settings=SETTINGS_WIRE)
                assert (exc.value.status, exc.value.code) == \
                    (429, "quota-jobs")

                tiny = GatewayClient(url, api_key=points_key)
                with pytest.raises(GatewayError) as exc:
                    tiny.submit(["shared", "private", "esp-nuca"],
                                ["apache"], seeds=[1],
                                settings=SETTINGS_WIRE)
                assert (exc.value.status, exc.value.code) == \
                    (429, "quota-points")

                bursty = GatewayClient(url, api_key=rate_key)
                bursty.submit(["shared"], ["apache"], seeds=[1],
                              settings=SETTINGS_WIRE)
                with pytest.raises(GatewayError) as exc:
                    bursty.submit(["shared"], ["apache"], seeds=[1],
                                  settings=SETTINGS_WIRE)
                assert (exc.value.status, exc.value.code) == \
                    (429, "rate-limited")
                assert exc.value.retry_after >= 1
                gate.set()
                narrow.wait(held)
                # quota released once the job finished
                narrow.submit(["shared"], ["apache"], seeds=[2],
                              settings=SETTINGS_WIRE)
                rejects = narrow.status()["gateway"]["rejects"]
                assert rejects["quota_jobs"] == 1
                assert rejects["quota_points"] == 1
                assert rejects["rate_limited"] == 1
                tenants = narrow.status()["gateway"]["tenants"]
                assert tenants["bursty"]["rate_hits"] == 1
        finally:
            gate.set()

    def test_bad_grid_is_400_and_bad_method_405(self, tmp_path):
        with gateway(tmp_path / "b.sqlite",
                     allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                with pytest.raises(GatewayError) as exc:
                    client.submit(["no-such-arch"], ["apache"], seeds=[1])
                assert (exc.value.status, exc.value.code) == \
                    (400, "bad-request")
                with pytest.raises(GatewayError) as exc:
                    client.request("POST", "/healthz", {})
                assert exc.value.status == 405

    def test_routes_match_openapi_spec(self, tmp_path, monkeypatch):
        """Every path+method the OpenAPI document describes is actually
        served (nothing answers the routeless 404), and the route table
        has not grown past the document."""
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        with gateway(tmp_path / "o.sqlite", cache_dir=tmp_path / "cache",
                     allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                spec = client.openapi()
                documented = {(path, method.upper())
                              for path, ops in spec["paths"].items()
                              for method in ops}
                assert documented == {
                    ("/healthz", "GET"), ("/readyz", "GET"),
                    ("/metrics", "GET"), ("/openapi.json", "GET"),
                    ("/v1/status", "GET"),
                    ("/v1/jobs", "GET"), ("/v1/jobs", "POST"),
                    ("/v1/jobs/{id}", "GET"), ("/v1/jobs/{id}", "DELETE"),
                    ("/v1/jobs/{id}/results", "GET"),
                    ("/v1/jobs/{id}/events", "GET"),
                    ("/v1/jobs/{id}/trace", "GET"),
                }
                assert "trace" in spec["paths"]["/v1/jobs"]["post"][
                    "requestBody"]["content"]["application/json"][
                    "schema"]["properties"]
                job = client.submit(["shared"], ["apache"], seeds=[5],
                                    settings=SETTINGS_WIRE,
                                    trace=True)["job"]
                client.wait(job)
                for path, method in sorted(documented):
                    url = path.replace("{id}", job)
                    body = ({"architectures": ["shared"],
                             "workloads": ["apache"], "seeds": [5],
                             "settings": SETTINGS_WIRE}
                            if method == "POST" else None)
                    reply = client.request(method, url, body)
                    assert "error" not in reply, (path, method, reply)
                with pytest.raises(GatewayError) as exc:
                    client.request("GET", "/v1/nothing-here")
                assert (exc.value.status, exc.value.code) == \
                    (404, "not-found")


# -- crash recovery -----------------------------------------------------------

class TestRecovery:
    def _store_backlog(self, db, grids):
        """Persist ``queued`` jobs exactly as a pre-crash gateway would
        have (canonical request JSON + grid-order point rows)."""
        pks = []
        with JobStore.open(str(db)) as store:
            for archs, workloads, seeds in grids:
                request = {"architectures": archs, "workloads": workloads,
                           "seeds": seeds, "settings": SETTINGS_WIRE}
                points = quick_points(archs, workloads, seeds)
                pks.append(store.create_job(
                    request, 0, None,
                    [(p.key, p.name, p.workload, p.seed) for p in points]))
        return pks

    def test_stored_backlog_recovers_byte_identical(self, tmp_path):
        db = tmp_path / "rec.sqlite"
        grids = [(["esp-nuca"], ["apache"], [31]),
                 (["shared", "private"], ["apache"], [32])]
        pks = self._store_backlog(db, grids)
        with gateway(db, cache_dir=tmp_path / "cache",
                     allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                for pk, (archs, workloads, seeds) in zip(pks, grids):
                    snap = client.wait(f"g{pk}")
                    assert snap["state"] == "done"
                    got = client.results(f"g{pk}")["results"]
                    want = reference_payloads(archs, workloads, seeds)
                    assert canonical(got) == canonical(want)
                status = client.status()
                assert status["gateway"]["recovered"] == len(pks)
                assert status["recovering"] is False
                assert status["store"]["jobs"] == {"done": len(pks)}

    def test_unrecoverable_request_is_failed_not_retried_forever(
            self, tmp_path):
        db = tmp_path / "bad.sqlite"
        with JobStore.open(str(db)) as store:
            pk = store.create_job(
                {"architectures": ["removed-arch"], "workloads": ["apache"]},
                0, None, [("k", "removed-arch", "apache", 1)])
        with gateway(db, allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                snap = client.wait(f"g{pk}")
                assert snap["state"] == "failed"
                assert "unrecoverable" in snap["errors"]["job"]

    def test_trace_is_not_persisted_across_restart(self, tmp_path,
                                                   monkeypatch):
        """``trace`` is not a stored request field: the stored request
        re-expands to an untraced job, and after a restart the trace
        route answers 404 ``not-traced`` while results still serve."""
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        db = tmp_path / "t.sqlite"
        with gateway(db, cache_dir=tmp_path / "cache",
                     allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                job = client.submit(["shared"], ["apache"], seeds=[43],
                                    settings=SETTINGS_WIRE,
                                    trace=True)["job"]
                client.wait(job)
                assert client.trace(job)["traceEvents"]
        with JobStore.open(str(db)) as store:
            request = json.loads(store.get_job(int(job[1:]))["request"])
        assert "trace" not in request
        with gateway(db, cache_dir=tmp_path / "cache",
                     allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                with pytest.raises(GatewayError) as exc:
                    client.trace(job)
                assert (exc.value.status, exc.value.code) == \
                    (404, "not-traced")
                assert client.results(job)["state"] == "done"

    def test_terminal_results_backstopped_by_run_cache(self, tmp_path):
        """A crash between the run-cache write and the store commit
        leaves a done job with no results rows; the results endpoint
        must serve them from the cache instead of 500ing."""
        db1, db2 = tmp_path / "one.sqlite", tmp_path / "two.sqlite"
        cache_dir = tmp_path / "cache"
        key = mint(db1, "alice", rate_capacity=100, rate_refill=50)
        with gateway(db1, cache_dir=cache_dir) as handle:
            with GatewayClient(handle.base_url, api_key=key) as client:
                job = client.submit(["esp-nuca"], ["apache"], seeds=[41],
                                    settings=SETTINGS_WIRE)["job"]
                client.wait(job)
                results = client.results(job)["results"]
        # A second store that believes the job is done but holds no
        # result rows (the under-reporting crash window).
        points = quick_points(["esp-nuca"], ["apache"], [41])
        with JobStore.open(str(db2)) as store:
            pk = store.create_job(
                {"architectures": ["esp-nuca"], "workloads": ["apache"],
                 "seeds": [41], "settings": SETTINGS_WIRE}, 0, None,
                [(p.key, p.name, p.workload, p.seed) for p in points])
            store.set_job_state(pk, "done")
            assert store.result_count() == 0
        with gateway(db2, cache_dir=cache_dir,
                     allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                got = client.results(f"g{pk}")
                assert got["state"] == "done"
                assert canonical(got["results"]) == canonical(results)
                # the SSE stream of a stored-terminal job ends at once
                events = list(client.events(f"g{pk}"))
                assert len(events) == 1
                assert events[0]["event"] == "end"
                assert events[0]["stored"] is True


# -- wire bytes of every result-carrying route --------------------------------

def old_encoding(obj):
    """The reply encoder before results were spliced as encoded text:
    the oracle every result-carrying body must still match."""
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


def raw_exchange(handle, method, path, body=None):
    """One request on its own connection; returns ``(status, body)``
    with the body bytes as sent (de-chunked for an SSE stream)."""
    _, host, port = handle.address
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    with socket.create_connection((host, port), timeout=120) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
                     f"Connection: close\r\n"
                     f"Content-Length: {len(data)}\r\n\r\n".encode("ascii")
                     + data)
        raw = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            raw += chunk
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    if b"transfer-encoding: chunked" not in head.lower():
        return status, rest
    body = b""
    while True:
        size, _, rest = rest.partition(b"\r\n")
        size = int(size, 16)
        if not size:
            return status, body
        body, rest = body + rest[:size], rest[size + 2:]


class TestWireBytes:
    """Every body that carries results is byte for byte what the old
    encoder gives the decoded reply, whether its payloads were encoded
    when a point completed, come from the run cache's memo, or mix
    stored rows with run-cache fallbacks after a restart."""

    GRID = (["shared", "esp-nuca"], ["apache"], [61])

    def _json(self, handle, path, status=200):
        got, body = raw_exchange(handle, "GET", path)
        assert got == status
        reply = json.loads(body)
        assert body == old_encoding(reply)
        return reply

    def _end_frame(self, handle, job):
        status, body = raw_exchange(handle, "GET", f"/v1/jobs/{job}/events")
        assert status == 200
        frames = body.split(b"\n\n")
        assert frames[-1] == b""
        assert all(frame.startswith(b"data: ") for frame in frames[:-1])
        text = frames[-2][len(b"data: "):]
        end = json.loads(text)
        assert end["event"] == "end"
        assert text + b"\n" == old_encoding(end)
        return end

    def _check_routes(self, handle, job, want, stored=False):
        results = self._json(handle, f"/v1/jobs/{job}/results")
        assert canonical(results["results"]) == canonical(want)
        end = self._end_frame(handle, job)
        assert canonical(end["results"]) == canonical(want)
        assert end.get("stored", False) is stored

    def test_result_routes_match_the_old_encoder(self, tmp_path):
        archs, workloads, seeds = self.GRID
        want = reference_payloads(archs, workloads, seeds)
        request = {"architectures": archs, "workloads": workloads,
                   "seeds": seeds, "settings": SETTINGS_WIRE}
        db, cache_dir = tmp_path / "w.sqlite", tmp_path / "cache"
        with gateway(db, cache_dir=cache_dir,
                     allow_anonymous=True) as handle:
            status, body = raw_exchange(handle, "POST", "/v1/jobs", request)
            assert status == 201 and body == old_encoding(json.loads(body))
            cold = json.loads(body)["job"]
            assert GatewayClient(handle.base_url).wait(cold)["state"] == \
                "done"
            self._check_routes(handle, cold, want)  # encoded on completion
            status, body = raw_exchange(handle, "POST", "/v1/jobs", request)
            assert status == 201
            hit = json.loads(body)
            assert body == old_encoding(hit)  # the cache-hit reply
            assert (hit["state"], hit["cached"]) == ("done", 2)
            assert canonical(hit["results"]) == canonical(want)
            self._check_routes(handle, hit["job"], want)  # memo texts
        keys = [p.key for p in quick_points(archs, workloads, seeds)]
        with JobStore.open(str(db)) as store:
            assert sorted(store.result_payloads(keys)) == sorted(keys)
            with store._lock:
                store._conn.execute("DELETE FROM results WHERE point_key = ?",
                                    (keys[1],))
                store._conn.commit()
            assert list(store.result_payloads(keys)) == [keys[0]]
        with gateway(db, cache_dir=cache_dir,
                     allow_anonymous=True) as handle:
            for job in (cold, hit["job"]):  # a stored row + a fallback
                self._check_routes(handle, job, want, stored=True)


# -- hostile and broken HTTP clients ------------------------------------------

class TestHttpHardening:
    def _raw(self, handle):
        _, host, port = handle.address
        sock = socket.create_connection((host, port), timeout=60)
        return sock

    def _response(self, sock, payload):
        sock.sendall(payload)
        stream = sock.makefile("rb")
        status = stream.readline().decode()
        body = b""
        length = 0
        for line in iter(stream.readline, b"\r\n"):
            if not line:
                break
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        if length:
            body = stream.read(length)
        return status, (json.loads(body) if body else {})

    def _still_serving(self, handle):
        with GatewayClient(handle.base_url) as client:
            reply = client.submit(["shared"], ["apache"], seeds=[91],
                                  settings=SETTINGS_WIRE)
            assert GatewayClient(handle.base_url).wait(
                reply["job"])["state"] == "done"

    def test_malformed_json_body_is_400(self, tmp_path):
        with gateway(tmp_path / "h.sqlite", allow_anonymous=True) as handle:
            sock = self._raw(handle)
            try:
                body = b"{this is not json"
                status, obj = self._response(
                    sock,
                    b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
                assert " 400 " in status
                assert obj["error"]["code"] == "bad-json"
            finally:
                sock.close()
            self._still_serving(handle)

    def test_oversized_request_line_is_431_and_closed(self, tmp_path):
        with gateway(tmp_path / "h.sqlite", allow_anonymous=True) as handle:
            sock = self._raw(handle)
            try:
                path = b"/" + b"a" * (ghttp.MAX_REQUEST_LINE + 64)
                sock.sendall(b"GET " + path + b" HTTP/1.1\r\n\r\n")
                stream = sock.makefile("rb")
                status = stream.readline().decode()
                assert " 431 " in status
                assert stream.read() != b"" and stream.read() == b""
            finally:
                sock.close()
            self._still_serving(handle)

    def test_oversized_body_is_413_without_reading_it(self, tmp_path):
        with gateway(tmp_path / "h.sqlite", allow_anonymous=True) as handle:
            sock = self._raw(handle)
            try:
                status, obj = self._response(
                    sock,
                    b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n"
                    % (ghttp.MAX_BODY_BYTES + 1))
                assert " 413 " in status
                assert obj["error"]["code"] == "body-too-large"
            finally:
                sock.close()
            self._still_serving(handle)

    def test_disconnect_mid_sse_leaves_job_and_daemon_alive(self, tmp_path):
        gate = threading.Event()
        executor = GatedExecutor(jobs=1, cache=RunCache(enabled=False),
                                 gate=gate)
        try:
            with gateway(tmp_path / "h.sqlite", executor,
                         allow_anonymous=True, workers=1,
                         batch=1) as handle:
                client = GatewayClient(handle.base_url)
                job = client.submit(["shared"], ["apache"], seeds=[92],
                                    settings=SETTINGS_WIRE)["job"]
                sock = self._raw(handle)
                sock.sendall(b"GET /v1/jobs/" + job.encode() +
                             b"/events HTTP/1.1\r\nHost: x\r\n\r\n")
                # first progress frame arrives, then the watcher vanishes
                stream = sock.makefile("rb")
                while b"data: " not in stream.readline():
                    pass
                sock.close()
                gate.set()
                assert client.wait(job)["state"] == "done"
                self._still_serving(handle)
        finally:
            gate.set()
