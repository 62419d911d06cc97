"""Fleet telemetry: the /metrics exposition, health probes, structured
logging, run-cache usage accounting and the ``esp-nuca top`` dashboard.

The acceptance contract pinned here:

* ``GET /metrics`` on a live gateway returns valid Prometheus text
  (round-tripped through the validating parser) covering the queue,
  fabric, cache, per-tenant and per-route scopes, and counters are
  monotone across scrapes;
* ``/healthz`` is liveness, ``/readyz`` is readiness: false before the
  store is migrated, false while draining, true in between;
* every request is observed exactly once in the per-route counters —
  including an SSE watcher that disconnects mid-stream (counted as
  ``aborted``, not lost, not double-counted);
* structured logs are one JSON object per line with correlation fields
  from :func:`repro.obs.logging.log_context`;
* run-cache usage accounting rides the ShardIndex's mtime-revalidated
  scans — repeated ``stats()``/``usage()`` calls do not re-list
  unchanged shard directories, and an absent shard reads as empty.
"""

import asyncio
import hashlib
import io
import json
import logging as stdlogging
import os
import socket
import threading
import time

import pytest

from repro.common.statsreg import StatsRegistry
from repro.gateway import (GatewayClient, GatewayConfig, GatewayError,
                           GatewayThread, JobStore)
from repro.harness import runcache as runcache_mod
from repro.harness.executor import Executor
from repro.harness.runcache import RunCache
from repro.obs import logging as obslog
from repro.obs.metrics import (CONTENT_TYPE, MetricsExporter,
                               assert_counters_monotone, parse_exposition)
from repro.obs.top import render_dashboard, run_top
from tests.test_gateway import (QUICK, SETTINGS_WIRE, GatedExecutor, gateway,
                                mint)


def wait_for(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(f"{message} not met within {timeout:.0f}s")
        time.sleep(interval)


# -- the exporter and its validating parser -----------------------------------

class TestExporter:
    def build(self):
        reg = StatsRegistry()
        gw = reg.scope("gateway")
        gw.counter("http_requests").inc(3)
        gw.scope("tenants").scope("alice").counter("admits").inc(2)
        gw.scope("rejects").counter("auth").inc()
        exporter = MetricsExporter()
        exporter.mount_registry(reg, label_scopes={
            "gateway.tenants": "tenant", "gateway.rejects": "reason"})
        return reg, exporter

    def test_registry_round_trip_with_label_folding(self):
        _, exporter = self.build()
        text = exporter.render()
        assert text.endswith("\n")
        parsed = parse_exposition(text)
        assert parsed.value("espnuca_gateway_http_requests_total") == 3
        assert parsed.value("espnuca_gateway_tenants_admits_total",
                            tenant="alice") == 2
        assert parsed.value("espnuca_gateway_rejects_total",
                            reason="auth") == 1
        assert parsed.types["espnuca_gateway_http_requests_total"] == \
            "counter"
        # the folded families never leak the per-entity metric names
        assert "espnuca_gateway_tenants_alice" not in text
        assert "espnuca_gateway_rejects_auth" not in text

    def test_histogram_pow2_le_bounds_are_exact(self):
        reg = StatsRegistry()
        hist = reg.scope("routes").scope("healthz").histogram("latency_us")
        hist.record(1)    # bit_length 1 -> bucket 1, le = 1
        hist.record(5)    # bit_length 3 -> bucket 3, le = 7
        hist.record(5)
        exporter = MetricsExporter()
        exporter.mount_registry(reg,
                                label_scopes={"routes": "route"})
        parsed = parse_exposition(exporter.render())
        name = "espnuca_routes_latency_us"
        assert parsed.types[name] == "histogram"
        assert parsed.value(f"{name}_bucket", route="healthz", le="1") == 1
        assert parsed.value(f"{name}_bucket", route="healthz", le="7") == 3
        assert parsed.value(f"{name}_bucket", route="healthz",
                            le="+Inf") == 3
        assert parsed.value(f"{name}_sum", route="healthz") == 11
        assert parsed.value(f"{name}_count", route="healthz") == 3

    def test_collectors_skip_none_and_suffix_counters(self):
        exporter = MetricsExporter()
        exporter.add_collector(lambda: [
            ("queue_backlog", "gauge", "queued", {}, 4),
            ("jobs_done", "counter", "done", {"tenant": "a"}, 7),
            ("heartbeat_age_max_seconds", "gauge", "age", {}, None)])
        parsed = parse_exposition(exporter.render())
        assert parsed.value("espnuca_queue_backlog") == 4
        assert parsed.value("espnuca_jobs_done_total", tenant="a") == 7
        assert parsed.value("espnuca_heartbeat_age_max_seconds") is None

    def test_parser_rejects_malformed_documents(self):
        for bad in ("metric{x=unquoted} 1\n",
                    "metric 1 2 3\n",
                    "metric not-a-number\n",
                    "dup 1\ndup 2\n",
                    "# TYPE espnuca_x sideways\n",
                    "# HELP\n"):
            with pytest.raises(ValueError):
                parse_exposition(bad)
        # label escapes round-trip
        parsed = parse_exposition(
            'm{name="a\\"b\\\\c\\nd"} 2\n')
        assert parsed.value("m", name='a"b\\c\nd') == 2

    def test_counter_monotonicity_check(self):
        text = ("# TYPE c_total counter\nc_total 5\n"
                "# TYPE g gauge\ng 9\n")
        before = parse_exposition(text)
        after = parse_exposition(text.replace("c_total 5", "c_total 6")
                                 .replace("g 9", "g 2"))
        assert set(before.counters()) == {("c_total", ())}
        assert_counters_monotone(before, after)  # gauge drop is fine
        with pytest.raises(AssertionError, match="c_total"):
            assert_counters_monotone(after, before)


# -- structured logging -------------------------------------------------------

@pytest.fixture
def clean_logging(monkeypatch):
    """Restore the ``repro`` root logger and REPRO_LOG after the test."""
    monkeypatch.delenv(obslog.ENV_VAR, raising=False)
    root = stdlogging.getLogger(obslog.ROOT_LOGGER)
    before = (list(root.handlers), root.level, root.propagate)
    yield root
    root.handlers[:] = before[0]
    root.setLevel(before[1])
    root.propagate = before[2]


class TestStructuredLogging:
    def test_json_lines_carry_context_and_pid(self, clean_logging):
        sink = io.StringIO()
        obslog.configure("debug", fmt="json", stream=sink,
                         export_env=False)
        log = obslog.get_logger("gateway")
        with obslog.log_context(job="g7", tenant="alice"):
            log.info("job admitted", points=4)
        record = json.loads(sink.getvalue())
        assert record["event"] == "job admitted"
        assert record["level"] == "info"
        assert record["logger"] == "repro.gateway"
        assert record["job"] == "g7" and record["tenant"] == "alice"
        assert record["points"] == 4
        assert record["pid"] == os.getpid()
        # context pops with the block
        sink.truncate(0), sink.seek(0)
        log.info("after")
        assert "job" not in json.loads(sink.getvalue())

    def test_configure_is_idempotent_and_exports_env(self, clean_logging,
                                                     monkeypatch):
        obslog.configure("info", fmt="json", stream=io.StringIO())
        obslog.configure("debug", fmt="human", stream=io.StringIO())
        named = [h for h in clean_logging.handlers
                 if h.get_name() == "repro-structured"]
        assert len(named) == 1
        assert os.environ[obslog.ENV_VAR] == "human:debug"
        # a worker process rebuilds the same configuration from the env
        assert obslog.configure_from_env({obslog.ENV_VAR: "json:debug"})
        assert not obslog.configure_from_env({})
        assert not obslog.configure_from_env({obslog.ENV_VAR: "bogus:nope"})

    def test_disabled_levels_cost_no_record_build(self, clean_logging):
        sink = io.StringIO()
        obslog.configure("warning", fmt="json", stream=sink,
                         export_env=False)
        log = obslog.get_logger("executor")
        assert not log.enabled_for(stdlogging.DEBUG)
        log.debug("invisible", huge=object())
        log.info("also invisible")
        assert sink.getvalue() == ""
        log.warning("visible")
        assert json.loads(sink.getvalue())["event"] == "visible"


# -- /metrics on a live gateway -----------------------------------------------

class TestMetricsEndpoint:
    def test_scrape_covers_fleet_scopes_and_stays_monotone(self, tmp_path):
        with gateway(tmp_path / "m.sqlite", cache_dir=tmp_path / "cache",
                     allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                resp, data = client._roundtrip("GET", "/metrics")
                assert resp.status == 200
                assert resp.getheader("Content-Type") == CONTENT_TYPE
                before = parse_exposition(data.decode("utf-8"))
                job = client.submit(["shared"], ["apache"], seeds=[7],
                                    settings=SETTINGS_WIRE)["job"]
                client.wait(job)
                after = parse_exposition(client.metrics())
                assert_counters_monotone(before, after)
                # one family from every fleet scope the issue names
                for name in ("espnuca_queue_backlog",
                             "espnuca_queue_limit",
                             "espnuca_dispatchers",
                             "espnuca_fabric_running",
                             "espnuca_cache_hit_ratio",
                             "espnuca_cache_entries",
                             "espnuca_cache_memo_entries",
                             "espnuca_cache_memo_bytes",
                             "espnuca_cache_memo_hits_total",
                             "espnuca_executed_points_total",
                             "espnuca_gateway_http_requests_total",
                             "espnuca_store_results",
                             "espnuca_ready",
                             "espnuca_draining"):
                    assert after.value(name) is not None, name
                assert after.value("espnuca_ready") == 1
                assert after.value("espnuca_executed_points_total") == 1
                # the one result written is memoized, its bytes counted
                assert after.value("espnuca_cache_memo_entries") == 1
                assert after.value("espnuca_cache_memo_bytes") > 0
                # a cold job: its one lookup missed, nothing hit the memo
                assert after.value("espnuca_cache_memo_hits_total") == 0
                assert after.value("espnuca_gateway_tenants_requests_total",
                                   tenant="anon") >= 2
                assert after.value("espnuca_gateway_tenants_admits_total",
                                   tenant="anon") == 1
                # per-route latency histogram exists for the submit route
                assert after.value(
                    "espnuca_gateway_routes_latency_us_count",
                    route="v1_jobs") >= 1

    def test_successful_requests_count_no_phantom_rejects(self, tmp_path):
        """Regression: resolving a job used to *construct* (and thereby
        count) the not-found reject even when the job existed."""
        with gateway(tmp_path / "p.sqlite", allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                job = client.submit(["shared"], ["apache"], seeds=[8],
                                    settings=SETTINGS_WIRE)["job"]
                client.wait(job)
                client.job(job)
                parsed = parse_exposition(client.metrics())
                assert parsed.value("espnuca_gateway_rejects_total",
                                    reason="not_found") == 0
                assert parsed.value(
                    "espnuca_gateway_tenants_rejects_total",
                    tenant="anon", default=0) == 0
                with pytest.raises(GatewayError):
                    client.job("g999")
                parsed = parse_exposition(client.metrics())
                assert parsed.value("espnuca_gateway_rejects_total",
                                    reason="not_found") == 1

    def test_telemetry_disabled_is_typed_503_and_skips_counters(
            self, tmp_path):
        with gateway(tmp_path / "d.sqlite", allow_anonymous=True,
                     telemetry=False) as handle:
            assert handle.gateway.exporter is None
            with GatewayClient(handle.base_url) as client:
                with pytest.raises(GatewayError) as exc:
                    client.metrics()
                assert exc.value.status == 503
                assert exc.value.code == "telemetry-disabled"
                # the rest of the API is unaffected
                assert client.health()["ok"] is True
                assert client.readyz()["ready"] is True
                client.status()
                snap = handle.gateway.registry.to_dict()["gateway"]
                assert snap["tenants"] == {}
                assert snap["routes"] == {}


# -- health probes ------------------------------------------------------------

class TestHealthProbes:
    def test_ready_gateway_reports_all_checks_true(self, tmp_path):
        with gateway(tmp_path / "h.sqlite", allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                assert client.health()["ok"] is True
                reply = client.readyz()
                assert reply["ready"] is True
                assert reply["checks"] == {"store_migrated": True,
                                           "fabric_started": True,
                                           "queue_accepting": True}

    def test_readyz_false_before_store_is_migrated(self, tmp_path):
        db = str(tmp_path / "u.sqlite")
        store = JobStore(db)
        assert store.migrate(upto=1) == ["0001_initial.sql"]
        handle = GatewayThread(
            GatewayConfig(bind=("tcp", "127.0.0.1", 0), db_path=db,
                          allow_anonymous=True),
            executor=Executor(jobs=1, cache=RunCache(enabled=False)),
            settings=QUICK, store=store)
        with handle:
            with GatewayClient(handle.base_url) as client:
                assert client.health()["ok"] is True  # alive, not ready
                reply = client.readyz()
                assert reply["ready"] is False
                assert reply["checks"]["store_migrated"] is False
                assert reply["checks"]["fabric_started"] is True
                parsed = parse_exposition(client.metrics())
                assert parsed.value("espnuca_ready") == 0
                assert parsed.value("espnuca_ready_check",
                                    check="store_migrated") == 0
                # migrating the live store flips readiness to true
                store.migrate()
                assert client.readyz()["ready"] is True

    def test_readyz_false_while_draining(self, tmp_path):
        gate = threading.Event()
        executor = GatedExecutor(jobs=1, cache=RunCache(enabled=False),
                                 gate=gate)
        try:
            with gateway(tmp_path / "dr.sqlite", executor,
                         allow_anonymous=True, workers=1,
                         batch=1) as handle:
                client = GatewayClient(handle.base_url)
                client.submit(["shared"], ["apache"], seeds=[9],
                              settings=SETTINGS_WIRE)
                assert client.readyz()["ready"] is True
                future = asyncio.run_coroutine_threadsafe(
                    handle.gateway.shutdown(), handle._box["loop"])
                reply = wait_for(
                    lambda: (lambda r: r if not r["ready"] else None)(
                        client.readyz()),
                    message="readyz flipping false during drain")
                assert reply["checks"]["queue_accepting"] is False
                gate.set()
                future.result(timeout=120)
        finally:
            gate.set()


# -- exactly-once request accounting (SSE disconnect) -------------------------

class TestRequestAccounting:
    def test_sse_disconnect_counts_aborted_exactly_once(self, tmp_path):
        gate = threading.Event()
        executor = GatedExecutor(jobs=1, cache=RunCache(enabled=False),
                                 gate=gate)
        try:
            with gateway(tmp_path / "s.sqlite", executor,
                         allow_anonymous=True, workers=1,
                         batch=1) as handle:
                client = GatewayClient(handle.base_url)
                job = client.submit(["shared"], ["apache"], seeds=[92],
                                    settings=SETTINGS_WIRE)["job"]
                _, host, port = handle.address
                sock = socket.create_connection((host, port), timeout=60)
                sock.sendall(b"GET /v1/jobs/" + job.encode() +
                             b"/events HTTP/1.1\r\nHost: x\r\n\r\n")
                stream = sock.makefile("rb")
                while b"data: " not in stream.readline():
                    pass
                # Watcher vanishes mid-stream.  shutdown() sends the FIN
                # right away — close() alone would wait for the makefile
                # wrapper's duplicate reference.
                sock.shutdown(socket.SHUT_RDWR)
                stream.close()
                sock.close()
                gate.set()
                assert client.wait(job)["state"] == "done"

                def events_route():
                    parsed = parse_exposition(client.metrics())
                    aborted = parsed.value(
                        "espnuca_gateway_routes_aborted_total",
                        route="v1_jobs_id_events", default=0)
                    return parsed if aborted else None

                # abort observation is asynchronous (the server notices
                # on its next write) — poll, then pin the exact counts
                parsed = wait_for(events_route,
                                  message="aborted SSE request observed")
                assert parsed.value(
                    "espnuca_gateway_routes_requests_total",
                    route="v1_jobs_id_events") == 1
                assert parsed.value(
                    "espnuca_gateway_routes_aborted_total",
                    route="v1_jobs_id_events") == 1
                assert parsed.value(
                    "espnuca_gateway_routes_errors_total",
                    route="v1_jobs_id_events", default=0) == 0
                # the per-tenant counter saw it exactly once too: one
                # events request among the submit + poll traffic
                snap = handle.gateway.registry.to_dict()
                routes = snap["gateway"]["routes"]
                assert routes["v1_jobs_id_events"]["requests"] == 1
        finally:
            gate.set()


# -- fabric summary in server status ------------------------------------------

class TestFabricSummary:
    def test_executor_summary_shape_without_fabric(self):
        executor = Executor(jobs=1, cache=RunCache(enabled=False))
        assert executor.fabric_running() is True
        summary = executor.fabric_summary()
        assert summary["running"] is True
        assert summary["workers"] == 0
        assert summary["heartbeat_age_s"] == {}
        assert summary["heartbeat_age_max_s"] is None
        for key in ("dispatched", "completed", "requeued", "crashed"):
            assert summary[key] == 0

    def test_server_status_carries_fabric_summary(self, tmp_path):
        with gateway(tmp_path / "f.sqlite", allow_anonymous=True) as handle:
            with GatewayClient(handle.base_url) as client:
                status = client.status()
                summary = status["fabric_summary"]
                assert summary["running"] is True
                assert set(summary) >= {"workers", "busy",
                                        "heartbeat_age_s",
                                        "heartbeat_age_max_s", "requeued"}


# -- run-cache usage accounting (repro-cache stats) ---------------------------

def seed_cache_files(cache, count, payload=b'{"x":1}'):
    keys = [hashlib.sha256(str(i).encode()).hexdigest()
            for i in range(count)]
    for key in keys:
        path = cache.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
    return keys


class TestRunCacheUsage:
    def test_usage_counts_entries_and_bytes(self, tmp_path):
        cache = RunCache(root=str(tmp_path / "c"))
        assert cache.usage() == (0, 0)
        seed_cache_files(cache, 5)
        entries, size = cache.usage()
        assert entries == 5
        assert size == 5 * len(b'{"x":1}')
        assert sum(c for c, _ in cache.shard_usage().values()) == 5
        stats = cache.stats()
        assert stats["entries"] == 5 and stats["bytes"] == size
        assert stats["per_version"] == {runcache_mod.cache_generation(): 5}
        assert stats["shards"]["populated"] == len(cache.shard_usage())
        # absent shard directories report empty usage, not an error
        assert cache.index.shard_usage("zz") == (0, 0)

    def test_repeated_stats_do_not_rescan_unchanged_shards(
            self, tmp_path, monkeypatch):
        cache = RunCache(root=str(tmp_path / "c"))
        seed_cache_files(cache, 6)
        first = cache.stats()
        calls = []
        real_scandir = os.scandir
        monkeypatch.setattr(runcache_mod.os, "scandir",
                            lambda path: calls.append(path)
                            or real_scandir(path))
        second = cache.stats()
        assert calls == []  # mtime unchanged: stat-only revalidation
        assert second["entries"] == first["entries"]
        assert second["bytes"] == first["bytes"]
        # a new entry bumps its shard's mtime: exactly that shard rescans
        new_key = hashlib.sha256(b"fresh").hexdigest()
        path = cache.entry_path(new_key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b'{"z":333}')
        calls.clear()
        third = cache.stats()
        assert third["entries"] == first["entries"] + 1
        assert len(calls) == 1
        assert calls[0].endswith(new_key[:2])


# -- the top dashboard --------------------------------------------------------

SAMPLE_EXPOSITION = """\
# TYPE espnuca_queue_backlog gauge
espnuca_queue_backlog 3
espnuca_queue_inflight 1
espnuca_queue_limit 256
espnuca_dispatchers 2
espnuca_dispatchers_busy 1
# TYPE espnuca_points_requested_total counter
espnuca_points_requested_total 40
espnuca_fabric_running 1
espnuca_fabric_workers 4
espnuca_fabric_busy 2
espnuca_fabric_heartbeat_age_max_seconds 0.4
# TYPE espnuca_fabric_completed_total counter
espnuca_fabric_completed_total 30
# TYPE espnuca_executed_points_total counter
espnuca_executed_points_total 30
# TYPE espnuca_cache_hits_total counter
espnuca_cache_hits_total 10
espnuca_cache_misses_total 30
espnuca_cache_hit_ratio 0.25
espnuca_cache_entries 12
espnuca_cache_bytes 4096
# TYPE espnuca_gateway_tenants_requests_total counter
espnuca_gateway_tenants_requests_total{tenant="alice"} 9
espnuca_gateway_tenants_admits_total{tenant="alice"} 4
espnuca_gateway_tenants_rejects_total{tenant="alice"} 1
# TYPE espnuca_gateway_routes_requests_total counter
espnuca_gateway_routes_requests_total{route="v1_jobs"} 4
espnuca_gateway_routes_errors_total{route="v1_jobs"} 1
espnuca_gateway_routes_aborted_total{route="v1_jobs"} 0
espnuca_gateway_routes_latency_us_sum{route="v1_jobs"} 9000
espnuca_gateway_routes_latency_us_count{route="v1_jobs"} 4
espnuca_draining 0
"""


class TestTopDashboard:
    def test_render_panels_from_parsed_metrics(self):
        parsed = parse_exposition(SAMPLE_EXPOSITION)
        frame = render_dashboard(
            parsed, {"ready": True, "checks": {}}, url="http://gw:1")
        assert "esp-nuca top — http://gw:1  [ready]" in frame
        assert "backlog 3/256" in frame
        assert "workers 2/4 busy" in frame
        assert "heartbeat 0.4s" in frame
        assert "hit ratio 25%" in frame
        assert "12 entries, 4.0KiB" in frame
        assert "alice" in frame
        assert "v1_jobs" in frame
        assert "2.25" in frame  # 9000us / 4 requests = 2.25ms

    def test_render_shows_rates_failing_checks_and_draining(self):
        previous = parse_exposition(SAMPLE_EXPOSITION)
        current = parse_exposition(
            SAMPLE_EXPOSITION
            .replace("espnuca_executed_points_total 30",
                     "espnuca_executed_points_total 40")
            .replace("espnuca_draining 0", "espnuca_draining 1"))
        frame = render_dashboard(
            current,
            {"ready": False, "checks": {"queue_accepting": False,
                                        "store_migrated": True}},
            url="u", previous=previous, elapsed_s=5.0)
        assert "NOT READY (queue_accepting)" in frame
        assert "[draining]" in frame
        assert "executed 40 (2.0/s)" in frame
        # first frame has no baseline: no rate shown
        first = render_dashboard(previous, None, url="u")
        assert "(2.0/s)" not in first and "ready ?" in first

    def test_run_top_against_live_gateway_and_dead_port(self, tmp_path):
        with gateway(tmp_path / "t.sqlite", allow_anonymous=True) as handle:
            sink = io.StringIO()
            assert run_top(handle.base_url, once=True, stream=sink) == 0
            out = sink.getvalue()
            assert "esp-nuca top" in out and "[ready]" in out
            assert "\x1b[2J" not in out  # --once never clears the screen
            sink = io.StringIO()
            assert run_top(handle.base_url, interval=0.01, iterations=2,
                           stream=sink) == 0
            assert sink.getvalue().count("esp-nuca top") == 2
        # unreachable gateway: a message and exit 1, no traceback
        sink = io.StringIO()
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        port = dead.getsockname()[1]
        dead.close()
        assert run_top(f"http://127.0.0.1:{port}", once=True,
                       stream=sink) == 1
        assert "cannot reach" in sink.getvalue()

    def test_cli_top_once(self, tmp_path, capsys):
        from repro.harness.cli import main as cli_main

        with gateway(tmp_path / "cli.sqlite",
                     allow_anonymous=True) as handle:
            _, host, port = handle.address
            assert cli_main(["top", "--http", f"{host}:{port}",
                             "--once"]) == 0
        out = capsys.readouterr().out
        assert "esp-nuca top" in out
        assert cli_main(["top", "--http", "127.0.0.1:1", "--once",
                         "--interval", "0"]) == 2
