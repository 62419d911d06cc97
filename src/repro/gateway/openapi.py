"""The gateway's OpenAPI 3.0 document, served at ``GET /openapi.json``.

Hand-maintained alongside the routes in :mod:`repro.gateway.app` (the
route table is small enough that a generator would be more code than
the document); ``tests/test_gateway.py`` asserts the two stay in sync —
every route the app dispatches appears here and vice versa.
"""

from __future__ import annotations

from typing import Any, Dict

_ERROR = {"type": "object", "properties": {
    "error": {"type": "object", "properties": {
        "code": {"type": "string"},
        "message": {"type": "string"}}}}}

_JOB = {"type": "object", "properties": {
    "job": {"type": "string", "description": "public job id (g<n>)"},
    "state": {"type": "string",
              "enum": ["queued", "running", "done", "failed", "cancelled"]},
    "unique_points": {"type": "integer"},
    "counts": {"type": "object", "additionalProperties":
               {"type": "integer"}},
}}

_SUBMIT = {"type": "object",
           "required": ["architectures", "workloads"],
           "properties": {
               "architectures": {"type": "array",
                                 "items": {"type": "string"}},
               "workloads": {"type": "array", "items": {"type": "string"}},
               "seeds": {"type": "array", "items": {"type": "integer"}},
               "settings": {"type": "object", "properties": {
                   "refs_per_core": {"type": "integer"},
                   "warmup_refs_per_core": {"type": "integer"},
                   "capacity_factor": {"type": "integer"},
                   "num_seeds": {"type": "integer"},
                   "base_seed": {"type": "integer"},
                   "engine": {"type": "string"}}},
               "priority": {"type": "integer"},
               "check": {"type": "integer"},
               "trace": {"type": "boolean", "description":
                         "capture this job's event trace. Accepted "
                         "only on an allow-anonymous gateway: the "
                         "trace records every job the gateway runs "
                         "meanwhile, whoever owns it. One traced job at "
                         "a time; not persisted, so a recovered job "
                         "re-runs untraced"},
           }}


#: The /metrics exposition contract (docs/observability.md, "Live
#: telemetry" has the narrative catalog). Documented here so the spec
#: is the machine-readable source of truth for metric names and labels.
_METRICS_DOC = (
    "Prometheus text exposition format (version 0.0.4). All metrics "
    "carry the `espnuca_` prefix. Registry-bridged families: "
    "`espnuca_gateway_http_requests_total`, "
    "`espnuca_gateway_admits_total`, `espnuca_gateway_recovered_total`, "
    "`espnuca_gateway_results_persisted_total`, "
    "`espnuca_gateway_rejects_total{reason}` (reason in auth, "
    "bad_request, quota_jobs, quota_points, rate_limited, queue_full, "
    "draining, not_found), "
    "`espnuca_gateway_tenants_{requests,admits,rejects,rate_hits,"
    "recovered}_total{tenant}`, "
    "`espnuca_gateway_routes_{requests,errors,aborted}_total{route}` "
    "and the per-route latency histogram "
    "`espnuca_gateway_routes_latency_us{route}` (power-of-two `le` "
    "bounds, exact `_sum`/`_count`). Runtime collectors: queue "
    "(`espnuca_queue_{backlog,inflight,limit}`, "
    "`espnuca_dispatchers{,_busy}`, `espnuca_points_{requested,cached,"
    "coalesced,enqueued}_total`), fabric (`espnuca_fabric_{running,"
    "workers,busy}`, `espnuca_fabric_{dispatched,completed,requeued,"
    "crashed}_total`, `espnuca_fabric_heartbeat_age_seconds{pid}`, "
    "`espnuca_fabric_heartbeat_age_max_seconds`, "
    "`espnuca_executed_points_total`), run cache "
    "(`espnuca_cache_{hits,misses,writes}_total`, "
    "`espnuca_cache_hit_ratio`, `espnuca_cache_{entries,bytes}`), "
    "store (`espnuca_store_jobs{state}`, `espnuca_store_results`) and "
    "health (`espnuca_ready`, `espnuca_ready_check{check}`, "
    "`espnuca_draining`, `espnuca_recovering`).")


def _op(summary: str, responses: Dict[str, Any], *,
        body: Any = None, security: bool = True) -> Dict[str, Any]:
    op: Dict[str, Any] = {"summary": summary, "responses": responses}
    if body is not None:
        op["requestBody"] = {"required": True, "content": {
            "application/json": {"schema": body}}}
    if security:
        op["security"] = [{"bearerKey": []}]
    return op


def _json_resp(description: str, schema: Any = None) -> Dict[str, Any]:
    resp: Dict[str, Any] = {"description": description}
    if schema is not None:
        resp["content"] = {"application/json": {"schema": schema}}
    return resp


def spec() -> Dict[str, Any]:
    """The complete document (a fresh dict each call — callers may
    mutate)."""
    err = _json_resp("typed error", _ERROR)
    return {
        "openapi": "3.0.3",
        "info": {
            "title": "esp-nuca simulation gateway",
            "description":
                "Durable, multi-tenant HTTP front end over the ESP-NUCA "
                "simulation service core. Jobs survive restarts (SQLite "
                "job store), results are keyed by run-point content hash "
                "and byte-identical to direct harness runs. Authenticate "
                "with `Authorization: Bearer <api-key>` (see docs/"
                "gateway.md); quota and rate-limit rejects are typed "
                "429s, queue saturation a typed 503.",
            "version": "1",
        },
        "components": {"securitySchemes": {
            "bearerKey": {"type": "http", "scheme": "bearer"}}},
        "paths": {
            "/healthz": {"get": _op(
                "liveness probe (no auth)",
                {"200": _json_resp("gateway is serving")},
                security=False)},
            "/readyz": {"get": _op(
                "readiness probe (no auth): store migrated + fabric "
                "started + queue accepting; false during drain",
                {"200": _json_resp(
                    "ready — body {ready: true, checks: {...}}"),
                 "503": _json_resp(
                     "not ready — body {ready: false, checks: {...}} "
                     "with the failing checks false")},
                security=False)},
            "/metrics": {"get": _op(
                "Prometheus metrics (no auth): queue, fabric, run "
                "cache, store, health and per-tenant/per-route scopes",
                {"200": {"description": _METRICS_DOC}},
                security=False)},
            "/openapi.json": {"get": _op(
                "this document (no auth)",
                {"200": _json_resp("OpenAPI 3.0 spec")}, security=False)},
            "/v1/status": {"get": _op(
                "server status: queue, workers, cache, per-tenant stats",
                {"200": _json_resp("status snapshot"), "401": err})},
            "/v1/jobs": {
                "post": _op(
                    "submit a simulation grid",
                    {"201": _json_resp("admitted job snapshot", _JOB),
                     "400": _json_resp(
                         "invalid grid, trace on a keyed-only "
                         "gateway, or a traced job is already "
                         "running", _ERROR),
                     "401": err, "403": err,
                     "429": _json_resp(
                         "quota or rate-limit reject (Retry-After set "
                         "for rate limits)", _ERROR),
                     "503": _json_resp("queue full or draining", _ERROR)},
                    body=_SUBMIT),
                "get": _op(
                    "list this tenant's jobs (newest first)",
                    {"200": _json_resp("job summaries"), "401": err}),
            },
            "/v1/jobs/{id}": {
                "get": _op(
                    "job snapshot (live or recovered-from-store)",
                    {"200": _json_resp("job snapshot", _JOB), "401": err,
                     "404": err}),
                "delete": _op(
                    "cancel a job (queued points only; running points "
                    "finish)",
                    {"200": _json_resp("post-cancel snapshot", _JOB),
                     "401": err, "404": err}),
            },
            "/v1/jobs/{id}/results": {"get": _op(
                "full result payloads, grid order",
                {"200": _json_resp("list of SimResult payloads"),
                 "401": err, "404": err,
                 "409": _json_resp("job not finished yet", _ERROR)})},
            "/v1/jobs/{id}/events": {"get": _op(
                "Server-Sent-Events progress stream until terminal",
                {"200": {"description":
                         "text/event-stream of snapshot frames; the "
                         "final frame has event=end"},
                 "401": err, "404": err})},
            "/v1/jobs/{id}/trace": {"get": _op(
                "Chrome trace-event JSON of a terminal traced job",
                {"200": _json_resp("trace-event document (load in "
                                   "ui.perfetto.dev)"),
                 "401": err,
                 "404": _json_resp("unknown job, or not traced "
                                   "(code not-traced)", _ERROR),
                 "409": _json_resp("job not terminal yet", _ERROR),
                 "500": _json_resp("trace export failed (code "
                                   "trace-failed)", _ERROR)})},
        },
    }
