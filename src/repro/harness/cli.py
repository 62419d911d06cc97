"""Command-line entry point: ``esp-nuca <experiment> [...]``.

Examples::

    esp-nuca fig8                  # reproduce Figure 8
    esp-nuca all                   # every table/figure
    esp-nuca fig10 --seeds 3 --refs 40000
    esp-nuca run --arch esp-nuca --workload apache   # one raw run
    esp-nuca stats --arch esp-nuca --workload apache # per-bank breakdown
    esp-nuca stats --arch esp-nuca --workload apache --json  # same, JSON
    esp-nuca all --jobs 8          # fan runs out over 8 processes
    esp-nuca repro-cache stats     # inspect the persistent run cache
    esp-nuca repro-cache clear
    esp-nuca gateway serve --db jobs.sqlite --http 127.0.0.1:8643
    esp-nuca gateway serve --allow-anonymous --http unix:/tmp/esp.sock
    esp-nuca submit --arch esp-nuca,shared --workload apache --watch
    esp-nuca gateway add-tenant --tenant alice --max-jobs 4
    esp-nuca gateway migrate --db jobs.sqlite        # apply schema upgrades
    esp-nuca top --http 127.0.0.1:8643               # live /metrics dashboard
    esp-nuca submit --arch esp-nuca --workload apache --trace --out t.json
    esp-nuca trace fig6 --out trace.json             # capture an event trace
    esp-nuca trace run --arch esp-nuca --sample 10 --categories access,l2
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import ExperimentRunner, RunSettings
from repro.sim.engines import DEFAULT_ENGINE, ENGINES
from repro.workloads.registry import workload_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esp-nuca",
        description="ESP-NUCA (HPCA 2010) reproduction harness")
    parser.add_argument("experiment",
                        choices=list(EXPERIMENTS) + ["all", "run", "stats",
                                                     "list", "trace",
                                                     "overhead", "claims",
                                                     "repro-cache",
                                                     "submit", "gateway",
                                                     "top"],
                        help="experiment id (figN/stability/ablation), "
                             "'all', 'run' (single run), 'stats' (one run's "
                             "per-component statistics tables), 'trace' "
                             "(record a workload trace), 'overhead' (storage "
                             "model), 'claims' (verdicts over --json dir), "
                             "'repro-cache' (persistent cache maintenance), "
                             "'submit' (send a grid to a running gateway), "
                             "'gateway' (durable HTTP front end), 'top' "
                             "(live telemetry "
                             "dashboard over a gateway's /metrics), or "
                             "'list'")
    parser.add_argument("action", nargs="?", default=None,
                        choices=["stats", "clear"] + list(EXPERIMENTS)
                        + ["run", "serve", "migrate", "add-tenant",
                           "list-tenants"],
                        help="for 'repro-cache': stats (default) or clear; "
                             "for 'trace': the experiment (or 'run') to "
                             "capture an event trace of — without a target, "
                             "'trace' records a raw workload trace file "
                             "(legacy behaviour); for 'gateway': serve "
                             "(default), migrate, add-tenant, list-tenants")
    parser.add_argument("--seeds", type=int, default=None,
                        help="perturbed runs per data point (default 2)")
    parser.add_argument("--refs", type=int, default=None,
                        help="measured references per core (default 25000)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warm-up references per core (default 12000)")
    parser.add_argument("--scale", type=int, default=None,
                        help="capacity scale factor (default 4; 1 = full "
                             "Table 2 sizes, needs much longer traces)")
    parser.add_argument("--arch", default="esp-nuca",
                        help="architecture for 'run'/'stats' "
                             "(comma-separated list for 'submit')")
    parser.add_argument("--workload", default="apache",
                        help="workload for 'run'/'stats' "
                             "(comma-separated list for 'submit')")
    parser.add_argument("--precision", type=int, default=3)
    parser.add_argument("--json", metavar="DIR", default=None,
                        nargs="?", const="-",
                        help="experiments: also write each report as "
                             "DIR/<id>.json; 'stats'/'submit': emit JSON "
                             "instead of tables (to stdout, or to the "
                             "given file)")
    parser.add_argument("--chart", action="store_true",
                        help="append a bar chart of each report's last column")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="output file for 'trace' and 'submit --trace' "
                             "(default <job>.trace.json)")
    tracing = parser.add_argument_group("event tracing "
                                        "('trace <target>' / 'submit')")
    tracing.add_argument("--categories", default=None,
                         help="comma-separated event categories to record "
                              "(default: all standard categories; see "
                              "docs/observability.md)")
    tracing.add_argument("--sample", type=int, default=1, metavar="N",
                         help="record every Nth demand-access span tree "
                              "(instant events are unaffected; default 1 "
                              "= every access)")
    tracing.add_argument("--trace", action="store_true",
                         help="submit: ask the gateway to capture an event "
                              "trace of this job and save it to --out "
                              "(with --no-wait: print where to fetch it)")
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="simulation engine (default $REPRO_ENGINE or "
                             f"{DEFAULT_ENGINE!r}; both produce identical "
                             "results — see docs/engine.md)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for independent run points "
                             "(default $REPRO_JOBS or the CPU count; "
                             "1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent run cache for this "
                             "invocation (equivalent to REPRO_CACHE=0)")
    parser.add_argument("--check", type=int, nargs="?", const=1, default=0,
                        metavar="N",
                        help="run with the invariant checker enabled, "
                             "sweeping machine state every Nth demand "
                             "access (bare --check = every access; see "
                             "docs/checking.md). For 'submit' the check "
                             "runs on the gateway")
    service = parser.add_argument_group("simulation service "
                                        "('gateway serve' / 'submit')")
    service.add_argument("--queue-limit", type=int, default=256,
                         help="gateway serve: max queued point tasks before "
                              "submissions get a typed queue-full reject")
    service.add_argument("--workers", type=int, default=None,
                         help="gateway serve: simulation worker processes "
                              "pulling from the shared fabric queue "
                              "(default $REPRO_WORKERS, $REPRO_JOBS or the "
                              "CPU count; 1 = serial; see docs/fabric.md)")
    service.add_argument("--service-workers", type=int, default=2,
                         help="gateway serve: asyncio dispatcher tasks "
                              "(concurrent executor batches), not "
                              "simulation processes -- that is --workers")
    service.add_argument("--batch", type=int, default=8,
                         help="gateway serve: max points per executor "
                              "batch")
    service.add_argument("--priority", type=int, default=0,
                         help="submit: higher runs earlier (default 0)")
    service.add_argument("--no-wait", action="store_true",
                         help="submit: return the job id immediately "
                              "instead of waiting for results")
    service.add_argument("--watch", action="store_true",
                         help="submit: stream progress events while "
                              "waiting")
    gateway = parser.add_argument_group("HTTP gateway ('gateway ...'; "
                                        "see docs/gateway.md)")
    gateway.add_argument("--db", default="gateway.sqlite",
                         help="gateway: SQLite job-store path "
                              "(default gateway.sqlite)")
    gateway.add_argument("--http", default="127.0.0.1:8643",
                         help="gateway serve: HTTP bind host:port or "
                              "unix:/path; submit/top: the gateway to "
                              "talk to (default 127.0.0.1:8643)")
    gateway.add_argument("--tenant", default=None,
                         help="gateway add-tenant: tenant name (lowercase "
                              "alphanumeric plus '-'/'_')")
    gateway.add_argument("--max-jobs", type=int, default=4,
                         help="gateway add-tenant: concurrent unfinished "
                              "jobs allowed (default 4)")
    gateway.add_argument("--max-points", type=int, default=64,
                         help="gateway add-tenant: unfinished unique run "
                              "points allowed (default 64)")
    gateway.add_argument("--rate-capacity", type=float, default=10.0,
                         help="gateway add-tenant: token-bucket burst size "
                              "(default 10)")
    gateway.add_argument("--rate-refill", type=float, default=2.0,
                         help="gateway add-tenant: tokens/second refill "
                              "(default 2)")
    gateway.add_argument("--allow-anonymous", action="store_true",
                         help="gateway serve: accept unauthenticated "
                              "requests as the shared 'anon' tenant "
                              "(dev/test only)")
    obs = parser.add_argument_group("telemetry ('top' / gateway logging; "
                                    "see docs/observability.md)")
    obs.add_argument("--interval", type=float, default=2.0,
                     help="top: seconds between /metrics scrapes "
                          "(default 2)")
    obs.add_argument("--once", action="store_true",
                     help="top: render a single frame and exit (no "
                          "screen clearing; script-friendly)")
    obs.add_argument("--api-key", default=None,
                     help="submit/top: gateway API key (none for an "
                          "--allow-anonymous gateway; top needs none — "
                          "/metrics and /readyz are unauthenticated)")
    obs.add_argument("--log-level", default=None,
                     choices=["debug", "info", "warning", "error"],
                     help="gateway serve: structured-log "
                          "threshold on stderr (default: info; "
                          "propagated to fabric workers via REPRO_LOG)")
    obs.add_argument("--log-format", default="json",
                     choices=["json", "human"],
                     help="gateway serve: one JSON object per "
                          "line (default) or human-readable lines")
    return parser


def _settings(args: argparse.Namespace) -> RunSettings:
    base = RunSettings.from_env()
    return RunSettings(
        capacity_factor=args.scale or base.capacity_factor,
        refs_per_core=args.refs or base.refs_per_core,
        warmup_refs_per_core=(args.warmup if args.warmup is not None
                              else base.warmup_refs_per_core),
        num_seeds=args.seeds or base.num_seeds,
        engine=args.engine if args.engine is not None else base.engine,
    )


def _config(args: argparse.Namespace):
    """The invocation's SystemConfig override: None (runner default)
    unless ``--check`` asks for an invariant-checked configuration."""
    if not args.check:
        return None
    from dataclasses import replace

    from repro.common.config import CheckConfig, scaled_config

    return replace(scaled_config(_settings(args).capacity_factor),
                   checks=CheckConfig(enabled=True, sample=args.check))


def _single_run(runner: ExperimentRunner, arch: str, workload: str) -> None:
    start = time.time()
    agg = runner.aggregate(arch, workload)
    elapsed = time.time() - start
    print(f"{arch} on {workload} "
          f"({runner.settings.num_seeds} seed(s), {elapsed:.1f}s)")
    print(f"  performance (work/cycle): {agg.performance:.4f} "
          f"+- {agg.performance_ci95:.4f}")
    print(f"  average access time:      {agg.average_access_time:.2f} cycles")
    print(f"  off-chip per 1k accesses: {agg.offchip_per_kilo_access:.1f}")
    print(f"  on-chip latency:          {agg.onchip_latency:.2f} cycles")


def _run_stats(runner: ExperimentRunner, arch: str, workload: str,
               json_out: Optional[str] = None) -> None:
    """Simulate one (arch, workload) point on the first session seed and
    render the hierarchical registry snapshot — per-component tables by
    default, the machine-readable ``to_dict`` payload with ``--json``
    (the same serialization the simulation service streams)."""
    from repro.harness.executor import RunPoint
    from repro.harness.reporting import format_run_stats, format_run_stats_json

    point = RunPoint(name=arch, workload=workload, seed=runner.seeds[0],
                     config=runner.config, settings=runner.settings,
                     arch=arch)
    result = runner.executor.run([point])[0]
    if json_out is None:
        print(format_run_stats(result))
    elif json_out == "-":
        print(format_run_stats_json(result))
    else:
        with open(json_out, "w", encoding="utf-8") as handle:
            handle.write(format_run_stats_json(result) + "\n")
        print(f"wrote {arch}/{workload} stats snapshot to {json_out}")


def _event_trace(args: argparse.Namespace) -> int:
    """``esp-nuca trace <experiment|run>`` — run the target with the
    unified event tracer installed and export a Chrome-trace JSON
    (loadable in chrome://tracing and ui.perfetto.dev)."""
    from repro.harness.executor import Executor
    from repro.harness.runcache import RunCache
    from repro.obs import Tracer, activated
    from repro.obs.export import write_chrome

    if args.action not in list(EXPERIMENTS) + ["run"]:
        print(f"error: 'trace' target must be an experiment or 'run', "
              f"got {args.action!r}", file=sys.stderr)
        return 2
    categories = None
    if args.categories is not None:
        categories = [c.strip() for c in args.categories.split(",")
                      if c.strip()]
    if args.sample < 1:
        print("error: --sample must be >= 1", file=sys.stderr)
        return 2
    tracer = Tracer(categories=categories, sample=args.sample)
    # Serial and uncached on purpose: pool workers' sim-clock events
    # would be lost in their processes, and a cache hit would skip the
    # simulation (leaving nothing to trace).
    executor = Executor(jobs=1, cache=RunCache(enabled=False))
    runner = ExperimentRunner(_settings(args), config=_config(args),
                              executor=executor)
    with activated(tracer):
        if args.action == "run":
            _single_run(runner, args.arch, args.workload)
        else:
            start = time.time()
            report = run_experiment(args.action, runner)
            print(report.format(precision=args.precision))
            print(f"[{args.action} completed in {time.time() - start:.1f}s]")
    out = args.out or f"{args.action}.trace.json"
    payload = write_chrome(tracer, out)
    note = (f", {tracer.dropped} oldest dropped by the ring buffer"
            if tracer.dropped else "")
    print(f"wrote {len(payload['traceEvents'])} trace event(s) to {out} "
          f"({tracer.emitted} emitted{note}); open in chrome://tracing "
          f"or https://ui.perfetto.dev")
    return 0


def _gateway(args: argparse.Namespace) -> int:
    """``esp-nuca gateway <serve|migrate|add-tenant|list-tenants>`` —
    the durable multi-tenant HTTP front end (docs/gateway.md)."""
    action = args.action or "serve"
    if action not in ("serve", "migrate", "add-tenant", "list-tenants"):
        print(f"error: 'gateway' action must be serve, migrate, "
              f"add-tenant or list-tenants, got {action!r}",
              file=sys.stderr)
        return 2
    from repro.gateway.store import JobStore, StoreError

    if action == "migrate":
        store = JobStore(args.db)
        try:
            applied = store.migrate()
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            store.close()
        if applied:
            print(f"applied {len(applied)} migration(s): "
                  + ", ".join(applied))
        else:
            print("schema already up to date")
        return 0
    if action == "add-tenant":
        if not args.tenant:
            print("error: add-tenant needs --tenant <name>",
                  file=sys.stderr)
            return 2
        with JobStore.open(args.db) as store:
            try:
                tenant, key = store.add_tenant(
                    args.tenant, max_jobs=args.max_jobs,
                    max_points=args.max_points,
                    rate_capacity=args.rate_capacity,
                    rate_refill=args.rate_refill)
            except (StoreError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        print(f"tenant {tenant['name']!r}: max_jobs={tenant['max_jobs']} "
              f"max_points={tenant['max_points']} "
              f"rate={tenant['rate_capacity']:g}/burst "
              f"{tenant['rate_refill']:g}/s")
        print(f"api key (shown once, only the hash is stored): {key}")
        return 0
    if action == "list-tenants":
        with JobStore.open(args.db) as store:
            tenants = store.list_tenants()
        if not tenants:
            print("no tenants (use 'gateway add-tenant --tenant <name>')")
            return 0
        for row in tenants:
            print(f"{row['name']}: max_jobs={row['max_jobs']} "
                  f"max_points={row['max_points']} "
                  f"rate={row['rate_capacity']:g}/burst "
                  f"{row['rate_refill']:g}/s")
        return 0

    # serve
    import asyncio
    import signal

    from repro.gateway.app import Gateway, GatewayConfig
    from repro.harness.executor import Executor
    from repro.harness.fabric import default_workers
    from repro.harness.runcache import RunCache
    from repro.gateway.client import parse_address
    from repro.obs.logging import configure

    # Structured logs on stderr; the parseable startup/drained lines
    # below stay on stdout (tools/gateway_smoke.py greps them).
    configure(args.log_level or "info", fmt=args.log_format)
    try:
        bind = parse_address(args.http)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        # A 0-process fabric would accept jobs and never run one — fail
        # loudly instead of hanging the first submitter.
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.workers is not None:
        workers = args.workers
    elif args.jobs is not None:
        workers = args.jobs
    else:
        workers = default_workers()
    cache = RunCache(enabled=False) if args.no_cache else RunCache.from_env()
    gateway = Gateway(
        GatewayConfig(bind=bind, db_path=args.db,
                      queue_limit=args.queue_limit,
                      workers=args.service_workers, batch=args.batch,
                      allow_anonymous=args.allow_anonymous),
        executor=Executor(jobs=workers, cache=cache),
        settings=_settings(args))

    async def _main() -> None:
        address = await gateway.start()
        shown = (f"unix:{address[1]}" if address[0] == "unix"
                 else f"http://{address[1]}:{address[2]}")
        backlog = len(gateway.store.unfinished_jobs())
        print(f"esp-nuca gateway listening on {shown} "
              f"(store {args.db}, queue limit {args.queue_limit}, "
              f"{workers} simulation process(es), "
              f"{'anonymous allowed' if args.allow_anonymous else 'API keys required'}"
              f"{f', recovering {backlog} job(s)' if backlog else ''})",
              flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(gateway.shutdown()))
            except NotImplementedError:  # pragma: no cover — non-POSIX
                pass
        await gateway.serve_forever()
        print(f"gateway drained: {len(gateway.core.jobs)} job(s) this "
              f"process, {gateway.c_recovered.value} recovered, "
              f"{gateway.c_admits.value} admitted over HTTP", flush=True)

    asyncio.run(_main())
    return 0


def _top(args: argparse.Namespace) -> int:
    """``esp-nuca top`` — live telemetry dashboard over a gateway's
    ``/metrics`` and ``/readyz`` (docs/observability.md, "Live
    telemetry"). Works without an API key: both routes are pre-auth."""
    from repro.obs.top import run_top

    host = args.http
    url = host if host.startswith("http://") else f"http://{host}"
    if args.interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 2
    try:
        return run_top(url, api_key=args.api_key,
                       interval=args.interval, once=args.once)
    except KeyboardInterrupt:  # pragma: no cover — interactive
        return 0


def _submit(args: argparse.Namespace) -> int:
    """``esp-nuca submit`` — send one grid to a running gateway
    (``--http``, ``--api-key``), then wait for it, ``--watch`` it, or
    leave it running (``--no-wait``)."""
    from repro.gateway.client import (GatewayClient, GatewayError,
                                      parse_address, payloads_to_results)

    archs = [a.strip() for a in args.arch.split(",") if a.strip()]
    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    settings = {key: value for key, value in (
        ("refs_per_core", args.refs),
        ("warmup_refs_per_core", args.warmup),
        ("capacity_factor", args.scale),
        ("num_seeds", args.seeds),
        ("engine", args.engine),
    ) if value is not None}
    try:
        address = parse_address(args.http)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = (f"unix:{address[1]}" if address[0] == "unix"
            else f"http://{address[1]}:{address[2]}")
    # Notes go to stderr when stdout carries the JSON results.
    notes = sys.stderr if args.json == "-" else sys.stdout
    try:
        with GatewayClient(base, api_key=args.api_key) as client:
            reply = client.submit(archs, workloads,
                                  settings=settings or None,
                                  priority=args.priority, check=args.check,
                                  trace=args.trace)
            job = reply["job"]
            if args.no_wait:
                print(f"job {job}: {reply['state']} "
                      f"(GET /v1/jobs/{job} for progress)")
                if args.trace:
                    print(f"its event trace is served at GET "
                          f"/v1/jobs/{job}/trace once the job ends")
                return 0
            final = reply
            for event in client.events(job):
                if event.get("event") != "progress":
                    final = event
                elif args.watch:
                    counts = event["counts"]
                    print(f"[{job}] {event['state']}: "
                          f"{counts['done'] + counts['cached']}"
                          f"/{event['unique_points']} point(s) done "
                          f"({counts['cached']} cached, "
                          f"{counts['running']} running)",
                          file=notes, flush=True)
            if args.trace:
                out = args.out or f"{job}.trace.json"
                with open(out, "w", encoding="utf-8") as handle:
                    json.dump(client.trace(job), handle)
                print(f"wrote the event trace of job {job} to {out}; open "
                      f"in chrome://tracing or https://ui.perfetto.dev",
                      file=notes)
    except GatewayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach the gateway at {args.http}: {exc}",
              file=sys.stderr)
        return 1
    state = final.get("state", "queued")
    if "results" not in final:
        print(f"job {job}: {state}")
        for message in (final.get("errors") or {}).values():
            print(f"  point failed: {message}", file=sys.stderr)
        return 1 if final.get("errors") else 0
    if args.json is not None:
        payload = json.dumps(final["results"], indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {len(final['results'])} result(s) to {args.json}")
        return 0
    results = payloads_to_results(final["results"])
    print(f"job {job}: {state}, {len(results)} result(s) "
          f"({reply.get('cached', 0)} from cache, "
          f"{reply.get('coalesced', 0)} coalesced)")
    for result in results:
        print(f"  {result.architecture} on {result.workload} "
              f"(seed {result.seed}): perf {result.performance:.4f}, "
              f"avg access {result.average_access_time:.2f} cycles")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.experiment == "list":
        print("experiments:", ", ".join(EXPERIMENTS))
        print("architectures: see repro.architectures.registry")
        print("workloads:", ", ".join(workload_names()))
        return 0
    if args.experiment == "overhead":
        from repro.core.overhead import summarize

        print(summarize())
        return 0
    if args.experiment == "claims":
        from repro.harness.claims import (format_results,
                                          load_reports_from_json,
                                          verify_claims)

        directory = (args.json if args.json not in (None, "-")
                     else "results_json")
        reports = load_reports_from_json(directory)
        print(f"claims over {len(reports)} report(s) from {directory}:")
        print(format_results(verify_claims(reports)))
        return 0
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.check < 0:
        print("error: --check period must be >= 1", file=sys.stderr)
        return 2
    if args.experiment == "repro-cache":
        from repro.harness.runcache import main as cache_main

        return cache_main([args.action or "stats"])
    if args.experiment == "submit":
        return _submit(args)
    if args.experiment == "gateway":
        return _gateway(args)
    if args.experiment == "top":
        return _top(args)
    from repro.harness.executor import Executor
    from repro.harness.runcache import RunCache

    if args.experiment == "trace" and args.action is not None:
        return _event_trace(args)
    cache = RunCache(enabled=False) if args.no_cache else RunCache.from_env()
    executor = Executor(jobs=args.jobs, cache=cache)
    runner = ExperimentRunner(_settings(args), config=_config(args),
                              executor=executor)
    if args.experiment == "trace":
        from repro.workloads.tracefile import save_traces

        out = args.out or f"{args.workload}.trace.gz"
        traces = runner._traces(args.workload, runner.seeds[0])
        save_traces(out, traces, workload=args.workload,
                    seed=runner.seeds[0])
        refs = sum(len(t) for t in traces if t is not None)
        print(f"wrote {refs} references for {args.workload!r} to {out}")
        return 0
    if args.experiment == "run":
        _single_run(runner, args.arch, args.workload)
        return 0
    if args.experiment == "stats":
        _run_stats(runner, args.arch, args.workload, json_out=args.json)
        return 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.time()
        report = run_experiment(name, runner)
        print(report.format(precision=args.precision))
        if args.chart and report.series:
            from repro.harness.plots import report_chart

            print()
            print(report_chart(report))
        print(f"[{name} completed in {time.time() - start:.1f}s]\n")
        if args.json == "-":
            print(report.to_json())
        elif args.json:
            import os

            os.makedirs(args.json, exist_ok=True)
            path = os.path.join(args.json, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
