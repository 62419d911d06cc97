"""HTTP gateway serving and recovery benchmark; writes
BENCH_gateway.json at the repo root.

Three measurements against a real in-process gateway (HTTP over
loopback TCP, SQLite store, run cache on disk):

1. **cold submits** — ``POST /v1/jobs`` latency and request rate when
   every submission admits a fresh, uncached point (the reply is the
   queued-job snapshot: admission + durable store write, not the
   simulation itself);
2. **cache-hit submits** — the same grids again once the cache holds
   every point: the reply is ``state=done`` with full results inline,
   so this measures the complete answer-from-cache fast path. Every
   hit reply's results must equal the cold job's, fetched once through
   ``GET /v1/jobs/{id}/results`` after it finished (outside the timed
   span);
3. **store recovery** — a gateway booted against a store holding a
   1k-job ``queued`` backlog (200 with ``--quick``) whose points are
   all cache-resident: wall-clock from process start until every job is
   terminal, i.e. the durability machinery alone.

Usage::

    PYTHONPATH=src python benchmarks/bench_gateway.py [--quick]
"""

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from benchreport import add_out_argument, save_report

from repro.common.config import scaled_config
from repro.gateway import GatewayClient, GatewayConfig, GatewayThread, JobStore
from repro.harness.executor import Executor
from repro.harness.runcache import RunCache
from repro.harness.runner import RunSettings, grid_points

SETTINGS = RunSettings(capacity_factor=8, refs_per_core=400,
                       warmup_refs_per_core=100, num_seeds=1)
SETTINGS_WIRE = {"refs_per_core": SETTINGS.refs_per_core,
                 "warmup_refs_per_core": SETTINGS.warmup_refs_per_core,
                 "capacity_factor": SETTINGS.capacity_factor}
ARCHS = ["esp-nuca"]
WORKLOADS = ["apache"]


def percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1,
                int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def latency_stats(samples_s):
    ordered = sorted(samples_s)
    return {
        "requests": len(ordered),
        "p50_ms": round(percentile(ordered, 0.50) * 1e3, 3),
        "p99_ms": round(percentile(ordered, 0.99) * 1e3, 3),
        "mean_ms": round(sum(ordered) / len(ordered) * 1e3, 3),
        "requests_per_s": round(len(ordered) / sum(ordered), 1),
    }


def submit_pass(client, seeds, wait):
    """Sequential submits, one per seed; returns per-request latencies
    and the replies."""
    samples, replies = [], []
    for seed in seeds:
        start = time.perf_counter()
        reply = client.submit(ARCHS, WORKLOADS, seeds=[seed],
                              settings=SETTINGS_WIRE)
        samples.append(time.perf_counter() - start)
        replies.append(reply)
    if wait:
        for reply in replies:
            client.wait(reply["job"], timeout=600)
    return samples, replies


def bench_submits(workdir, seeds):
    db = os.path.join(workdir, "serve.sqlite")
    cache = os.path.join(workdir, "cache")
    config = GatewayConfig(bind=("tcp", "127.0.0.1", 0), db_path=db,
                           queue_limit=max(64, len(seeds) + 8),
                           allow_anonymous=True,
                           anon_max_jobs=len(seeds) + 8,
                           anon_max_points=len(seeds) + 8,
                           anon_rate_capacity=1e9, anon_rate_refill=1e9)
    executor = Executor(jobs=1, cache=RunCache(root=cache))
    with GatewayThread(config, executor=executor,
                       settings=SETTINGS) as handle:
        with GatewayClient(handle.base_url) as client:
            cold, cold_replies = submit_pass(client, seeds, wait=True)
            want = [client.results(reply["job"])["results"]
                    for reply in cold_replies]
            hot, replies = submit_pass(client, seeds, wait=False)
            for seed, reply, results in zip(seeds, replies, want):
                assert reply["state"] == "done", \
                    "cache-hit submissions should return terminal snapshots"
                assert reply["results"] == results, \
                    f"cache-hit reply for seed {seed} differs from the " \
                    f"cold job's results"
    return latency_stats(cold), latency_stats(hot)


def bench_recovery(workdir, backlog_jobs, distinct_grids=8):
    """Boot against a stored backlog whose points are cache-resident;
    time start -> every job terminal."""
    db = os.path.join(workdir, "recover.sqlite")
    cache_dir = os.path.join(workdir, "recover-cache")
    cache = RunCache(root=cache_dir)
    config = scaled_config(SETTINGS.capacity_factor)
    grids = [(ARCHS, WORKLOADS, [7000 + i]) for i in range(distinct_grids)]
    executor = Executor(jobs=1, cache=cache)
    for archs, workloads, seeds in grids:
        executor.run(grid_points(config, SETTINGS, archs, workloads, seeds))
    with JobStore.open(db) as store:
        for i in range(backlog_jobs):
            archs, workloads, seeds = grids[i % len(grids)]
            points = grid_points(config, SETTINGS, archs, workloads, seeds)
            store.create_job(
                {"architectures": archs, "workloads": workloads,
                 "seeds": seeds, "settings": SETTINGS_WIRE}, 0, None,
                [(p.key, p.name, p.workload, p.seed) for p in points])

    gw_config = GatewayConfig(bind=("tcp", "127.0.0.1", 0), db_path=db,
                              allow_anonymous=True)
    start = time.perf_counter()
    with GatewayThread(gw_config,
                       executor=Executor(jobs=1, cache=cache),
                       settings=SETTINGS) as handle:
        with GatewayClient(handle.base_url) as client:
            while True:
                status = client.status()
                done = status["store"]["jobs"].get("done", 0)
                if not status["recovering"] and done >= backlog_jobs:
                    break
                assert time.perf_counter() - start < 600, \
                    f"recovery stalled: {status['store']}"
                time.sleep(0.05)
            elapsed = time.perf_counter() - start
            recovered = status["gateway"]["recovered"]
    assert recovered == backlog_jobs, (recovered, backlog_jobs)
    return {
        "backlog_jobs": backlog_jobs,
        "distinct_grids": distinct_grids,
        "recovery_wall_s": round(elapsed, 3),
        "jobs_per_s": round(backlog_jobs / elapsed, 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer submits and a 200-job backlog for CI")
    add_out_argument(parser, "BENCH_gateway.json")
    args = parser.parse_args(argv)
    submits = 30 if args.quick else 100
    backlog = 200 if args.quick else 1000

    with tempfile.TemporaryDirectory(prefix="repro_bench_gateway_") as tmp:
        cold, hot = bench_submits(tmp, seeds=list(range(5000, 5000 + submits)))
        print(f"cold submits: p50 {cold['p50_ms']}ms "
              f"p99 {cold['p99_ms']}ms ({cold['requests_per_s']} req/s)",
              flush=True)
        print(f"cache-hit submits: p50 {hot['p50_ms']}ms "
              f"p99 {hot['p99_ms']}ms ({hot['requests_per_s']} req/s)",
              flush=True)
        recovery = bench_recovery(tmp, backlog)
        print(f"recovery: {recovery['backlog_jobs']} jobs in "
              f"{recovery['recovery_wall_s']}s "
              f"({recovery['jobs_per_s']} jobs/s)", flush=True)

    payload = {
        "benchmark": "HTTP gateway: submit latency and store recovery",
        "grid": {"architectures": ARCHS, "workloads": WORKLOADS,
                 "refs_per_core": SETTINGS.refs_per_core,
                 "warmup_refs_per_core": SETTINGS.warmup_refs_per_core,
                 "capacity_factor": SETTINGS.capacity_factor,
                 "quick": args.quick},
        "environment": {"cpu_count": os.cpu_count() or 1,
                        "python": sys.version.split()[0]},
        "passes": {
            "cold_submit": dict(cold, label=(
                "POST /v1/jobs, uncached point: admission + durable "
                "store write, job completes asynchronously")),
            "cache_hit_submit": dict(hot, label=(
                "POST /v1/jobs, cache-resident grid: full results "
                "inline in the 201 reply")),
            "store_recovery": dict(recovery, label=(
                "boot against a queued backlog, all points "
                "cache-resident: wall-clock until every job is done")),
        },
    }
    save_report(payload, args.out, "BENCH_gateway.json", args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
