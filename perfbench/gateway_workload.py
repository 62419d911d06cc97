"""``gateway_replay``: an in-process gateway driven over loopback HTTP.

One closed-loop client with two connections (the keep-alive submit
connection and the SSE stream) drives a :class:`GatewayThread` whose
fabric is ``Executor(jobs=2)``, with a fresh SQLite store and run cache
under the run's work directory. Phases, strictly one after another:

1. set-up: start a gateway until ``/readyz`` answers ready,
   ``SETUP_REPEATS`` times (fresh store each); ``setup_s`` is the median
   and the last one serves the run;
2. cold: small grids with fresh seeds, one at a time; each is timed
   from sending ``POST /v1/jobs`` until its SSE ``end`` frame arrives
   with results (fabric simulation, run-cache put, store commit);
   ``peak_rss_mb`` is read when ``MIN_OPS`` cold jobs are done;
3. replay: starts once every cold job is terminal and no fabric worker
   is busy; the cold grids are re-submitted in order, each answered
   ``201`` with results inline from the run cache (HTTP, auth,
   admission, run-cache get, store writes; no simulation);
4. oracle: with the gateway stopped, cold points are re-simulated
   in-process under the reference engine and compared with the
   gateway's results (the two-engine identity check for this path).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

from layer_probe import LayerSampler, SpanLog
from engine_workloads import CAPACITY_FACTOR, COLD_WORKLOADS, simulate
from measure import (MIN_OPS, BenchError, ModelTotals, Run, canonical,
                     check_digest, collect_between, end_to_end, gc_paused,
                     load_digests, mean, median, peak_rss_mb, phase_done,
                     settle_heap)

from repro.common.config import scaled_config
from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
from repro.gateway.client import GatewayError
from repro.gateway.store import JobStore
from repro.harness.executor import Executor, materialize_traces
from repro.harness.fabric import WorkerPool
from repro.harness.runcache import RunCache
from repro.harness.runner import RunSettings
from repro.sim.results import SimResult

ARCHS = ["shared", "esp-nuca"]
FABRIC_JOBS = 2
SETUP_REPEATS = 9
REFS = {"full": (300, 100), "quick": (60, 20)}

#: Shares of ``--seconds`` for the cold, replay and oracle phases.
COLD_SHARE, REPLAY_SHARE, ORACLE_SHARE = 0.40, 0.35, 0.25

#: Cold grids drawn per run (far more than a run submits), and how many
#: of the first feed the deterministic ``model.*`` metrics.
MAX_JOBS = 5000
MODEL_JOBS = 100

#: A job not finished in this long counts as failed.
JOB_TIMEOUT_S = 60.0

#: In-process engine metrics of the vectorized engine, which runs only
#: inside fabric workers on this path.
ENGINE_ONLY = ("sim.run_s", "sim.us_per_l1_miss", "sim.us_per_ref")

STORE_LAYERS = ("store.create_job", "store.set_job_state",
                "store.record_results")


def start_gateway(run: Run, index: int, settings: RunSettings
                  ) -> Tuple[GatewayThread, float, float]:
    """A started gateway, and when its start began and it was ready."""
    root = os.path.join(run.workdir, f"gateway{index}")
    os.makedirs(root)
    config = GatewayConfig(
        bind=("tcp", "127.0.0.1", 0),
        db_path=os.path.join(root, "jobs.sqlite"),
        allow_anonymous=True, anon_max_jobs=4, anon_max_points=64,
        anon_rate_capacity=1e9, anon_rate_refill=1e9)
    start = time.perf_counter()
    executor = Executor(jobs=FABRIC_JOBS,
                        cache=RunCache(root=os.path.join(root, "runcache")))
    handle = GatewayThread(config, executor=executor, settings=settings)
    handle.__enter__()
    try:
        with GatewayClient(handle.base_url) as probe:
            while not probe.readyz().get("ready"):
                if time.perf_counter() - start > 30:
                    raise TimeoutError("gateway not ready within 30s")
                time.sleep(0.001)
    except BaseException:
        handle.__exit__(None, None, None)
        raise
    return handle, start, time.perf_counter()


def run_workload(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    refs, warmup = REFS[run.mode]
    settings = RunSettings(capacity_factor=CAPACITY_FACTOR,
                           refs_per_core=refs, warmup_refs_per_core=warmup,
                           num_seeds=1, engine="vectorized")
    wire = {"refs_per_core": refs, "warmup_refs_per_core": warmup,
            "capacity_factor": CAPACITY_FACTOR, "engine": "vectorized"}
    spans = SpanLog() if run.trace else None
    if spans is not None:
        spans.wrap(JobStore, "open", "store.open")
        spans.wrap(Executor, "prestart", "fabric.prestart")
        spans.wrap(WorkerPool, "run_batch", "fabric.run_batch")
        spans.wrap(RunCache, "get", "runcache.get")
        spans.wrap(RunCache, "put", "runcache.put")
        for layer in STORE_LAYERS:
            spans.wrap(JobStore, layer.split(".")[1], layer)
    try:
        setup = []
        for index in range(SETUP_REPEATS):
            run.probe.sample(force=True)
            # Frozen before the fabric forks, so the workers' collections
            # do not walk the benchmark's own objects (the host probe's).
            settle_heap()
            handle, started, ready = start_gateway(run, index, settings)
            setup.append((started, ready))
            # The fabric has just forked: take the probe's copy-on-write
            # faults now, outside every timed span and probe.
            run.probe.touch()
            if index < SETUP_REPEATS - 1:
                handle.__exit__(None, None, None)
        try:
            served = drive(run, handle, settings, wire)
        finally:
            handle.__exit__(None, None, None)
        # The stopped gateway's job table would otherwise stay on the
        # heap that every oracle point's collection walks.
        del handle
        settle_heap()
        oracle = oracle_phase(run, settings, served["cold"], run.trace)
    finally:
        if spans is not None:
            spans.restore()

    e2e = end_to_end(run, setup=setup, cold=served["cold_spans"],
                     cold_refs=served["cold_refs"], oracle=oracle["spans"],
                     oracle_refs=oracle["refs"], hits=served["hit_spans"],
                     rss_mb=served["rss_mb"])
    run.note(f"grid={len(ARCHS)} archs x 1 workload x 1 seed; "
             f"refs/core={refs}+{warmup} warmup; fabric jobs={FABRIC_JOBS}")

    layers: Dict[str, float] = {}
    if run.trace:
        replay = (served["replay_start"], served["replay_end"])
        windows = served["hit_spans"]
        inside = spans.covered(("runcache.get",) + STORE_LAYERS, windows)
        residuals = [(t1 - t0) - busy
                     for (t0, t1), busy in zip(windows, inside)]
        gets = spans.durations("runcache.get", *replay)
        layers.update({
            "workloads.gen_s": oracle["gen_s"],
            "workloads.refs": oracle["refs"],
            "sim.build_ms": mean(oracle["build"]) * 1e3,
            "sim.oracle_run_s": oracle["run_s"],
            "store.open_s": median(spans.durations("store.open")),
            "fabric.prestart_s": median(spans.durations("fabric.prestart")),
            "gateway.cold_submit_ms": median(served["cold_submit"]) * 1e3,
            "service.queue_wait_ms": median(served["queue_wait"]) * 1e3,
            "fabric.run_batch_ms":
                mean(spans.durations("fabric.run_batch")) * 1e3,
            "fabric.requeued": served["fabric"]["requeued"],
            "fabric.crashed": served["fabric"]["crashed"],
            "runcache.put_ms": mean(spans.durations("runcache.put")) * 1e3,
            "runcache.puts": len(spans.durations("runcache.put")),
            "runcache.get_ms": mean(gets) * 1e3,
            "runcache.gets": served["replay_gets"],
            "runcache.hit_ratio": served["replay_hit_ratio"],
            "gateway.hit_residual_ms": median(residuals) * 1e3,
            "service.points_executed": served["executed"],
            "gateway.rejects": served["rejects"],
        })
        for layer in STORE_LAYERS:
            layers[f"{layer}_ms"] = mean(spans.durations(layer)) * 1e3
        layers.update(oracle["sampler"].metrics())
        layers.update(served["model"].metrics())
        layers.update({name: 0 for name in ENGINE_ONLY})
        run.report.extend(oracle["sampler"].share_table(("reference",)))
    return e2e, layers


def job_grids(run: Run, count: int) -> List[Tuple[str, int]]:
    """The cold phase's (workload, seed) grids, in submission order:
    workloads cycle, seeds are distinct draws from ``--seed``."""
    rng = run.rng("jobs")
    seeds = rng.sample(range(1, 2 ** 31), count)
    return [(COLD_WORKLOADS[i % len(COLD_WORKLOADS)], seed)
            for i, seed in enumerate(seeds)]


def drive(run: Run, handle: GatewayThread, settings: RunSettings,
          wire) -> dict:
    recorded = load_digests()
    core = handle.gateway.core
    executor = core.executor
    grids = job_grids(run, MAX_JOBS)
    config = scaled_config(CAPACITY_FACTOR)
    refs_per_point = {
        workload: sum(len(t) for t in materialize_traces(
            config, settings, workload, 1) if t is not None)
        for workload in COLD_WORKLOADS}
    cold_spans: List[Tuple[float, float]] = []
    cold_submit: List[float] = []
    queue_wait: List[float] = []
    cold: List[Tuple[str, int, List[str], str]] = []
    model = ModelTotals()
    cold_refs = 0
    with GatewayClient(handle.base_url, timeout=JOB_TIMEOUT_S) as client, \
            gc_paused():
        # -- cold ------------------------------------------------------------
        # The job table keeps every job, so memory is read at a fixed
        # job count rather than after however many the budget allowed.
        rss_mb = None
        started = time.perf_counter()
        while not phase_done(started, run.seconds * COLD_SHARE,
                             len(cold_spans)):
            if len(cold_spans) == MIN_OPS:
                rss_mb = peak_rss_mb(run)
            run.check_deadline("cold phase")
            workload, seed = grids[len(cold_spans)]
            run.probe.sample()
            run.attempted += 1
            results = end = None
            sent = time.perf_counter()
            try:
                reply = client.submit(ARCHS, [workload], seeds=[seed],
                                      settings=wire)
                replied = time.perf_counter()
                for event in client.events(reply["job"]):
                    if event.get("event") == "end":
                        end = event
            except (GatewayError, OSError) as exc:
                run.fail(f"cold job {workload}/{seed}: {exc}")
                cold_spans.append((sent, time.perf_counter()))
                continue
            cold_spans.append((sent, time.perf_counter()))
            cold_submit.append(replied - sent)
            # The job's own state timeline (server side, same clock): the
            # SSE client reads in 4 KiB blocks, so it sees the `running`
            # frame only together with the end frame.
            timeline = dict(reversed(core.jobs[reply["job"]].timeline))
            if "running" in timeline:
                queue_wait.append((timeline["running"] - timeline["queued"])
                                  / 1e6)
            if end is not None and end.get("state") == "done":
                results = end.get("results")
            if results is None:
                run.fail(f"cold job {workload}/{seed} ended "
                         f"{end and end.get('state')}")
                continue
            texts = [canonical(payload) for payload in results]
            for arch, text in zip(ARCHS, texts):
                if not check_digest(run, recorded,
                                    f"{workload}/{arch}/{seed}", text):
                    run.fail(f"result digest changed at "
                             f"{workload}/{arch}/{seed}")
            # Only strings are kept: the heap GC re-scans stays small.
            cold.append((workload, seed, texts, canonical(results)))
            cold_refs += refs_per_point[workload] * len(ARCHS)
            if len(cold) <= MODEL_JOBS:
                for payload in results:
                    model.add(SimResult.from_dict(payload))
            collect_between()
        if not cold:
            raise BenchError("no cold job completed")
        if rss_mb is None:
            rss_mb = peak_rss_mb(run)

        # -- quiesce: every cold job terminal, no fabric worker busy ---------
        deadline = time.perf_counter() + 30
        while (executor.fabric_stats() or {}).get("busy", 0) or \
                core.active_jobs():
            if time.perf_counter() > deadline:
                raise BenchError("fabric did not go idle after cold phase")
            time.sleep(0.01)

        # -- replay ----------------------------------------------------------
        cache = executor.cache
        hits_before, misses_before = cache.hits, cache.misses
        executed_before = executor.executed
        hit_spans: List[Tuple[float, float]] = []
        replay_start = time.perf_counter()
        while not phase_done(replay_start, run.seconds * REPLAY_SHARE,
                             len(hit_spans)):
            run.check_deadline("replay phase")
            workload, seed, _results, text = cold[len(hit_spans) % len(cold)]
            run.probe.sample()
            run.attempted += 1
            sent = time.perf_counter()
            try:
                reply = client.submit(ARCHS, [workload], seeds=[seed],
                                      settings=wire)
            except (GatewayError, OSError) as exc:
                run.fail(f"hit submit {workload}/{seed}: {exc}")
                hit_spans.append((sent, time.perf_counter()))
                continue
            hit_spans.append((sent, time.perf_counter()))
            if reply.get("state") != "done" or \
                    canonical(reply.get("results")) != text:
                run.fail(f"replay of {workload}/{seed} differs from its "
                         f"cold result")
            collect_between()
        replay_end = time.perf_counter()
        gets = cache.hits + cache.misses - hits_before - misses_before
        if executor.executed != executed_before:
            run.fail("replay phase simulated points")
        fabric = executor.fabric_summary()
        rejects = sum(
            float(line.rsplit(" ", 1)[1])
            for line in client.metrics().splitlines()
            if line.startswith("espnuca_gateway_rejects_total"))
    if rejects:
        run.fail(f"{rejects:g} typed reject(s) counted by /metrics")
    return {"cold": cold, "cold_spans": cold_spans,
            "cold_submit": cold_submit, "queue_wait": queue_wait,
            "cold_refs": cold_refs, "model": model,
            "hit_spans": hit_spans, "replay_start": replay_start,
            "replay_end": replay_end, "replay_gets": gets,
            "rss_mb": rss_mb,
            "replay_hit_ratio": (cache.hits - hits_before) / max(gets, 1),
            "executed": executor.executed, "fabric": fabric,
            "rejects": rejects}


def oracle_phase(run: Run, settings: RunSettings, cold, trace: bool) -> dict:
    """Re-simulate cold points under the reference engine, in cold
    order, until the oracle budget is spent (at least one grid)."""
    config = scaled_config(CAPACITY_FACTOR)
    sampler = LayerSampler(os.path.join(run.src, "repro")) if trace else None
    gen_s = run_s = 0.0
    refs = 0
    spans: List[Tuple[float, float]] = []
    build: List[float] = []
    if sampler is not None:
        sampler.start()
    try:
        with gc_paused():
            started = time.perf_counter()
            i = 0
            while not phase_done(started, run.seconds * ORACLE_SHARE, i, 1):
                run.check_deadline("oracle phase")
                workload, seed, texts, _text = cold[i % len(cold)]
                t0 = time.perf_counter()
                traces = materialize_traces(config, settings, workload, seed)
                gen_s += time.perf_counter() - t0
                for arch, expected in zip(ARCHS, texts):
                    run.probe.sample()
                    run.attempted += 1
                    result, start, mid, ran, end = simulate(
                        "reference", config, settings, arch, traces, sampler)
                    build.append(mid - start)
                    run_s += ran - mid
                    spans.append((start, end))
                    refs += sum(len(t) for t in traces if t is not None)
                    result.workload = workload
                    result.seed = seed
                    if canonical(result.to_dict()) != expected:
                        run.fail(f"reference engine differs from the "
                                 f"gateway at {workload}/{arch}/{seed}")
                i += 1
    finally:
        if sampler is not None:
            sampler.stop()
    return {"gen_s": gen_s, "run_s": run_s, "spans": spans, "refs": refs,
            "build": build, "sampler": sampler}
