"""``cold_grid`` and ``local_hits``: grids simulated in-process.

Each point runs under both engines from one set of materialized traces;
the default (vectorized) engine's build + run time is the point's
latency, the "cold job" of these workloads. Then the whole grid (every
trace set under the five architectures, 100 points) is re-run through
``Executor.run`` against the run cache the first pass filled, which is
what a user re-running a figure pays: the "hit submit" of these
workloads. Phases:

1. set-up: materialize the traces of every point, ``SETUP_REPEATS``
   times; ``setup_s`` is the median;
2. cold: points in grid order, the engines alternating which runs
   first, until the cold budget is spent and every point ran once;
   ``peak_rss_mb`` is read when every point has run once;
3. hit: the grid re-run from the cache until the hit budget is spent
   and it was answered ``MIN_OPS`` times.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from layer_probe import LayerSampler, SpanLog
from measure import (ModelTotals, Run, canonical, check_digest,
                     collect_between, end_to_end, gc_paused, load_digests,
                     mean, median, peak_rss_mb, phase_done, settle_heap)

from repro.architectures.registry import make_architecture
from repro.common.config import scaled_config
from repro.harness.executor import Executor, RunPoint, materialize_traces
from repro.harness.runcache import RunCache
from repro.harness.runner import RunSettings
from repro.sim.engines import build_engine
from repro.sim.system import CmpSystem
# Imported here so its one-time import is not timed inside a point.
from repro.sim.vector import engine as _vector_engine  # noqa: F401
from repro.workloads.base import TraceGenerator, WorkloadSpec

ARCHS = ("shared", "private", "d-nuca", "asr", "esp-nuca")
ENGINES = ("vectorized", "reference")
DEFAULT_ENGINE = "vectorized"
CAPACITY_FACTOR = 8
SETUP_REPEATS = 5

#: Share of ``--seconds`` spent on cold points; the rest replays hits.
COLD_SHARE = 0.7

#: The paper's miss-dominated regime: registered workloads whose L1 hit
#: rates sit near 0.5 at the scaled configuration.
COLD_WORKLOADS = ("apache", "oltp", "CG", "art-4")

#: A private footprint of 96 blocks against the 64-block scaled L1 with
#: 90% temporal reuse: L1 hit rate ~0.9, so epoch batching and core
#: timing dominate and the contention path does little.
LOCAL_SPEC = WorkloadSpec(
    name="perfbench-local", family="perfbench",
    active_cores=tuple(range(8)), private_footprint_blocks=96,
    reuse_fraction=0.9,
    description="L1-resident private working set (benchmark control)")


@dataclass(frozen=True)
class Shape:
    """A workload's grid: trace sets (workload name x trace seed), each
    run under every architecture, at a per-core reference budget."""

    workloads: Tuple[str, ...]
    seeds_per_workload: int
    refs: int
    warmup: int


SHAPES = {
    ("cold_grid", "full"): Shape(COLD_WORKLOADS, 5, 500, 125),
    ("cold_grid", "quick"): Shape(COLD_WORKLOADS, 5, 40, 10),
    ("local_hits", "full"): Shape((LOCAL_SPEC.name,), 20, 1300, 325),
    ("local_hits", "quick"): Shape((LOCAL_SPEC.name,), 20, 100, 25),
}

#: Gateway-path per-layer metrics; these layers are not on this path.
GATEWAY_ONLY = (
    "store.open_s", "fabric.prestart_s", "gateway.cold_submit_ms",
    "service.queue_wait_ms", "fabric.run_batch_ms", "fabric.requeued",
    "fabric.crashed", "store.create_job_ms", "store.set_job_state_ms",
    "store.record_results_ms", "gateway.hit_residual_ms",
    "service.points_executed", "gateway.rejects")


def generate(config, settings, workload: str, seed: int):
    if workload == LOCAL_SPEC.name:
        total = settings.refs_per_core + settings.warmup_refs_per_core
        generator = TraceGenerator(LOCAL_SPEC.scaled(total), seed)
        return [list(t) if t is not None else None
                for t in generator.traces(config.num_cores)]
    return materialize_traces(config, settings, workload, seed)


def simulate(engine: str, config, settings, arch: str, traces,
             sampler: Optional[LayerSampler]):
    """One point under one engine, with automatic GC paused: returns
    ``(result, start, built, ran, end)``. The span ends after a full
    collection of the garbage the point left, so its GC cost is counted
    in the same place on every run rather than wherever a collection
    happened to fire."""
    if sampler is not None:
        sampler.label = engine
    try:
        start = time.perf_counter()
        system = CmpSystem(config, make_architecture(arch, config))
        built = build_engine(system, traces, engine)
        mid = time.perf_counter()
        result = built.run(
            max_refs_per_core=settings.refs_per_core,
            warmup_refs_per_core=settings.warmup_refs_per_core)
        ran = time.perf_counter()
    finally:
        if sampler is not None:
            sampler.label = None
    del system, built
    gc.collect()
    return result, start, mid, ran, time.perf_counter()


def run_workload(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Returns (end-to-end metrics, per-layer metrics)."""
    shape = SHAPES[run.workload, run.mode]
    config = scaled_config(CAPACITY_FACTOR)
    settings = RunSettings(capacity_factor=CAPACITY_FACTOR,
                           refs_per_core=shape.refs,
                           warmup_refs_per_core=shape.warmup, num_seeds=1)
    rng = run.rng("traces")
    # Workloads interleave, so any prefix of a pass is a balanced mix.
    sets = [(workload, rng.randrange(1, 2 ** 31))
            for _ in range(shape.seeds_per_workload)
            for workload in shape.workloads]

    setup = []
    traces: Dict[Tuple[str, int], list] = {}
    with gc_paused():
        for _ in range(SETUP_REPEATS):
            traces = {}
            collect_between()
            run.probe.sample(force=True)
            start = time.perf_counter()
            for key in sets:
                traces[key] = generate(config, settings, *key)
            setup.append((start, time.perf_counter()))
        run.probe.sample(force=True)
    refs_of = {key: sum(len(t) for t in tr if t is not None)
               for key, tr in traces.items()}
    points = [(key, arch) for key in sets for arch in ARCHS]
    settle_heap()

    sampler = LayerSampler(os.path.join(run.src, "repro")) \
        if run.trace else None
    spans = SpanLog() if run.trace else None
    if spans is not None:
        spans.wrap(RunCache, "get", "runcache.get")
        spans.wrap(RunCache, "put", "runcache.put")
    try:
        cold = cold_phase(run, config, settings, points, traces, refs_of,
                          sampler)
        hits = hit_phase(run, config, settings, sets, cold)
    finally:
        if spans is not None:
            spans.restore()

    e2e = end_to_end(run, setup=setup, cold=cold["spans"][DEFAULT_ENGINE],
                     cold_refs=cold["refs"],
                     oracle=cold["spans"]["reference"],
                     oracle_refs=cold["refs"], hits=hits["spans"],
                     rss_mb=cold["rss_mb"])
    run.note(f"points={len(points)} trace_sets={len(sets)} "
             f"refs/core={shape.refs}+{shape.warmup} warmup")

    layers: Dict[str, float] = {}
    if run.trace:
        run_s = cold["run_s"][DEFAULT_ENGINE]
        misses = cold["l1_misses"]
        layers.update({
            "workloads.gen_s": median([end - start for start, end in setup]),
            "workloads.refs": sum(refs_of.values()),
            "sim.build_ms": mean(cold["build"][DEFAULT_ENGINE]) * 1e3,
            "sim.run_s": run_s,
            "sim.oracle_run_s": cold["run_s"]["reference"],
            "sim.us_per_l1_miss": run_s / max(misses, 1) * 1e6,
            "sim.us_per_ref": run_s / cold["refs"] * 1e6,
        })
        layers.update(sampler.metrics())
        layers.update(cold["model"].metrics())
        puts = spans.durations("runcache.put")
        gets = spans.durations("runcache.get", hits["start"], hits["end"])
        layers.update({
            "runcache.put_ms": mean(puts) * 1e3,
            "runcache.puts": len(puts),
            "runcache.get_ms": mean(gets) * 1e3,
            "runcache.gets": hits["gets"],
            "runcache.hit_ratio": hits["hit_ratio"],
        })
        layers.update({name: 0 for name in GATEWAY_ONLY})
        run.report.extend(sampler.share_table(ENGINES))
    return e2e, layers


def cold_phase(run: Run, config, settings, points, traces, refs_of,
               sampler: Optional[LayerSampler]) -> dict:
    recorded = load_digests()
    cold = {"spans": {engine: [] for engine in ENGINES},
            "run_s": dict.fromkeys(ENGINES, 0.0),
            "build": {engine: [] for engine in ENGINES},
            "refs": 0, "l1_misses": 0, "model": ModelTotals(),
            "canonical": {},
            "cache": RunCache(root=os.path.join(run.workdir, "runcache"))}
    if sampler is not None:
        sampler.start()
    try:
        with gc_paused():
            started = time.perf_counter()
            i = 0
            while not phase_done(started, run.seconds * COLD_SHARE, i,
                                 len(points)):
                run.check_deadline("cold phase")
                order = ENGINES if i % 2 == 0 else ENGINES[::-1]
                cold_point(run, config, settings, points[i % len(points)],
                           traces, refs_of, order, sampler, recorded, cold,
                           first_pass=i < len(points))
                i += 1
                if i == len(points):
                    # Every point once under both engines, results
                    # cached: a fixed count, whatever the host's speed.
                    cold["rss_mb"] = peak_rss_mb(run)
    finally:
        if sampler is not None:
            sampler.stop()
    return cold


def cold_point(run: Run, config, settings, point, traces, refs_of, order,
               sampler, recorded, cold, first_pass: bool) -> None:
    """One point under both engines, checked, into ``cold``'s tallies."""
    (workload, seed), arch = point
    out = {}
    for engine in order:
        run.probe.sample()
        result, start, mid, ran, end = simulate(
            engine, config, settings, arch, traces[workload, seed], sampler)
        result.workload = workload
        result.seed = seed
        out[engine] = result
        cold["spans"][engine].append((start, end))
        cold["run_s"][engine] += ran - mid
        cold["build"][engine].append(mid - start)
    cold["refs"] += refs_of[workload, seed]
    run.attempted += 1
    result = out[DEFAULT_ENGINE]
    cold["l1_misses"] += result.l1_misses
    text = canonical(result.to_dict())
    point_id = f"{workload}/{arch}/{seed}"
    if text != canonical(out["reference"].to_dict()):
        run.fail(f"engines disagree at {point_id}")
    elif not check_digest(run, recorded, point_id, text):
        run.fail(f"result digest changed at {point_id}")
    if first_pass:
        cold["model"].add(result)
        cold["canonical"][workload, seed, arch] = text
        cold["cache"].put(RunPoint(arch, workload, seed, config, settings,
                                   arch=arch).key, result)


def hit_phase(run: Run, config, settings, sets, cold) -> dict:
    cache = cold["cache"]
    executor = Executor(jobs=1, cache=cache)
    # The whole grid per operation (~35 ms): long enough that
    # millisecond host bursts do not set its tail, as they did for
    # 20-point grids (~7.5 ms; p90 spread 0.17-0.19 over ten seeds).
    grid = [RunPoint(arch, workload, seed, config, settings, arch=arch)
            for workload, seed in sets for arch in ARCHS]
    hits_before, misses_before = cache.hits, cache.misses
    spans: List[Tuple[float, float]] = []
    with gc_paused():
        started = time.perf_counter()
        while not phase_done(started, run.seconds * (1.0 - COLD_SHARE),
                             len(spans)):
            run.check_deadline("hit phase")
            run.probe.sample()
            run.attempted += 1
            start = time.perf_counter()
            try:
                results = executor.run(grid)
            except Exception as exc:  # noqa: BLE001 — a failed operation
                run.fail(f"hit grid raised {type(exc).__name__}: {exc}")
                results = None
            spans.append((start, time.perf_counter()))
            for point, result in zip(grid, results or ()):
                expected = cold["canonical"][point.workload, point.seed,
                                             point.arch]
                if canonical(result.to_dict()) != expected:
                    run.fail(f"replay differs at {point.workload}/"
                             f"{point.arch}/{point.seed}")
                    break
            collect_between()
        end = time.perf_counter()
    gets = cache.hits + cache.misses - hits_before - misses_before
    if executor.executed:
        run.fail(f"hit phase simulated {executor.executed} point(s)")
    return {"spans": spans, "start": started, "end": end, "gets": gets,
            "hit_ratio": (cache.hits - hits_before) / max(gets, 1)}
