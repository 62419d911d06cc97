"""Cold-grid scaling of the multi-process worker fabric; writes
BENCH_fabric.json at the repo root.

One representative figure-suite grid, simulated cold (fresh empty cache
per pass) at increasing fabric widths:

1. **workers=1** — the serial fallback (no worker processes), the
   baseline every other pass is scored against;
2. **workers=2** — the acceptance pass: on a multi-core host the cold
   grid must finish >= 1.7x faster than workers=1;
3. **workers=cpu_count** — only when the host has more than two cores:
   the saturation figure ROADMAP item 3 asks for.

Every pass's results are asserted identical to the workers=1 pass
(byte-identical fan-out is the fabric's core contract), and each
multi-process pass records which worker pids actually completed jobs.
On a single-core host the speedup is physically impossible; the
payload then carries an explicit ``single_core_note`` instead of a
failed assertion (same convention as BENCH_executor.json).

Usage::

    PYTHONPATH=src python benchmarks/bench_fabric.py [--quick] [--max-workers N]
"""

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from benchreport import add_out_argument, save_report

from repro.harness.executor import Executor
from repro.harness.runcache import RunCache
from repro.harness.runner import ExperimentRunner, RunSettings

ARCHS = ["shared", "private", "d-nuca", "esp-nuca"]
WORKLOADS = ["apache", "oltp", "CG"]
SETTINGS = RunSettings(capacity_factor=8, refs_per_core=2_000,
                       warmup_refs_per_core=500, num_seeds=2)

QUICK_ARCHS = ["shared", "esp-nuca"]
QUICK_WORKLOADS = ["apache", "CG"]
QUICK_SETTINGS = RunSettings(capacity_factor=8, refs_per_core=600,
                             warmup_refs_per_core=150, num_seeds=1)


def run_pass(workers, archs, workloads, settings):
    """One cold grid through a fresh fabric of ``workers`` processes,
    started before the timer."""
    with tempfile.TemporaryDirectory(prefix="repro_bench_fabric_") as tmp:
        executor = Executor(jobs=workers, cache=RunCache(root=tmp))
        runner = ExperimentRunner(settings, executor=executor)
        # The pool forks its workers outside the timed window: the pass
        # measures the grid, not process start-up.
        executor.prestart()
        start = time.perf_counter()
        matrix = runner.matrix(archs, workloads)
        elapsed = time.perf_counter() - start
        checksum = {f"{arch}/{wl}": [r.cycles for r in agg.runs]
                    for (arch, wl), agg in matrix.items()}
        fabric = executor.fabric_stats()
        executor.close()
    return elapsed, checksum, fabric


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid for CI smoke (same passes, "
                             "smaller points)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="widest fabric to measure (default: CPU "
                             "count when > 2)")
    add_out_argument(parser, "BENCH_fabric.json")
    args = parser.parse_args(argv)
    archs = QUICK_ARCHS if args.quick else ARCHS
    workloads = QUICK_WORKLOADS if args.quick else WORKLOADS
    settings = QUICK_SETTINGS if args.quick else SETTINGS
    points = len(archs) * len(workloads) * settings.num_seeds
    cpus = os.cpu_count() or 1

    widths = [1, 2]
    top = args.max_workers if args.max_workers is not None else cpus
    if top > 2:
        widths.append(top)

    passes = {}
    baseline_t = None
    baseline_sum = None
    for workers in widths:
        elapsed, checksum, fabric = run_pass(workers, archs, workloads,
                                             settings)
        if baseline_sum is None:
            baseline_t, baseline_sum = elapsed, checksum
        assert checksum == baseline_sum, \
            f"workers={workers} results diverge from the serial pass"
        entry = {
            "label": (f"{workers} simulation process(es), cold cache"
                      if workers > 1 else "serial fallback, cold cache"),
            "wall_clock_s": round(elapsed, 3),
            "throughput_points_per_s": round(points / elapsed, 3),
            "speedup_vs_workers_1": round(baseline_t / elapsed, 2),
        }
        if fabric is not None:
            entry["worker_pids_used"] = len(fabric["completed_by_pid"])
            entry["jobs_completed"] = fabric["completed"]
            entry["jobs_requeued"] = fabric["requeued"]
        passes[f"workers_{workers}"] = entry
        print(f"workers={workers}: {elapsed:.2f}s "
              f"({points / elapsed:.2f} points/s)", flush=True)

    scaling_2 = passes["workers_2"]["speedup_vs_workers_1"]
    payload = {
        "benchmark": "multi-process worker fabric, cold figure-suite grid",
        "grid": {"architectures": archs, "workloads": workloads,
                 "seeds": settings.num_seeds, "run_points": points,
                 "refs_per_core": settings.refs_per_core,
                 "warmup_refs_per_core": settings.warmup_refs_per_core,
                 "capacity_factor": settings.capacity_factor,
                 "quick": args.quick},
        "environment": {"cpu_count": cpus,
                        "python": sys.version.split()[0]},
        "passes": passes,
        "results_identical_across_passes": True,
        "acceptance": {
            "criterion": "cold-grid throughput at workers=2 >= 1.7x "
                         "workers=1 on a multi-core host",
            "speedup_at_2_workers": scaling_2,
            "met": bool(cpus >= 2 and scaling_2 >= 1.7),
        },
    }
    if cpus < 2:
        payload["acceptance"]["single_core_note"] = (
            "this host has 1 CPU: two worker processes time-slice one "
            "core, so >= 1.7x cold-grid scaling is physically impossible "
            "here. The fabric still fans out over distinct OS processes "
            f"(workers_2 used {passes['workers_2'].get('worker_pids_used')} "
            "worker pids) with byte-identical results; rerun on a "
            "multi-core host for the scaling figure.")
    save_report(payload, args.out, "BENCH_fabric.json", args.quick)
    if cpus >= 2:
        assert scaling_2 >= 1.7, \
            f"workers=2 cold-grid speedup {scaling_2}x below the 1.7x bar"
    return 0


if __name__ == "__main__":
    sys.exit(main())
