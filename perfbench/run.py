"""The repository benchmark: one workload per invocation, from a checkout root.

::

    python3 perfbench/run.py --workload cold_grid --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

* ``cold_grid`` — 5 architectures over apache/oltp/CG/art-4, every point
  under both engines in-process, then replayed from the run cache;
* ``local_hits`` — the same over an L1-resident benchmark-built spec;
* ``gateway_replay`` — cold grids, then cache-hit replays, through an
  in-process HTTP gateway with a two-process fabric.

Prints a human-readable report, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the layer probes are installed and the metrics are its
per-layer metrics (the report then also shows the traced run's own
end-to-end numbers, so the probes' overhead is visible). ``--quick``
shrinks every operation so all three workloads finish in seconds; its
numbers are for tests, not comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cold_grid", "local_hits", "gateway_replay")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv=None) -> argparse.Namespace:
    from measure import DEFAULT_SEED, HELD_OUT_SEED

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming "
                             f"claims)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny operations, for the benchmark's tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="merge this run's result digests into "
                             "perfbench/digests.json, replacing recorded "
                             "ones (written only if every other check "
                             "passes)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import measure

    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    run = measure.Run(workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=bool(args.trace),
                      quick=args.quick, workdir=workdir, src=SRC,
                      record=args.record_digests)
    try:
        if args.workload == "gateway_replay":
            import gateway_workload as module
        else:
            import engine_workloads as module
        e2e, layers = module.run_workload(run)
    except measure.BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    values = layers if args.trace else e2e
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        print(f"perfbench: metric set mismatch; missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return 1

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} mode={run.mode}")
    for line in run.report:
        print(line)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print("traced run's own end-to-end numbers (probe overhead shows "
              "against an untraced run):")
        for name in sorted(e2e):
            print(f"  {name:<22} {e2e[name]:.6g} {units[name]}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(f"attempted={run.attempted} failed={run.failed}")

    if args.record_digests and run.failed == 0:
        recorded = measure.load_digests()
        recorded.update(run.digests)
        with open(measure.DIGEST_FILE, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=0, sort_keys=True)
            handle.write("\n")

    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
