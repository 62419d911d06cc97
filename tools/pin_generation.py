"""Pin the simulator's generation: trace and result digests per
``CACHE_VERSION``.

The run cache keys results by :data:`~repro.harness.runcache.CACHE_VERSION`,
so a change that alters a trace or a result without bumping it lets
stale cache entries answer for a simulator that would now say
something else. This tool records sha256 digests of

* the materialized traces of every registered workload at a small
  budget, for two seeds, and
* ``SimResult.to_dict()`` of a quick point per registered
  architecture and pinned workload under both engines,

into ``tests/generation_pins.json`` under the current ``CACHE_VERSION``,
and checks the code against them (``tests/test_generation_pins.py``
runs the check in tier 1).

Usage::

    PYTHONPATH=src python tools/pin_generation.py --check
    PYTHONPATH=src python tools/pin_generation.py --record

``--record`` is the only writer of the pins file. Run it after a
deliberate ``CACHE_VERSION`` bump; never edit the hashes by hand.
"""

import argparse
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.architectures.registry import architecture_names  # noqa: E402
from repro.common.config import scaled_config  # noqa: E402
from repro.harness.executor import (RunPoint, materialize_traces,  # noqa: E402
                                    simulate_point)
from repro.harness.runcache import CACHE_VERSION  # noqa: E402
from repro.harness.runner import RunSettings  # noqa: E402
from repro.sim.engines import ENGINES  # noqa: E402
from repro.workloads.registry import WORKLOADS  # noqa: E402

PINS_PATH = os.path.join(ROOT, "tests", "generation_pins.json")

CAPACITY_FACTOR = 8
#: Trace budget per core (measured + warm-up references).
TRACE_REFS, TRACE_WARMUP = 200, 100
TRACE_SEEDS = (1, 2)
#: The result points: every (architecture, workload) pair at one seed,
#: under every engine.
RESULT_REFS, RESULT_WARMUP = 300, 100
RESULT_ARCHS = tuple(architecture_names())
RESULT_WORKLOADS = ("oltp", "art-4")
RESULT_SEED = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_digest(traces) -> str:
    """Digest of one run point's per-core traces, by field value (so it
    does not depend on how a trace item is represented)."""
    parts = []
    for core, trace in enumerate(traces):
        if trace is None:
            parts.append(f"{core}:-\n")
            continue
        parts.append(f"{core}:")
        parts.extend(f"{item.gap},{item.block},{item.kind.value};"
                     for item in trace)
        parts.append("\n")
    return _sha256("".join(parts))


def trace_digests() -> dict:
    config = scaled_config(CAPACITY_FACTOR)
    settings = RunSettings(capacity_factor=CAPACITY_FACTOR,
                           refs_per_core=TRACE_REFS,
                           warmup_refs_per_core=TRACE_WARMUP)
    return {f"{workload}/s{seed}": trace_digest(materialize_traces(
                config, settings, workload, seed))
            for workload in WORKLOADS for seed in TRACE_SEEDS}


def result_digests() -> dict:
    config = scaled_config(CAPACITY_FACTOR)
    out = {}
    for engine in ENGINES:
        settings = RunSettings(capacity_factor=CAPACITY_FACTOR,
                               refs_per_core=RESULT_REFS,
                               warmup_refs_per_core=RESULT_WARMUP,
                               engine=engine)
        for arch in RESULT_ARCHS:
            for workload in RESULT_WORKLOADS:
                result = simulate_point(RunPoint(
                    name=arch, workload=workload, seed=RESULT_SEED,
                    config=config, settings=settings, arch=arch))
                out[f"{arch}/{workload}/s{RESULT_SEED}/{engine}"] = _sha256(
                    json.dumps(result.to_dict(), sort_keys=True))
    return out


def current_pins() -> dict:
    return {"cache_version": CACHE_VERSION,
            "traces": trace_digests(),
            "results": result_digests()}


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(path: str = PINS_PATH) -> list:
    """Problems found comparing the code with the recorded pins; an
    empty list means the generation is unchanged."""
    rerecord = ("re-record with "
                "`PYTHONPATH=src python tools/pin_generation.py --record`")
    pins = load_pins(path)
    if pins.get("cache_version") != CACHE_VERSION:
        return [f"{os.path.relpath(path, ROOT)} was recorded at "
                f"CACHE_VERSION {pins.get('cache_version')}, the code is at "
                f"{CACHE_VERSION}: {rerecord}"]
    now = current_pins()
    problems = []
    for section in ("traces", "results"):
        recorded, current = pins.get(section, {}), now[section]
        for name in sorted(set(recorded) | set(current)):
            if recorded.get(name) != current.get(name):
                problems.append(f"{section} {name}: recorded "
                                f"{recorded.get(name)}, now "
                                f"{current.get(name)}")
    if problems:
        problems.insert(0, (
            f"the simulator's generation changed without a CACHE_VERSION "
            f"bump (still {CACHE_VERSION}). If the change is deliberate, "
            f"bump CACHE_VERSION in src/repro/harness/runcache.py and "
            f"{rerecord}; otherwise the change altered traces or results "
            f"and must be fixed."))
    return problems


def record(path: str = PINS_PATH) -> dict:
    pins = current_pins()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="check or record the trace and result digests "
                    "pinned to CACHE_VERSION")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare the code with the recorded pins")
    mode.add_argument("--record", action="store_true",
                      help="rewrite the pins file from the code")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if args.record:
        pins = record()
        print(f"recorded {len(pins['traces'])} trace and "
              f"{len(pins['results'])} result digest(s) at CACHE_VERSION "
              f"{CACHE_VERSION} in {os.path.relpath(PINS_PATH, ROOT)} "
              f"({time.perf_counter() - start:.1f}s)")
        return 0
    problems = check()
    for line in problems:
        print(line)
    print(f"{'FAIL' if problems else 'ok'}: generation pins at "
          f"CACHE_VERSION {CACHE_VERSION} "
          f"({time.perf_counter() - start:.1f}s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
