"""CI smoke test for the multi-process worker fabric, end to end as a
user would run it: boot the real ``esp-nuca gateway serve
--allow-anonymous --workers 2`` on a unix socket in a subprocess, submit
a cold mini-grid through the unix-socket client, and prove from the
gateway's own ``/v1/status`` counters that **more than one worker
process actually executed jobs** (``fabric.completed_by_pid`` has >= 2
distinct pids, none of them the gateway's own). A traced submit of a
fresh point then pins the same fact in trace metadata: the Chrome trace
fetched from ``GET /v1/jobs/{id}/trace`` must contain executor ``pool
run`` instants whose ``worker_pid`` args name processes other than the
gateway. Results are checked byte-identical to a direct serial
in-process run, and SIGTERM must leave zero orphaned workers — fabric
processes and the socket file alike.

Run locally with ``PYTHONPATH=src python tools/fabric_smoke.py``; the
in-process equivalents live in ``tests/test_fabric.py`` and
``tests/test_service.py`` (this script exists to exercise the actual
CLI flags, process lifecycle and OS-level process fan-out, which
in-process tests cannot).
"""

import json
import os
import signal
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.obs.export import events_of_category, validate_chrome  # noqa: E402
from repro.gateway.client import GatewayClient  # noqa: E402

ARCHS = ["shared", "private", "esp-nuca"]
WORKLOADS = ["apache"]
SETTINGS = {"refs_per_core": 400, "warmup_refs_per_core": 100,
            "capacity_factor": 8, "num_seeds": 2}
POINTS = len(ARCHS) * len(WORKLOADS) * SETTINGS["num_seeds"]
BOOT_TIMEOUT = 60
DRAIN_TIMEOUT = 120


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def canonical(payloads):
    return json.dumps(payloads, sort_keys=True, separators=(",", ":"))


def reference_results():
    """The same grid, serial, in this process, no caches."""
    from repro.common.config import scaled_config
    from repro.harness.executor import Executor
    from repro.harness.runcache import RunCache
    from repro.harness.runner import RunSettings, grid_points
    from repro.common.rng import perturbed_seeds

    settings = RunSettings(
        capacity_factor=SETTINGS["capacity_factor"],
        refs_per_core=SETTINGS["refs_per_core"],
        warmup_refs_per_core=SETTINGS["warmup_refs_per_core"],
        num_seeds=SETTINGS["num_seeds"])
    points = grid_points(scaled_config(settings.capacity_factor), settings,
                         ARCHS, WORKLOADS,
                         perturbed_seeds(settings.base_seed,
                                         settings.num_seeds))
    executor = Executor(jobs=1, cache=RunCache(enabled=False))
    return [r.to_dict() for r in executor.run(points)]


def finish(client, job):
    """Follow the job's SSE stream to its ``end`` frame."""
    end = None
    for event in client.events(job):
        end = event
    if end is None or end.get("event") != "end":
        fail(f"event stream of job {job} ended without an end frame")
    return end


def check_trace_worker_pids(payload, server_pid):
    problems = validate_chrome(payload)
    if problems:
        fail(f"trace is not valid Chrome trace JSON: {problems[:5]}")
    pool_runs = [e for e in events_of_category(payload, "executor")
                 if e.get("name") == "pool run"]
    if not pool_runs:
        fail("trace has no executor 'pool run' instants — the fabric "
             "path did not run")
    pids = {e["args"]["worker_pid"] for e in pool_runs}
    if server_pid in pids:
        fail(f"trace pool runs claim the gateway's own pid {server_pid}: "
             f"{sorted(pids)}")
    spawned = {e["args"]["worker_pid"]
               for e in events_of_category(payload, "fabric")
               if e.get("name") == "worker spawned"}
    # Workers may predate the traced job (the pool persists across
    # batches), so spawn instants are optional — but when present they
    # must be consistent with the pids that ran jobs.
    if spawned and not pids <= spawned | pids:
        fail(f"inconsistent fabric pids: ran {pids}, spawned {spawned}")
    return sorted(pids)


def main():
    workdir = tempfile.mkdtemp(prefix="esp-fabric-smoke-")
    sock = os.path.join(workdir, "gw.sock")
    trace_dir = os.environ.get("REPRO_TRACE_DIR") \
        or os.path.join(workdir, "traces")
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO, "src"),
               REPRO_CACHE_DIR=os.path.join(workdir, "cache"),
               REPRO_TRACE_DIR=trace_dir)
    env.pop("REPRO_JOBS", None)  # --workers must win on its own
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", "gateway", "serve",
         "--allow-anonymous", "--db", os.path.join(workdir, "gw.sqlite"),
         "--http", f"unix:{sock}", "--workers", "2",
         "--service-workers", "1", "--batch", str(POINTS)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        with GatewayClient.wait_until_ready(f"unix:{sock}",
                                            timeout=BOOT_TIMEOUT,
                                            proc=server) as client:
            job = client.submit(ARCHS, WORKLOADS, settings=SETTINGS)["job"]
            cold = finish(client, job)
            if cold["state"] != "done" or len(cold["results"]) != POINTS:
                fail(f"cold submit did not complete: {cold}")

            status = client.status()
            if status.get("procs") != 2:
                fail(f"gateway should report 2 simulation processes: "
                     f"{status}")
            fabric = status.get("fabric")
            if not fabric:
                fail(f"gateway status has no fabric stats: {status}")
            by_pid = {int(pid): n
                      for pid, n in fabric["completed_by_pid"].items()}
            if len(by_pid) < 2:
                fail(f"expected jobs executed by >1 worker process, got "
                     f"{by_pid}")
            if server.pid in by_pid:
                fail(f"gateway pid {server.pid} appears as a worker: "
                     f"{by_pid}")
            if sum(by_pid.values()) != fabric["completed"]:
                fail(f"per-pid completions disagree with the total: "
                     f"{fabric}")

            if canonical(cold["results"]) != canonical(reference_results()):
                fail("fabric results differ from a direct serial run")

            # A traced job on a fresh point (cache would swallow a
            # repeat) pins worker pids in exported trace metadata.
            traced = client.submit(["esp-nuca", "shared"], WORKLOADS,
                                   seeds=[423, 424], settings=SETTINGS,
                                   trace=True)["job"]
            end = finish(client, traced)
            if end["state"] != "done":
                fail(f"traced submit did not complete: {end}")
            trace_pids = check_trace_worker_pids(client.trace(traced),
                                                 server.pid)
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=DRAIN_TIMEOUT)
        if server.returncode != 0:
            fail(f"gateway exited {server.returncode} after SIGTERM")
        # The drain barrier tears the fabric down: no worker process
        # may outlive the gateway, and neither may its socket file.
        for pid in by_pid:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            fail(f"worker process {pid} survived the drain")
        if os.path.exists(sock):
            fail(f"gateway left its socket file {sock} behind")
        print("fabric smoke OK: "
              f"{POINTS} cold point(s) executed across "
              f"{len(by_pid)} worker processes {sorted(by_pid)}, "
              f"traced pool runs on pids {trace_pids}, results identical "
              f"to serial, clean SIGTERM drain with no surviving workers")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


if __name__ == "__main__":
    main()
