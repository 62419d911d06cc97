"""The benchmark's own tests: BENCHMARK.json schema and quick-mode runs.

Run from the repository root::

    python3 -m pytest -q perfbench

Quick mode shrinks every operation, so the six runs below (three
workloads, traced and untraced) take about half a minute together.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layer_probe import LAYERS, layer_of_module  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics each workload's path must drive above zero.
ENGINE_LAYERS = (
    "workloads.gen_s", "workloads.refs", "sim.build_ms", "sim.run_s",
    "sim.oracle_run_s", "sim.us_per_l1_miss", "sim.us_per_ref",
    "host.samples", "model.l1_hit_rate", "model.l1_misses",
    "model.noc_messages", "model.cycles", "runcache.put_ms",
    "runcache.puts", "runcache.get_ms", "runcache.gets")
GATEWAY_LAYERS = (
    "workloads.gen_s", "workloads.refs", "sim.build_ms",
    "sim.oracle_run_s", "host.samples", "model.l1_hit_rate",
    "model.cycles", "store.open_s", "fabric.prestart_s",
    "gateway.cold_submit_ms", "service.queue_wait_ms",
    "fabric.run_batch_ms", "runcache.put_ms", "runcache.puts",
    "runcache.get_ms", "runcache.gets", "store.create_job_ms",
    "store.set_job_state_ms", "store.record_results_ms",
    "gateway.hit_residual_ms", "service.points_executed")
NONZERO = {"cold_grid": ENGINE_LAYERS, "local_hits": ENGINE_LAYERS,
           "gateway_replay": GATEWAY_LAYERS}


def run_bench(workload, trace, cwd=ROOT, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] \
        + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for layer in LAYERS:
        assert any(m["name"] == f"host.{layer}_s" for m in SPEC["per_layer"])


def test_sampler_layer_map():
    assert layer_of_module("sim.vector.contention") == "contention"
    assert layer_of_module("sim.vector.engine") == "schedule"
    assert layer_of_module("noc.network") == "noc"
    assert layer_of_module("coherence.tokens") == "ledger"
    assert layer_of_module("core.esp_nuca") == "policy"
    assert layer_of_module("architectures.shared") == "policy"
    assert layer_of_module("sim.cpu") == "core"
    assert layer_of_module("cache.l1") == "cache"
    assert layer_of_module("common.statsreg") == "stats"
    assert layer_of_module("sim.results") == "other"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_end_to_end(workload):
    result = last_json(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"]
                                      for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_layers(workload):
    proc = run_bench(workload, 1)
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in NONZERO[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["fabric.requeued"]["value"] == 0
    assert metrics["fabric.crashed"]["value"] == 0
    assert metrics["gateway.rejects"]["value"] == 0
    assert metrics["runcache.hit_ratio"]["value"] == 1.0
    assert "probe overhead" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_digest_check_and_re_recording(tmp_path):
    """A result that contradicts digests.json fails its point, and
    --record-digests replaces the stale digests instead of failing."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "digests.json"
    recorded = json.loads(path.read_text())
    stale = {key: "0" * 16 for key in recorded
             if key.startswith("quick/cold_grid/")}
    path.write_text(json.dumps(dict(recorded, **stale)))

    result = last_json(run_bench("cold_grid", 0, tmp_path))
    assert not result["correct"] and result["failed"] >= 100

    result = last_json(run_bench("cold_grid", 0, tmp_path,
                                 "--record-digests"))
    assert result["correct"] and result["failed"] == 0
    rewritten = json.loads(path.read_text())
    restored = [key for key in stale if rewritten[key] == recorded[key]]
    assert len(restored) == 100
    assert all(rewritten[key] in (recorded[key], "0" * 16) for key in stale)
