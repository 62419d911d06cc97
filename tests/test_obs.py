"""Unified event-tracing layer: recorder semantics, exporters, and the
end-to-end acceptance capture (both clock domains + helping-block
instants in one valid Chrome-trace payload)."""

import io
import json
from collections import OrderedDict

import pytest

from repro.harness import executor as executor_mod
from repro.harness.executor import Executor, RunPoint
from repro.harness.runcache import RunCache
from repro.harness.runner import RunSettings
from repro.common.config import scaled_config
from repro.obs import trace as obs
from repro.obs import NULL_TRACER, Tracer, activated
from repro.obs.export import (chrome_payload, events_of_category,
                              iter_instants, validate_chrome, write_chrome,
                              write_jsonl)

from tests.util import build


class TestFilters:
    def test_default_covers_standard_categories_only(self):
        tracer = Tracer()
        for category in obs.CATEGORIES:
            assert tracer.wants(category)
        for category in obs.DETAIL_CATEGORIES:
            assert not tracer.wants(category)

    def test_explicit_categories(self):
        tracer = Tracer(categories=["l2", "noc"])
        assert tracer.wants("l2") and tracer.wants("noc")
        assert not tracer.wants("access")

    def test_detail_requires_opt_in(self):
        assert not Tracer().wants("duel-observe")
        assert Tracer(detail=["duel-observe"]).wants("duel-observe")
        # Naming a detail category in --categories counts as opting in.
        assert Tracer(categories=["duel-observe"]).wants("duel-observe")

    def test_unwanted_category_not_recorded(self):
        tracer = Tracer(categories=["l2"])
        with tracer.wall_span("executor", "skipped", tid="t"):
            pass
        tracer.instant("l2", "kept", ts=1.0, pid=tracer.wall_pid, tid="t")
        assert [e.name for e in tracer.events] == ["kept"]


class TestSampling:
    def test_deterministic_one_in_n(self):
        tracer = Tracer(sample=3)
        picks = [tracer.sample_step() for _ in range(9)]
        assert picks == [False, False, True] * 3

    def test_sample_one_keeps_everything(self):
        tracer = Tracer()
        assert all(tracer.sample_step() for _ in range(5))

    def test_sample_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(sample=0)


class TestRingBuffer:
    def test_oldest_dropped_and_counted(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.instant("l2", f"e{i}", ts=float(i), pid=1, tid="t")
        assert tracer.dropped == 2
        assert tracer.emitted == 5
        assert [e.name for e in tracer.events] == ["e2", "e3", "e4"]

    def test_capacity_zero_is_listener_only(self):
        tracer = Tracer(capacity=0)
        seen = []
        tracer.subscribe(seen.append)
        tracer.instant("l2", "e", ts=0.0, pid=1, tid="t")
        assert len(seen) == 1
        assert len(tracer.events) == 0

    def test_null_tracer_refuses_subscribers(self):
        with pytest.raises(RuntimeError):
            NULL_TRACER.subscribe(lambda e: None)


class TestClockDomains:
    def test_one_pid_per_sim_run_and_shared_wall_pid(self):
        tracer = Tracer()
        a = tracer.process("esp-nuca/apache s1")
        b = tracer.process("esp-nuca/apache s2")
        assert a != b
        assert tracer.wall_pid == tracer.wall_pid
        clocks = {pid: clock for pid, _, clock in tracer.processes()}
        assert clocks[a] == "sim" and clocks[tracer.wall_pid] == "wall"

    def test_duplicate_labels_disambiguated(self):
        tracer = Tracer()
        tracer.process("run")
        tracer.process("run")
        labels = [label for _, label, _ in tracer.processes()]
        assert labels == ["run", "run#2"]


class TestInstallation:
    def test_activated_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with activated(tracer):
                assert obs.active() is tracer
                raise RuntimeError("boom")
        assert obs.active() is NULL_TRACER

    def test_system_captures_active_tracer_at_construction(self):
        tracer = Tracer()
        with activated(tracer):
            system = build("shared", check_tokens=False)
        assert system.tracer is tracer
        assert not build("shared", check_tokens=False).tracer.enabled


class TestExport:
    def make_tracer(self):
        tracer = Tracer()
        pid = tracer.process("run")
        tracer.complete("l2", "bank hit", ts=10.0, dur=5.0, pid=pid,
                        tid="bank3", args={"wait": 2})
        tracer.instant("esp", "replica placed", ts=12.0, pid=pid, tid="bank3")
        tracer.complete("noc", "req", ts=4.0, dur=6.0, pid=pid, tid="noc")
        tracer.counter("service", "queue depth", ts=1.0,
                       pid=tracer.wall_pid, tid="service",
                       values={"backlog": 2.0})
        return tracer

    def test_payload_is_valid(self):
        payload = chrome_payload(self.make_tracer())
        assert validate_chrome(payload) == []

    def test_metadata_names_processes_and_tracks(self):
        payload = chrome_payload(self.make_tracer())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "run [sim]" in names and "wall-clock [wall]" in names
        assert "bank3" in names and "noc" in names

    def test_tids_are_interned_integers(self):
        payload = chrome_payload(self.make_tracer())
        for event in payload["traceEvents"]:
            assert isinstance(event["tid"], int)

    def test_instants_are_thread_scoped(self):
        payload = chrome_payload(self.make_tracer())
        instants = list(iter_instants(payload))
        assert instants and all(e["s"] == "t" for e in instants)

    def test_validator_catches_regressions(self):
        assert validate_chrome({"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "ts": 10, "dur": 1},
            {"ph": "X", "pid": 1, "tid": 1, "ts": 5, "dur": 1},
        ]})
        assert validate_chrome({"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "ts": 10},  # span without dur
        ]})
        assert validate_chrome({"traceEvents": [
            {"ph": "?", "pid": 1, "tid": 1, "ts": 0},
        ]})
        assert validate_chrome({}) == ["traceEvents missing or not a list"]

    def test_write_chrome_and_jsonl_round_trip(self, tmp_path):
        tracer = self.make_tracer()
        path = tmp_path / "t.json"
        payload = write_chrome(tracer, str(path))
        assert json.loads(path.read_text()) == payload
        buffer = io.StringIO()
        count = write_jsonl(tracer, buffer)
        lines = [json.loads(line) for line in
                 buffer.getvalue().splitlines()]
        assert count == len(lines) == len(tracer.events)


QUICK = RunSettings(capacity_factor=8, refs_per_core=800,
                    warmup_refs_per_core=200, num_seeds=1)


def traced_run(arch="esp-nuca", workload="apache", **tracer_kwargs):
    tracer = Tracer(**tracer_kwargs)
    point = RunPoint(name=arch, workload=workload, seed=42,
                     config=scaled_config(QUICK.capacity_factor),
                     settings=QUICK, arch=arch)
    executor = Executor(jobs=1, cache=RunCache(enabled=False))
    with activated(tracer):
        executor.run([point])
    return tracer


class TestEndToEnd:
    def test_acceptance_capture(self):
        """The PR's acceptance trace: one capture holding an L2-bank
        access span on the sim clock, an executor run span on the wall
        clock, and at least one helping-block instant — all in a payload
        the validator accepts."""
        tracer = traced_run()
        payload = chrome_payload(tracer)
        assert validate_chrome(payload) == []
        clocks = {pid: clock for pid, _, clock in tracer.processes()}

        l2_spans = [e for e in events_of_category(payload, "l2")
                    if e["ph"] == "X" and e["name"].startswith("bank")]
        assert l2_spans and all(clocks[e["pid"]] == "sim"
                                for e in l2_spans)

        run_spans = [e for e in events_of_category(payload, "executor")
                     if e["ph"] == "X" and e["name"].startswith("run ")]
        assert run_spans and all(clocks[e["pid"]] == "wall"
                                 for e in run_spans)

        helping = [e["name"] for e in iter_instants(payload)
                   if e["name"] in ("replica placed", "victim placed",
                                    "allocation refused")]
        assert helping

    def test_materialize_span_nests_in_run_span(self, monkeypatch):
        """Each point's trace generation is its own wall span inside the
        point's run span, with the memo hit recorded: the second
        architecture of one (workload, seed) reuses the first's traces."""
        monkeypatch.setattr(executor_mod, "_trace_cache", OrderedDict())
        tracer = Tracer(categories=["executor"])
        points = [RunPoint(name=arch, workload="oltp", seed=42,
                           config=scaled_config(QUICK.capacity_factor),
                           settings=QUICK, arch=arch)
                  for arch in ("shared", "esp-nuca")]
        with activated(tracer):
            Executor(jobs=1, cache=RunCache(enabled=False)).run(points)
        spans = [e for e in tracer.events if e.phase == obs.PH_SPAN]
        runs = [e for e in spans if e.name.startswith("run ")]
        materialize = [e for e in spans if e.name == "materialize"]
        assert len(runs) == len(materialize) == 2
        for run, gen in zip(runs, materialize):
            assert (gen.pid, gen.tid) == (run.pid, run.tid)
            assert run.ts <= gen.ts
            assert gen.ts + gen.dur <= run.ts + run.dur
        refs = 8 * (QUICK.refs_per_core + QUICK.warmup_refs_per_core)
        assert [e.args for e in materialize] == [
            {"workload": "oltp", "seed": 42, "memo_hit": hit, "refs": refs}
            for hit in (False, True)]

    def test_sim_pid_labeled_after_run_point(self):
        tracer = traced_run()
        labels = [label for _, label, clock in tracer.processes()
                  if clock == "sim"]
        assert labels == ["esp-nuca/apache s42"]

    def test_sampling_thins_access_spans_only(self):
        dense = traced_run()
        sparse = traced_run(sample=10)
        dense_access = len([e for e in dense.events
                            if e.category == "access"])
        sparse_access = len([e for e in sparse.events
                             if e.category == "access"])
        assert 0 < sparse_access <= dense_access // 5
        # Child spans follow their access tree; instants are unsampled.
        dense_inst = [e for e in dense.events if e.phase == obs.PH_INSTANT
                      and e.category == "classifier"]
        sparse_inst = [e for e in sparse.events if e.phase == obs.PH_INSTANT
                       and e.category == "classifier"]
        assert len(dense_inst) == len(sparse_inst)

    def test_category_filter_limits_capture(self):
        tracer = traced_run(categories=["l2"])
        assert {e.category for e in tracer.events} == {"l2"}

    def test_disabled_tracing_emits_nothing(self):
        point = RunPoint(name="esp-nuca", workload="apache", seed=42,
                         config=scaled_config(QUICK.capacity_factor),
                         settings=QUICK, arch="esp-nuca")
        executor = Executor(jobs=1, cache=RunCache(enabled=False))
        executor.run([point])
        assert obs.active() is NULL_TRACER
        assert NULL_TRACER.emitted == 0
