"""Conservation invariants between the registry snapshot and the flat
aggregate counters of :class:`SimResult`.

Every per-component breakdown must sum back to the aggregate the flat
result reports — the property that makes the ``esp-nuca stats`` tables
trustworthy (their totals rows are these same sums).
"""

import json

import pytest

from repro.architectures.registry import make_architecture
from repro.common.config import scaled_config
from repro.common.statsreg import histogram_count, histogram_total
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimResult
from repro.sim.system import CmpSystem
from repro.workloads.base import TraceGenerator
from repro.workloads.registry import get_workload

REFS = 1200

#: One protected-LRU architecture (exercises duel + helping scopes), one
#: plain shared baseline, one private-substrate policy.
ARCHS = ("esp-nuca", "shared", "cc30")


def run_workload(arch_name, workload="apache", seed=1, warmup=0, refs=REFS,
                 trace_refs=None):
    config = scaled_config(8)
    system = CmpSystem(config, make_architecture(arch_name, config))
    spec = get_workload(workload).capacity_scaled(8).scaled(
        trace_refs if trace_refs is not None else refs + warmup)
    engine = SimulationEngine(system, TraceGenerator(spec, seed).traces(
        config.num_cores))
    result = engine.run(max_refs_per_core=refs, warmup_refs_per_core=warmup)
    return system, result


@pytest.fixture(scope="module", params=ARCHS)
def run(request):
    return run_workload(request.param)


class TestConservation:
    def test_bank_hits_sum_to_l2_hits(self, run):
        _, result = run
        banks = result.stats["l2"]
        hits = sum(sum(bank["hits"].values()) for bank in banks.values())
        lookups = hits + sum(bank["misses"] for bank in banks.values())
        assert hits == result.l2_hits
        assert lookups == result.l2_demand_lookups

    def test_l1_cores_sum_to_l1_totals(self, run):
        _, result = run
        cores = result.stats["l1"]
        assert sum(c["hits"] for c in cores.values()) == result.l1_hits
        assert sum(c["misses"] for c in cores.values()) == result.l1_misses

    def test_noc_kinds_sum_to_messages(self, run):
        _, result = run
        noc = result.stats["noc"]
        assert sum(noc["kinds"].values()) == result.noc_messages
        assert noc["messages"] == result.noc_messages
        assert noc["queueing"] == result.noc_queueing

    def test_noc_links_sum_to_hops_and_queueing(self, run):
        """A message traversing h links counts once per link, so the
        per-link message sum equals total *hops*, not total messages."""
        _, result = run
        noc = result.stats["noc"]
        links = noc["links"]
        assert sum(l["messages"] for l in links.values()) == noc["hops"]
        assert sum(l["queueing"] for l in links.values()) == noc["queueing"]

    def test_supplier_counts_sum_to_memory_accesses(self, run):
        _, result = run
        access = result.stats["access"]
        assert sum(s["count"] for s in access.values()) \
            == result.memory_accesses
        for supplier, count in result.supplier_count.items():
            sub = access[supplier.name.lower()]
            assert sub["count"] == count
            assert sub["cycles"] == result.supplier_cycles[supplier]
            assert histogram_count(sub["latency"]) == count
            assert histogram_total(sub["latency"]) \
                == result.supplier_cycles[supplier]

    def test_controllers_sum_to_offchip_totals(self, run):
        _, result = run
        mcs = result.stats["mem"]
        assert sum(m["demand"] for m in mcs.values()) == result.offchip_demand
        assert sum(m["writebacks"] for m in mcs.values()) \
            == result.offchip_writebacks


class TestSnapshotRoundTrip:
    def test_from_dict_to_dict_is_lossless(self, run):
        _, result = run
        assert SimResult.from_dict(result.to_dict()) == result

    def test_json_round_trip_is_lossless(self, run):
        _, result = run
        wire = json.dumps(result.to_dict())
        assert SimResult.from_dict(json.loads(wire)) == result

    def test_schema_mismatch_returns_none(self, run):
        _, result = run
        payload = result.to_dict()
        payload["surprise"] = 1
        assert SimResult.from_dict(payload) is None
        payload = result.to_dict()
        del payload["noc_messages"]
        assert SimResult.from_dict(payload) is None

    def test_unknown_supplier_name_returns_none(self, run):
        _, result = run
        payload = result.to_dict()
        payload["supplier_cycles"]["L3_LOCAL"] = 0
        assert SimResult.from_dict(payload) is None


class TestWarmupReset:
    def test_reset_zeroes_every_registered_stat(self):
        system, _ = run_workload("esp-nuca")
        assert any(stat.snapshot() not in (0, 0.0)
                   for _, stat in system.stats.walk()
                   if not isinstance(stat.snapshot(), dict))
        system.reset_stats()
        for path, stat in system.stats.walk():
            snap = stat.snapshot()
            if isinstance(snap, dict):
                assert histogram_count(snap) == 0, path
            else:
                assert snap in (0, 0.0), path

    def test_warm_run_measures_only_post_warmup_phase(self):
        """Previously-latent gap: duel-controller bookkeeping survived
        the warm-up reset (it was not on the hand-maintained reset
        list). With the registry walk, the measured phase of a warm run
        reports exactly the full run's stats minus the warm-up phase —
        the two runs replay identical traces, only the reset differs.
        """
        warmup = 400
        _, full = run_workload("esp-nuca", refs=REFS + warmup,
                               trace_refs=REFS + warmup)
        _, warm = run_workload("esp-nuca", warmup=warmup)
        assert full.memory_accesses == (REFS + warmup) * 8
        assert warm.memory_accesses == REFS * 8

        def duel_events(result):
            return sum(bank["events"]
                       for bank in result.stats["arch"]["duel"].values())

        assert 0 < duel_events(warm) < duel_events(full)
        steals = "coherence"
        assert warm.stats[steals]["token_steals"] \
            <= full.stats[steals]["token_steals"]


class TestRenderedTotals:
    def test_stats_tables_quote_the_aggregates(self, run):
        from repro.harness.reporting import format_run_stats
        _, result = run
        text = format_run_stats(result)
        assert str(result.memory_accesses) in text
        banks = result.stats["l2"]
        total_misses = sum(bank["misses"] for bank in banks.values())
        # The L2 totals row carries the bank-summed miss count.
        l2_section = text.split("-- L2 banks --")[1].split("\n-- ")[0]
        assert any(str(total_misses) in line
                   for line in l2_section.splitlines()
                   if line.startswith("total"))
