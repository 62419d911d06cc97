"""Mesh timing model: latency, serialization, bounded queueing."""

from repro.common.config import SystemConfig
from repro.common.statsreg import Histogram, flatten
from repro.noc.message import FLITS, MessageKind
from repro.noc.network import Network
from repro.sim.request import Supplier

from tests.util import build


def fresh_network(contention: bool = True) -> Network:
    return Network(SystemConfig(), model_contention=contention)


class TestUncontendedLatency:
    def test_latency_is_hops_times_hop_latency(self):
        net = fresh_network(contention=False)
        assert net.arrival(MessageKind.REQUEST, 0, 3, 100) == 100 + 3 * 5
        assert net.arrival(MessageKind.REQUEST, 0, 7, 0) == 4 * 5

    def test_same_router_is_free(self):
        net = fresh_network()
        assert net.arrival(MessageKind.REQUEST, 2, 2, 50) == 50

    def test_latency_helper(self):
        net = fresh_network()
        assert net.latency(0, 7) == 20


class TestContention:
    def test_back_to_back_data_serializes(self):
        net = fresh_network()
        first = net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        second = net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        assert first == 5
        # Second waits for the 5-flit occupancy of the first.
        assert second == 5 + FLITS[MessageKind.RESPONSE_DATA]

    def test_disjoint_links_do_not_interact(self):
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        assert net.arrival(MessageKind.RESPONSE_DATA, 4, 5, 0) == 5

    def test_queueing_is_bounded(self):
        # A reservation stamped far in the future must not block an
        # earlier-stamped message for more than the cap.
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 10_000)
        early = net.arrival(MessageKind.REQUEST, 0, 1, 0)
        cap = 4 * FLITS[MessageKind.REQUEST]
        assert early <= 5 + cap

    def test_queueing_accounted(self):
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        assert net.total_queueing > 0

    def test_out_of_order_wait_charged_exactly_at_cap(self):
        # Reservations are stamped in reference order, not time order: a
        # future-stamped message must charge an earlier-stamped one at
        # most ``cap = 4 * flits``, and its own reservation must survive.
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 100_000)
        cap = 4 * FLITS[MessageKind.REQUEST]
        assert net.arrival(MessageKind.REQUEST, 0, 1, 0) == cap + 5
        assert net.total_queueing == cap
        # The 100_005 reservation was kept, not overwritten by the
        # early message: traffic near it still queues behind it.
        assert net.arrival(MessageKind.REQUEST, 0, 1, 100_004) == 100_010


class TestStatistics:
    def test_message_and_flit_counters(self):
        net = fresh_network()
        net.arrival(MessageKind.REQUEST, 0, 2, 0)
        assert net.messages_sent == 1
        assert net.total_hops == 2
        assert net.flits_sent == 2  # 1 flit x 2 hops

    def test_zero_hop_message_costs_no_flits(self):
        # src == dst traverses no links: the message is counted but no
        # link flits are charged (regression: flits * max(hops, 1)).
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 2, 2, 50)
        assert net.messages_sent == 1
        assert net.total_hops == 0
        assert net.flits_sent == 0

    def test_reset(self):
        net = fresh_network()
        net.arrival(MessageKind.REQUEST, 0, 2, 0)
        net.reset_stats()
        assert net.messages_sent == 0
        assert net.total_queueing == 0
        assert net.kind_counts[MessageKind.REQUEST] == 0

    def test_per_kind_counters(self):
        net = fresh_network()
        net.arrival(MessageKind.REQUEST, 0, 2, 0)
        net.arrival(MessageKind.REQUEST, 0, 2, 0)
        net.arrival(MessageKind.RESPONSE_DATA, 2, 0, 0)
        assert net.kind_counts[MessageKind.REQUEST] == 2
        assert net.kind_counts[MessageKind.RESPONSE_DATA] == 1

    def test_sp_indirection_costs_traffic(self):
        """Section 2.3: SP-NUCA's private-bank indirection 'will
        slightly increase on-chip traffic' for shared data."""
        from tests.util import access, build
        from tests.test_arch_private import evict_from_l1

        def shared_traffic(arch_name):
            system = build(arch_name, check_tokens=False)
            block = 0x911
            while system.architecture.is_local_bank(
                    0, system.amap.shared_bank(block)):
                block += 1
            access(system, 3, block)
            access(system, 0, block)
            evict_from_l1(system, 0, block)
            evict_from_l1(system, 3, block)
            before = system.network.messages_sent
            access(system, 0, block)  # shared-bank L2 hit
            return system.network.messages_sent - before

        shared = shared_traffic("shared")
        assert shared > 0  # the shared-bank hit is counted at all
        assert shared_traffic("sp-nuca") >= shared

    def test_deliver_fills_message(self):
        net = fresh_network()
        msg = net.deliver(MessageKind.REQUEST, 0, 3, 7)
        assert msg.hops == 3
        assert msg.arrive >= 7 + 15


#: A scripted timing sequence with deliberately out-of-time-order
#: arrivals (later calls carry earlier timestamps), exercising the
#: capped-wait branches of every busy-until reservation: the NoC links,
#: the memory controllers and the L2 banks.
NOC_CALLS = [
    (MessageKind.REQUEST, 0, 3, 100),
    (MessageKind.RESPONSE_DATA, 3, 0, 90),
    (MessageKind.REQUEST, 0, 3, 10),       # stamped before the frontier
    (MessageKind.RESPONSE_CTRL, 1, 6, 0),
    (MessageKind.REQUEST, 0, 3, 11),
    (MessageKind.WRITEBACK, 6, 1, 5),
    (MessageKind.REQUEST, 2, 2, 40),       # zero-hop: no link traffic
]
MC_CALLS = [(0, 50), (0, 40), (1, 10), (0, 41), (0, 42), (1, 9)]
BANK_CALLS = [(0, 5, True), (0, 6, False), (3, 0, True), (0, 7, True)]

#: Golden values of the sequence above: returned times, non-zero
#: busy-until slots, and the non-zero leaves of the ``noc`` and ``mem``
#: statistics subtrees (every other leaf there reads 0).
GOLDEN_TIMES = [115, 105, 37, 14, 38, 15, 40,
                400, 440, 360, 480, 520, 400,
                12, 14, 7, 21]
GOLDEN_LINK_BUSY = {0: 101, 1: 106, 2: 111, 5: 10, 7: 105, 8: 100,
                    9: 95, 12: 15, 18: 10}
GOLDEN_BANK_BUSY = {0: 21, 3: 7}
GOLDEN_MC_BUSY = [210, 90]
GOLDEN_NOC = {
    "flits": 36, "hops": 16, "messages": 7, "queueing": 28,
    "kinds.request": 4, "kinds.response_ctrl": 1,
    "kinds.response_data": 1, "kinds.writeback": 1,
    "links.r0-r1.messages": 3, "links.r0-r1.queueing": 8,
    "links.r1-r0.messages": 1,
    "links.r1-r2.messages": 4, "links.r1-r2.queueing": 12,
    "links.r2-r1.messages": 1,
    "links.r2-r3.messages": 3, "links.r2-r3.queueing": 8,
    "links.r2-r6.messages": 1, "links.r3-r2.messages": 1,
    "links.r5-r1.messages": 1, "links.r6-r5.messages": 1,
}
GOLDEN_MEM = {
    "mc0.demand": 4, "mc0.queueing": 267, "mc0.writebacks": 4,
    "mc1.demand": 2, "mc1.queueing": 41, "mc1.writebacks": 2,
}


def _nonzero(snapshot):
    return {k: v for k, v in flatten(snapshot).items() if v}


class TestScriptedContention:
    """The shared timing methods against values recorded before their
    counters went flat: times, busy-until state and statistics."""

    def test_out_of_order_sequence_matches_golden_values(self):
        system = build("esp-nuca", check_tokens=False)
        times = [system.network.arrival(kind, src, dst, t)
                 for kind, src, dst, t in NOC_CALLS]
        for mc_index, t in MC_CALLS:
            mc = system.memory.controllers[mc_index]
            times.append(mc.service(t))
            mc.post_writeback(t + 1)
        for bank_id, t, hit in BANK_CALLS:
            times.append(system.architecture.bank_service(bank_id, t, hit))

        assert times == GOLDEN_TIMES
        assert {i: v for i, v in enumerate(system.network._link_busy)
                if v} == GOLDEN_LINK_BUSY
        assert {i: v for i, v in enumerate(system.architecture._bank_busy)
                if v} == GOLDEN_BANK_BUSY
        assert [mc._busy_until for mc in system.memory.controllers] \
            == GOLDEN_MC_BUSY
        snapshot = system.stats.to_dict()
        assert _nonzero(snapshot["noc"]) == GOLDEN_NOC
        assert _nonzero(snapshot["mem"]) == GOLDEN_MEM
        # The legacy properties read the same (synced) counters.
        assert system.network.messages_sent == 7
        assert system.network.total_queueing == 28
        assert system.memory.demand_requests == 6


class TestWarmupReset:
    def test_reset_clears_pending_counts(self):
        system = build("shared", check_tokens=False)
        net = system.network
        for kind, src, dst, t in NOC_CALLS:
            net.arrival(kind, src, dst, t)
        system._record_access(Supplier.OFFCHIP, 300)
        system._record_access(Supplier.L1_LOCAL, 3)

        system.reset_stats()

        for path, stat in system.stats.walk():
            if isinstance(stat, Histogram):
                assert stat.count == 0, path
            else:
                assert stat.value == 0, path
        assert net.messages_sent == 0
        assert net.kind_counts[MessageKind.REQUEST] == 0
        assert system.result.memory_accesses == 0

        # Only events after the reset are counted.
        net.arrival(MessageKind.RESPONSE_DATA, 0, 2, 1_000)
        system._record_access(Supplier.L2_SHARED, 40)
        snapshot = system.stats.to_dict()
        assert snapshot["noc"]["messages"] == 1
        assert snapshot["noc"]["hops"] == 2
        assert snapshot["noc"]["flits"] == 10
        assert snapshot["noc"]["kinds"]["response_data"] == 1
        assert snapshot["noc"]["kinds"]["request"] == 0
        assert snapshot["noc"]["links"]["r0-r1"]["messages"] == 1
        access = snapshot["access"]
        assert access["l2_shared"]["count"] == 1
        assert access["l2_shared"]["cycles"] == 40
        assert access["l2_shared"]["latency"]["__hist__"]["buckets"] \
            == {"6": 1}
        assert access["offchip"]["count"] == 0
        assert access["l1_local"]["count"] == 0
        assert system.result.memory_accesses == 1
