"""Directed tests of D-NUCA: banksets, perfect search, migration,
replication through writebacks."""

from repro.sim.request import Supplier

from tests.util import access, build

from tests.test_arch_private import evict_from_l1


class TestBanksetMapping:
    def test_bankset_is_low_bits(self):
        system = build("d-nuca")
        arch = system.architecture
        assert arch.bankset(0b101) == 0b01
        assert arch.bank_of(0b101, cluster=3) == 3 * 4 + 1

    def test_bank_of_spans_clusters(self):
        system = build("d-nuca")
        arch = system.architecture
        banks = {arch.bank_of(0x40, c) for c in range(8)}
        assert len(banks) == 8
        assert all(b % 4 == arch.bankset(0x40) for b in banks)


class TestSearchAndMigration:
    def test_perfect_search_finds_remote_copy(self):
        system = build("d-nuca")
        block = 0x1230
        access(system, 0, block)
        evict_from_l1(system, 0, block)   # copy in cluster 0
        out = access(system, 7, block)
        assert out.supplier in (Supplier.L2_SHARED, Supplier.L2_LOCAL)

    def test_remote_hit_migrates_one_step(self):
        system = build("d-nuca")
        arch = system.architecture
        block = 0x1230
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        start_bank = arch.bank_of(block, 0)
        assert any(h.bank_id == start_bank
                   for h in system.ledger.l2_holdings(block))
        access(system, 3, block)
        # The surviving copy moved out of cluster 0 toward cluster 3.
        banks = {h.bank_id for h in system.ledger.l2_holdings(block)}
        assert start_bank not in banks and banks

    def test_migration_swaps_displaced_block(self):
        system = build("d-nuca")
        arch = system.architecture
        block = 0x1230
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        occupancy_before = sum(b.occupancy() for b in arch.banks)
        access(system, 3, block)
        system.check_invariants()
        # Migration must not lose resident blocks.
        assert sum(b.occupancy() for b in arch.banks) >= occupancy_before - 1


class TestReplication:
    def test_writeback_replicates_into_own_cluster(self):
        system = build("d-nuca")
        arch = system.architecture
        block = 0x2230
        access(system, 0, block)
        evict_from_l1(system, 0, block)      # copy near cluster 0
        access(system, 7, block)             # borrow a token
        evict_from_l1(system, 7, block)      # second copy near cluster 7
        banks = {h.bank_id for h in system.ledger.l2_holdings(block)}
        assert len(banks) == 2
        assert arch.bank_of(block, 7) in banks

    def test_replica_serves_local_after_migration_chain(self):
        system = build("d-nuca")
        block = 0x2230
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        access(system, 7, block)
        evict_from_l1(system, 7, block)
        out = access(system, 7, block)
        assert out.supplier is Supplier.L2_LOCAL


class TestWrites:
    def test_write_collapses_all_copies(self):
        system = build("d-nuca")
        block = 0x2230
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        access(system, 7, block)
        evict_from_l1(system, 7, block)
        access(system, 4, block, write=True)
        assert system.ledger.l2_holdings(block) == []
        assert system.ledger.l1_holders(block) == [4]
