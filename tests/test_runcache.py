"""Run cache keys and the in-process memo of decoded entries: stable
on-disk keys, stat-signature revalidation, fresh objects per get, a
bounded memo and thread-safe reads."""

import hashlib
import sys
import threading

import pytest

from repro.common.config import SystemConfig, scaled_config
from repro.harness import runcache
from repro.harness.runcache import RunCache, cache_generation, cache_key
from repro.harness.runner import RunSettings
from repro.sim.request import Supplier
from repro.sim.results import SimResult

SETTINGS = RunSettings(capacity_factor=8, refs_per_core=500,
                       warmup_refs_per_core=125)

#: Content-hash-shaped cache keys.
K = [hashlib.sha256(str(n).encode()).hexdigest() for n in range(12)]


def make_result(seed, cycles=1000):
    return SimResult(
        architecture="esp-nuca", workload="oltp", seed=seed, cycles=cycles,
        instructions=2 * cycles, memory_accesses=40,
        per_core_cycles=[cycles] * 8, per_core_instructions=[cycles] * 8,
        supplier_count={s: i for i, s in enumerate(Supplier)},
        supplier_cycles={s: 10 * i for i, s in enumerate(Supplier)},
        l1_hits=30, l1_misses=10,
        stats={"l2": {"bank0": {"hits": seed, "misses": 2}},
               "noc": {"messages": [1, 2, 3]}})


@pytest.fixture
def cache(tmp_path):
    return RunCache(root=str(tmp_path / "cache"))


class TestKeys:
    # Recorded before the key memo existed: existing cache entries must
    # keep hitting. Changing these means every stored entry is orphaned;
    # do it only together with a CACHE_VERSION bump or a schema change.
    def test_golden_keys(self):
        assert cache_generation() == "v2-b0ced0aa"
        assert cache_key(SystemConfig(), SETTINGS, "esp-nuca", "oltp", 1) == \
            "309b6319c900464c77a0d5876d1132a6a84b27bd70b46d194f9dae13f25e7227"
        assert cache_key(scaled_config(8), SETTINGS, "shared", "apache",
                         7919) == \
            "b7a9c53c160901751670e6a3627ce2cde3c15075a6c5b7f46a8e495ed194c6df"

    def test_memo_keys_on_every_hashed_input(self):
        base = cache_key(scaled_config(8), SETTINGS, "shared", "apache", 1)
        # An equal config built separately hits the same key.
        assert cache_key(scaled_config(8), SETTINGS, "shared", "apache",
                         1) == base
        variants = [
            cache_key(scaled_config(4), SETTINGS, "shared", "apache", 1),
            cache_key(scaled_config(8), RunSettings(
                capacity_factor=8, refs_per_core=501,
                warmup_refs_per_core=125), "shared", "apache", 1),
            cache_key(scaled_config(8), RunSettings(
                capacity_factor=8, refs_per_core=500,
                warmup_refs_per_core=126), "shared", "apache", 1),
            cache_key(scaled_config(8), RunSettings(
                capacity_factor=4, refs_per_core=500,
                warmup_refs_per_core=125), "shared", "apache", 1),
            cache_key(scaled_config(8), SETTINGS, "private", "apache", 1),
            cache_key(scaled_config(8), SETTINGS, "shared", "oltp", 1),
            cache_key(scaled_config(8), SETTINGS, "shared", "apache", 2),
        ]
        assert len(set(variants + [base])) == len(variants) + 1


class TestMemo:
    def test_repeat_hit_does_not_reparse(self, cache, monkeypatch):
        cache.put(K[0], make_result(1))
        assert not cache._memo  # put never fills the memo
        first = cache.get(K[0])

        def no_parse(*_args, **_kwargs):
            raise AssertionError("memoized entry was parsed again")

        monkeypatch.setattr(runcache.json, "load", no_parse)
        assert cache.get(K[0]) == first
        assert cache.get_payload(K[0]) == first.to_dict()
        assert cache.hits == 3

    def test_entry_replaced_by_another_writer(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get(K[0]) == make_result(1)
        RunCache(root=cache.root).put(K[0], make_result(1, cycles=2000))
        assert cache.get(K[0]) == make_result(1, cycles=2000)
        assert cache.get_payload(K[0]) == \
            make_result(1, cycles=2000).to_dict()

    def test_garbage_written_in_place_is_a_miss(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get(K[0]) is not None
        with open(cache.entry_path(K[0]), "w", encoding="utf-8") as handle:
            handle.write('{"architecture": "esp-nu')
        misses = cache.misses
        assert cache.get(K[0]) is None
        assert cache.get_payload(K[0]) is None
        assert cache.misses == misses + 2
        assert K[0] not in cache._memo

    def test_clear_is_a_miss(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get(K[0]) is not None
        cache.clear()
        assert cache.get(K[0]) is None
        assert cache.get_payload(K[0]) is None
        assert not cache._memo and cache._memo_bytes == 0

    def test_every_get_returns_fresh_objects(self, cache):
        cache.put(K[0], make_result(1))
        first = cache.get(K[0])
        first.per_core_cycles.append(7)
        first.stats["l2"]["bank0"]["hits"] = -1
        first.stats["noc"]["messages"].clear()
        first.supplier_count[Supplier.OFFCHIP] = -1
        payload = cache.get_payload(K[0])
        payload["stats"]["l2"].clear()
        payload["per_core_cycles"][0] = -1
        assert cache.get(K[0]) == make_result(1)
        assert cache.get_payload(K[0]) == make_result(1).to_dict()

    def test_memo_stays_within_budget(self, cache, monkeypatch):
        for seed in range(12):
            cache.put(K[seed], make_result(seed))
        cache.get(K[0])
        entry = len(cache._memo[K[0]][1])
        monkeypatch.setattr(runcache, "MEMO_BYTES", 3 * entry + entry // 2)
        for _ in range(2):
            for seed in range(12):
                assert cache.get(K[seed]) == make_result(seed)
                assert cache._memo_bytes <= runcache.MEMO_BYTES
        assert list(cache._memo) == K[9:]  # LRU order
        assert cache._memo_bytes == \
            sum(len(blob) for _, blob in cache._memo.values())
        # An entry larger than the whole budget is served, not memoized.
        monkeypatch.setattr(runcache, "MEMO_BYTES", entry - 1)
        cache.clear()
        cache.put(K[1], make_result(1))
        assert cache.get(K[1]) == make_result(1)
        assert not cache._memo and cache._memo_bytes == 0

    def test_concurrent_gets(self, cache):
        keys = K[:6]
        for seed, key in enumerate(keys):
            cache.put(key, make_result(seed))
        errors = []

        def reader(offset):
            try:
                for i in range(200):
                    seed = (i + offset) % len(keys)
                    got = cache.get(keys[seed])
                    if got != make_result(seed):
                        errors.append((keys[seed], got))
                    got.stats["l2"].clear()  # must not leak to others
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        def writer():
            # Replaced entries force re-reads that race with memo hits.
            for i in range(60):
                cache.put(keys[i % len(keys)], make_result(i % len(keys)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(n,))
                       for n in range(8)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # No lost updates: every get counted, memo bytes add up.
        assert (cache.hits, cache.misses) == (8 * 200, 0)
        assert cache._memo_bytes == \
            sum(len(blob) for _, blob in cache._memo.values())
