"""Run cache keys, paths and the in-process memo of decoded entries:
stable on-disk keys and layout, stat-signature revalidation, fresh
objects per get, a bounded memo, thread-safe reads and hits whose stats
decode on first read."""

import dataclasses
import hashlib
import json
import marshal
import os
import pickle
import sys
import threading

import pytest

from repro.common.config import SystemConfig, scaled_config
from repro.harness import executor, runcache
from repro.harness.executor import RunPoint
from repro.harness.runcache import (RunCache, cache_generation, cache_key,
                                    format_stats)
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


def wire(result):
    """The old reply encoding of a result, kept here as the oracle."""
    return json.dumps(result.to_dict(), sort_keys=True)


def memo_size(memo):
    """Bytes a memo entry counts against the budget: the ``marshal``
    length of the flat counters plus that of the stats blob, recomputed
    here from the template as a JSON payload, plus the length of the
    wire text once it is built (which must be the template's)."""
    _, template, stats, counted, text = memo
    flat = json.loads(json.dumps(template.to_dict()))
    assert marshal.dumps(flat.pop("stats")) == stats
    built = 0
    if text is not None:
        assert text == wire(template)
        built = len(text)
    assert counted == len(marshal.dumps(flat)) + len(stats) + built
    return counted


def mutate_containers(result):
    """Mutate every list and dict field of ``result`` (found through
    ``fields``, so a new field is covered), and its decoded stats tree
    one level down; returns the names mutated."""
    mutated = set()
    for f in dataclasses.fields(SimResult):
        value = getattr(result, f.name)
        if isinstance(value, list):
            value.append(-1)
        elif isinstance(value, dict):
            for inner in value.values():
                if isinstance(inner, (list, dict)):
                    inner.clear()
            value["mutated"] = -1
        else:
            continue
        mutated.add(f.name)
    return mutated


def oracle_entry_path(root, key):
    """The ``os.path.join`` formula ``entry_path`` has always given."""
    return os.path.join(root, cache_generation(), key[:2], f"{key}.json")


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

    def test_run_point_key_is_the_cache_key(self, monkeypatch):
        calls = []

        def counting_key(*args):
            calls.append(args)
            return cache_key(*args)

        monkeypatch.setattr(executor, "cache_key", counting_key)
        point = RunPoint("esp-nuca", "oltp", 1, SystemConfig(), SETTINGS,
                         arch="esp-nuca")
        assert point.key == cache_key(SystemConfig(), SETTINGS, "esp-nuca",
                                      "oltp", 1)
        assert point.key == point.key
        assert len(calls) == 1  # hashed once per point, not per lookup
        other = dataclasses.replace(point, seed=7919)
        assert other.key == cache_key(SystemConfig(), SETTINGS, "esp-nuca",
                                      "oltp", 7919)
        assert other.key != point.key

    def test_run_point_key_survives_a_pickle_round_trip(self):
        # A fabric payload pickles (key, point) pairs; a worker may read
        # the point's key again.
        fresh = RunPoint("shared", "apache", 7919, scaled_config(8),
                         SETTINGS, arch="shared")
        hashed = RunPoint("shared", "apache", 7919, scaled_config(8),
                          SETTINGS, arch="shared")
        expected = cache_key(scaled_config(8), SETTINGS, "shared", "apache",
                             7919)
        assert hashed.key == expected
        for point in (fresh, hashed):
            copy = pickle.loads(pickle.dumps(point))
            assert copy == point
            assert copy.key == expected
            assert dataclasses.replace(copy, seed=1).key == cache_key(
                scaled_config(8), SETTINGS, "shared", "apache", 1)


class TestLayout:
    KEYS = K + ["0" * 64, "f" * 64, "00ff" + "0" * 60, "ffff" + "1" * 60]

    def test_paths_equal_the_join_formula(self, tmp_path):
        for root in (str(tmp_path / "cache"), str(tmp_path / "cache") + "/",
                     "relative-cache"):
            cache = RunCache(root=root)
            for key in self.KEYS:
                assert cache.entry_path(key) == oracle_entry_path(root, key)

    def test_hand_written_entry_at_the_fixed_path_is_a_hit(self, tmp_path):
        # Written where every earlier version of the cache put it, as
        # ``json.dump`` of ``to_dict()``, with no help from RunCache.
        root = str(tmp_path / "cache")
        path = oracle_entry_path(root, K[0])
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(make_result(1).to_dict(), handle)
        cache = RunCache(root=root)
        assert cache.get(K[0]) == make_result(1)
        assert (cache.hits, cache.misses) == (1, 0)

    def test_trailing_slash_root_writes_where_it_reads(self, tmp_path):
        root = str(tmp_path / "cache") + "/"
        cache = RunCache(root=root)
        cache.put(K[0], make_result(1))
        assert os.path.isfile(oracle_entry_path(root.rstrip("/"), K[0]))
        assert RunCache(root=root.rstrip("/")).get(K[0]) == make_result(1)


class TestMemo:
    def test_repeat_hit_does_not_reparse(self, cache, monkeypatch):
        cache.put(K[0], make_result(1))
        first = cache.get(K[0])

        def no_parse(*_args, **_kwargs):
            raise AssertionError("memoized entry was parsed again")

        monkeypatch.setattr(runcache.json, "load", no_parse)
        assert cache.get(K[0]) == first
        assert cache.get_wire(K[0]) == wire(first)
        assert cache.hits == 3

    def test_put_writes_the_json_dumps_bytes(self, cache):
        result = make_result(3)
        cache.put(K[0], result)
        with open(cache.entry_path(K[0]), encoding="utf-8") as handle:
            assert handle.read() == json.dumps(result.to_dict())

    def test_get_after_put_opens_no_file(self, cache, monkeypatch):
        cache.put(K[0], make_result(1))

        def no_open(*_args, **_kwargs):
            raise AssertionError("a fresh put was read back from disk")

        monkeypatch.setattr(runcache, "open", no_open, raising=False)
        assert cache.get(K[0]) == make_result(1)
        assert cache.get_wire(K[0]) == wire(make_result(1))
        assert (cache.hits, cache.misses, cache.writes) == (2, 0, 1)

    def test_entry_replaced_after_put_is_reread(self, cache):
        cache.put(K[0], make_result(1))
        RunCache(root=cache.root).put(K[0], make_result(1, cycles=2000))
        assert cache.get(K[0]) == make_result(1, cycles=2000)
        assert cache.get_wire(K[0]) == wire(make_result(1, cycles=2000))

    def test_entry_replaced_by_another_writer(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get(K[0]) == make_result(1)
        RunCache(root=cache.root).put(K[0], make_result(1, cycles=2000))
        assert cache.get(K[0]) == make_result(1, cycles=2000)
        assert cache.get_wire(K[0]) == wire(make_result(1, cycles=2000))

    def test_garbage_written_in_place_is_a_miss(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get(K[0]) is not None
        with open(cache.entry_path(K[0]), "w", encoding="utf-8") as handle:
            handle.write('{"architecture": "esp-nu')
        misses = cache.misses
        assert cache.get(K[0]) is None
        assert cache.get_wire(K[0]) is None
        assert cache.misses == misses + 2
        assert K[0] not in cache._memo

    def test_clear_is_a_miss(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get(K[0]) is not None
        cache.clear()
        assert cache.get(K[0]) is None
        assert cache.get_wire(K[0]) is None
        assert not cache._memo and cache._memo_bytes == 0

    def test_every_get_returns_fresh_objects(self, cache):
        cache.put(K[0], make_result(1))
        first = cache.get(K[0])
        first.per_core_cycles.append(7)
        first.stats["l2"]["bank0"]["hits"] = -1
        first.stats["noc"]["messages"].clear()
        first.supplier_count[Supplier.OFFCHIP] = -1
        assert cache.get(K[0]) == make_result(1)
        assert cache.get_wire(K[0]) == wire(make_result(1))

    def test_every_container_field_of_a_hit_is_its_own(self, cache):
        cache.put(K[0], make_result(1))
        disk = RunCache(root=cache.root)
        for reader in (cache, disk, cache, disk):  # memo, disk, memo...
            hit = reader.get(K[0])
            mutated = mutate_containers(hit)
            assert mutated >= {"per_core_cycles", "per_core_instructions",
                               "supplier_count", "supplier_cycles",
                               "stats"}
            assert hit != make_result(1)
            assert cache.get(K[0]) == make_result(1)
            assert disk.get(K[0]) == make_result(1)
            assert RunCache(root=cache.root).get(K[0]) == make_result(1)
        assert cache.memo_hits >= 2 and disk.memo_hits >= 2

    def test_decoded_templates_do_not_share_stats(self, cache):
        for seed in range(3):
            cache.put(K[seed], make_result(seed))
        for entry in list(cache._memo.values()):
            # What printing an entry does (a test failure's report, a
            # debugger): repr reads the template's stats, decoding its
            # backing in place.
            repr(entry)
            assert entry[1].stats == make_result(entry[1].seed).stats
        for seed in range(3):
            first, second = cache.get(K[seed]), cache.get(K[seed])
            assert type(first._stats) is bytes  # still encoded
            assert type(second._stats) is bytes
            assert first.stats is not second.stats
            mutate_containers(first)
            assert second.stats == make_result(seed).stats
            assert cache.get(K[seed]) == make_result(seed)
            assert cache._memo[K[seed]][1] == make_result(seed)

    def test_memo_hits_are_counted_apart_from_disk_hits(self, cache):
        cache.put(K[0], make_result(1))
        cache.get(K[0])
        cache.get_wire(K[0])
        other = RunCache(root=cache.root)
        other.get(K[0])  # from disk
        other.get(K[0])  # then from its memo
        assert cache.get(K[1]) is None
        assert (cache.hits, cache.memo_hits, cache.misses) == (2, 2, 1)
        assert (other.hits, other.memo_hits, other.misses) == (2, 1, 0)
        session = other.stats()["session"]
        assert session == {"hits": 2, "memo_hits": 1, "misses": 0,
                           "writes": 0}
        assert "this session: 2 hit(s) (1 from the memo), 0 miss(es), " \
            "0 write(s)" in format_stats(other.stats())

    def test_memo_stays_within_budget(self, cache, monkeypatch):
        cache.put(K[0], make_result(0))
        entry = memo_size(cache._memo[K[0]])
        monkeypatch.setattr(runcache, "MEMO_BYTES", 3 * entry + entry // 2)
        for seed in range(12):
            cache.put(K[seed], make_result(seed))
            assert cache._memo_bytes <= runcache.MEMO_BYTES
        assert list(cache._memo) == K[9:]  # puts evict like gets
        for _ in range(2):
            for seed in range(12):
                assert cache.get(K[seed]) == make_result(seed)
                assert cache._memo_bytes <= runcache.MEMO_BYTES
        assert list(cache._memo) == K[9:]  # LRU order
        assert cache._memo_bytes == \
            sum(memo_size(memo) for memo in cache._memo.values())
        # Built wire texts count too, and evict like any growth.
        for seed in range(9, 12):
            assert cache.get_wire(K[seed]) == wire(make_result(seed))
            assert cache._memo_bytes <= runcache.MEMO_BYTES
        assert K[11] in cache._memo and len(cache._memo) < 3
        assert cache._memo[K[11]][4] is not None
        assert cache._memo_bytes == \
            sum(memo_size(memo) for memo in cache._memo.values())
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
                    if i % 3 == 0:
                        text = cache.get_wire(keys[seed])
                        if text != wire(make_result(seed)):
                            errors.append((keys[seed], text))
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
        assert (cache.hits, cache.misses) == (8 * 200 + 8 * 67, 0)
        assert cache._memo_bytes == \
            sum(memo_size(memo) for memo in cache._memo.values())


class TestWireText:
    """``get_wire``: the reply encoding of a hit, built once per memo
    entry on first request, counted, and never stale."""

    def test_text_is_the_reply_encoding_and_is_shared(self, cache):
        cache.put(K[0], make_result(1))
        text = cache.get_wire(K[0])
        assert text == wire(make_result(1))
        assert cache.get_wire(K[0]) is text
        disk = RunCache(root=cache.root)
        assert disk.get_wire(K[0]) == text  # built from a disk read
        assert disk.get_wire(K[0]) is disk.get_wire(K[0])
        assert cache.get_wire(K[1]) is None
        assert RunCache(root=cache.root, enabled=False).get_wire(K[0]) \
            is None
        assert (cache.hits, cache.memo_hits, cache.misses) == (2, 2, 1)

    def test_text_is_built_on_request_only_and_counted(self, cache):
        cache.put(K[0], make_result(1))
        counted = cache._memo_bytes
        for _ in range(3):
            cache.get(K[0]).to_dict()
            assert cache._memo[K[0]][4] is None  # put and get build none
        assert cache._memo_bytes == counted
        text = cache.get_wire(K[0])
        assert cache._memo[K[0]][4] is text
        assert cache._memo_bytes == counted + len(text)
        assert memo_size(cache._memo[K[0]]) == cache._memo_bytes
        assert cache.memo_usage() == (1, counted + len(text))
        cache.get_wire(K[0])
        cache.get(K[0])
        assert cache._memo_bytes == counted + len(text)

    def test_put_of_a_different_result_gives_the_new_text(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get_wire(K[0]) == wire(make_result(1))
        cache.put(K[0], make_result(1, cycles=2000))
        assert cache.get_wire(K[0]) == wire(make_result(1, cycles=2000))
        RunCache(root=cache.root).put(K[0], make_result(2))  # other writer
        assert cache.get_wire(K[0]) == wire(make_result(2))
        assert cache._memo_bytes == memo_size(cache._memo[K[0]])

    def test_in_place_rewrite_gives_the_new_text(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get_wire(K[0]) == wire(make_result(1))
        inode = os.stat(cache.entry_path(K[0])).st_ino
        rewritten = make_result(1, cycles=20000)  # same inode, new size
        with open(cache.entry_path(K[0]), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(rewritten.to_dict()))
        assert os.stat(cache.entry_path(K[0])).st_ino == inode
        assert cache.get_wire(K[0]) == wire(rewritten)
        assert cache._memo_bytes == memo_size(cache._memo[K[0]])

    def test_clear_gives_none(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get_wire(K[0]) is not None
        cache.clear()
        assert cache.get_wire(K[0]) is None
        cache.put(K[0], make_result(3))
        assert cache.get_wire(K[0]) == wire(make_result(3))

    def test_corrupt_file_gives_none(self, cache):
        cache.put(K[0], make_result(1))
        assert cache.get_wire(K[0]) is not None
        with open(cache.entry_path(K[0]), "w", encoding="utf-8") as handle:
            handle.write('{"architecture": "esp-nu')
        assert cache.get_wire(K[0]) is None
        assert K[0] not in cache._memo and cache._memo_bytes == 0


class TestLazyStats:
    @pytest.fixture
    def loads(self, monkeypatch):
        """Counts ``marshal.loads`` calls, wherever they are made."""
        calls = []
        real = marshal.loads

        def counting(data, *args):
            calls.append(len(data))
            return real(data, *args)

        monkeypatch.setattr(marshal, "loads", counting)
        return calls

    def test_memo_hit_decodes_stats_only_when_read(self, cache, loads,
                                                   monkeypatch):
        cache.put(K[0], make_result(1))
        stat_calls = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            stat_calls.append(path)
            return real_stat(path, *args, **kwargs)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a memo hit read or rebuilt the entry")

        monkeypatch.setattr(runcache.os, "stat", counting_stat)
        monkeypatch.setattr(runcache, "open", forbidden, raising=False)
        monkeypatch.setattr(runcache.json, "load", forbidden)
        monkeypatch.setattr(SimResult, "from_dict", classmethod(forbidden))
        hit = cache.get(K[0])
        assert stat_calls == [cache.entry_path(K[0])]  # one stat, no read
        assert loads == []  # and no decode at all
        assert hit.cycles == 1000 and hit.performance == 2.0
        assert hit.per_core_cycles == [1000] * 8
        assert hit.supplier_cycles == make_result(1).supplier_cycles
        assert loads == []
        assert hit.stats == make_result(1).stats
        assert len(loads) == 1
        assert hit.stats is hit.stats  # decoded once, then kept
        assert len(loads) == 1
        assert cache.get_wire(K[0]) == wire(make_result(1))
        assert len(loads) == 2  # the wire text decodes the tree once
        assert cache.get_wire(K[0]) == wire(make_result(1))
        assert len(loads) == 2  # and is kept
        assert len(stat_calls) == 3
        assert (cache.hits, cache.memo_hits) == (3, 3)

    def test_lazy_result_equals_the_eager_one(self, cache):
        eager = make_result(1)
        cache.put(K[0], eager)
        assert cache.get(K[0]) == eager
        assert eager == cache.get(K[0])
        assert repr(cache.get(K[0])) == repr(eager)
        assert cache.get(K[0]).to_dict() == eager.to_dict()
        assert cache.get(K[0]) != make_result(2)  # differs only in stats

    def test_lazy_result_pickles_round_trips_and_replaces(self, cache):
        eager = make_result(1)
        cache.put(K[0], eager)
        assert pickle.loads(pickle.dumps(cache.get(K[0]))) == eager
        assert SimResult.from_dict(
            json.loads(json.dumps(cache.get(K[0]).to_dict()))) == eager
        relabelled = dataclasses.replace(cache.get(K[0]),
                                         architecture="esp[d=1]")
        assert relabelled == dataclasses.replace(eager,
                                                 architecture="esp[d=1]")

    def test_mutated_stats_do_not_leak_into_the_next_hit(self, cache):
        cache.put(K[0], make_result(1))
        first = cache.get(K[0])
        first.stats["l2"]["bank0"]["hits"] = -1
        first.stats["noc"]["messages"].append(4)
        second = cache.get(K[0])
        assert second.stats == make_result(1).stats
        assert first.stats != second.stats
        first.stats = {}
        assert cache.get(K[0]).stats == make_result(1).stats

    def test_concurrent_first_reads_of_one_hit(self, cache):
        cache.put(K[0], make_result(1))
        expected = make_result(1).stats
        for _ in range(20):
            shared = cache.get(K[0])
            seen = []

            def reader():
                seen.append(shared.stats == expected)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=reader) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [True] * 8
            assert shared.stats is shared.stats
