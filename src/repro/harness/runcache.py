"""Persistent on-disk cache of simulation results.

The in-memory run cache of :class:`~repro.harness.runner.ExperimentRunner`
dies with the interpreter, so reproducing the full figure suite twice
re-simulates every (architecture, workload, seed) point from scratch.
This module persists :class:`~repro.sim.results.SimResult` payloads as
JSON under ``.repro_cache/`` keyed by a content hash of everything that
determines a run:

* the full :class:`~repro.common.config.SystemConfig` (nested dataclass,
  canonically serialized),
* the fidelity knobs of :class:`~repro.harness.runner.RunSettings` that
  affect a single run (``refs_per_core``, ``warmup_refs_per_core``,
  ``capacity_factor`` — seed count does not, the seed is part of the key),
* the architecture cache name, the workload name and the seed,
* :data:`CACHE_VERSION`.

Layout on disk (see docs/harness.md and docs/fabric.md)::

    .repro_cache/
      v<CACHE_VERSION>-<schema fingerprint>/
        <shard directory>/
          <64-hex-char sha256 key>.json

The shard directory is a first-class **shard map** over the key space:
``REPRO_CACHE_SHARDS`` (default 256) shards, each a directory named by
the shard index in hex. The default count reproduces the historical
``key[:2]`` layout byte-for-byte, so existing caches stay readable.
Sharding is what makes the cache safe and fast under the multi-process
worker fabric: every shard is an independent directory (atomic
``os.replace`` writes never contend across shards), per-shard entry
counts expose skew, and the :class:`ShardIndex` gives every process a
cheap read-through view of which keys exist — a worker about to
simulate a point can discover that another process already committed
it and serve the bytes from disk instead (cross-process coalescing on
content hash; see docs/fabric.md).

Invalidation is versioned two ways, both automatic at the schema level:
the cache *generation* (:func:`cache_generation`) combines the
hand-bumped :data:`CACHE_VERSION` (simulation *semantics* changed —
same fields, different meaning) with a fingerprint derived from
:meth:`SimResult.schema_keys` (the result *shape* changed), so adding,
removing or renaming a ``SimResult`` field re-keys and re-prefixes the
cache without anyone remembering to bump anything; and payloads whose
key set still fails to match on read are treated as misses
(:meth:`SimResult.from_dict` returns ``None``) rather than resurrected.

Reads are served through a bounded in-process memo of decoded entries,
revalidated against each file's ``stat`` signature on every read (see
:meth:`RunCache._load`). A memo entry holds a template
:class:`~repro.sim.results.SimResult`, built and schema-checked once
when the entry is read from disk or written, and its ``stats`` registry
tree (most of its bytes) as one ``marshal`` blob. A repeated
:meth:`RunCache.get` costs one ``os.stat`` and a shallow copy of the
template (:meth:`SimResult.clone`); the copy carries the tree still
encoded and decodes it only if its caller reads ``stats`` (see
:mod:`repro.sim.results`). :meth:`RunCache.get_payload` decodes it.
A :meth:`RunCache.put` memoizes what it wrote, so the first read of a
fresh entry in the writing process is such a hit too.

A custom point (a registry architecture under a non-default config)
is cached under its own name; as with the in-memory cache, the name
must encode the architecture and its parameters (the config is hashed
too, but the architecture name is not).

Environment knobs: ``REPRO_CACHE=0`` disables the cache entirely,
``REPRO_CACHE_DIR`` relocates it (default ``.repro_cache``),
``REPRO_CACHE_SHARDS`` sets the shard count (default 256; validated —
malformed or non-positive values fail at startup). The shard count is
a *deployment* knob, not part of the content key: all processes
sharing one cache directory must agree on it.

CLI: ``esp-nuca repro-cache stats`` / ``esp-nuca repro-cache clear``
(also installed standalone as ``repro-cache``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import marshal
import os
import shutil
import threading
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.sim.results import SimResult

#: Bump whenever simulation semantics change (timing model, trace
#: generation, counter meaning): every key changes and old entries are
#: never read again. Schema changes (fields added/removed/renamed on
#: ``SimResult``) need no bump — the generation fingerprints the schema.
CACHE_VERSION = 2

DEFAULT_CACHE_DIR = ".repro_cache"

#: Default shard count; reproduces the historical ``key[:2]`` directory
#: layout exactly (shard index = first byte of the key, two-hex-char
#: directory names), so caches written before the shard map existed
#: stay readable without migration.
DEFAULT_SHARDS = 256

#: Upper bound on the shard count — beyond this the per-shard directory
#: overhead outweighs any contention win.
MAX_SHARDS = 65_536

#: Byte budget of each :class:`RunCache`'s in-process memo, counted per
#: entry as the ``marshal`` length of the flat counters plus that of the
#: ``stats`` blob (5-9 KiB for a scaled-config result, so a couple of
#: thousand entries). The count is a proxy: an entry really holds a
#: decoded template and the blob, 1.35x its counted bytes by
#: ``tracemalloc`` over 20 real scaled-config results (8.1 KiB against
#: 6.0 KiB counted), so a full memo takes about 22 MiB.
MEMO_BYTES = 16 << 20


def env_int(name: str, default: int, minimum: int = 0) -> int:
    """Validated integer environment knob.

    Unset or blank returns ``default``; anything non-integer or below
    ``minimum`` raises a :class:`ValueError` naming the variable, so a
    typo in ``REPRO_WORKERS`` fails at startup instead of deep inside
    ``int()``. (Shared by every ``REPRO_*`` integer knob: ``REPRO_JOBS``,
    ``REPRO_WORKERS``, ``REPRO_CACHE_SHARDS``, ``REPRO_REFS``, ...)
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be an integer, "
            f"got {raw!r}") from None
    if value < minimum:
        raise ValueError(
            f"environment variable {name} must be >= {minimum}, "
            f"got {value}")
    return value


def default_shards() -> int:
    """Shard count: ``REPRO_CACHE_SHARDS`` or :data:`DEFAULT_SHARDS`."""
    shards = env_int("REPRO_CACHE_SHARDS", DEFAULT_SHARDS, minimum=1)
    if shards > MAX_SHARDS:
        raise ValueError(f"environment variable REPRO_CACHE_SHARDS must "
                         f"be <= {MAX_SHARDS}, got {shards}")
    return shards


def shard_chars(shards: int) -> int:
    """Hex digits of key prefix a shard index is derived from (and the
    width of the shard directory name). Never below 2, so the default
    256-shard map names directories exactly ``key[:2]``."""
    return max(2, len(f"{shards - 1:x}"))


def shard_of(key: str, shards: int) -> int:
    """The shard index of a cache key: leading key hex chars mod the
    shard count. Deterministic across processes and hosts — the shard
    map is a pure function of (key, shard count)."""
    return int(key[:shard_chars(shards)], 16) % shards


def shard_name(index: int, shards: int) -> str:
    """Directory name of a shard index (zero-padded hex)."""
    return f"{index:0{shard_chars(shards)}x}"


#: Short stable hash of the current :class:`SimResult` schema, and the
#: directory prefix of the current (version, schema) generation. Both
#: are fixed for the life of the process, so they are computed once.
_SCHEMA_FINGERPRINT = hashlib.sha256(
    ",".join(SimResult.schema_keys()).encode("utf-8")).hexdigest()[:8]
_GENERATION = f"v{CACHE_VERSION}-{_SCHEMA_FINGERPRINT}"


def schema_fingerprint() -> str:
    """Short stable hash of the current :class:`SimResult` schema."""
    return _SCHEMA_FINGERPRINT


def cache_generation() -> str:
    """Directory prefix for the current (version, schema) generation."""
    return _GENERATION


def cache_key(config, settings, architecture: str, workload: str,
              seed: int) -> str:
    """Content hash identifying one run point.

    ``config`` is a :class:`SystemConfig`; ``settings`` anything with
    ``refs_per_core``/``warmup_refs_per_core``/``capacity_factor``.
    Memoized on exactly the values hashed: ``SystemConfig`` is a
    frozen, hashable dataclass, so equal inputs give equal keys.
    """
    return _cache_key(config, settings.refs_per_core,
                      settings.warmup_refs_per_core,
                      settings.capacity_factor, architecture, workload, seed)


@functools.lru_cache(maxsize=4096, typed=True)
def _cache_key(config, refs_per_core, warmup_refs_per_core, capacity_factor,
               architecture, workload, seed) -> str:
    payload = {
        "version": CACHE_VERSION,
        "schema": SimResult.schema_keys(),
        "config": dataclasses.asdict(config),
        "refs_per_core": refs_per_core,
        "warmup_refs_per_core": warmup_refs_per_core,
        "capacity_factor": capacity_factor,
        "architecture": architecture,
        "workload": workload,
        "seed": seed,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def result_to_payload(result: SimResult) -> Dict[str, object]:
    """JSON-serializable form of a :class:`SimResult` (exact round-trip)."""
    return result.to_dict()


def payload_to_result(payload: Dict[str, object]) -> Optional[SimResult]:
    """Rebuild a :class:`SimResult`, or ``None`` if the payload's key
    set does not match the current schema (stale cache entry)."""
    return SimResult.from_dict(payload)


class ShardIndex:
    """Read-through index of which keys exist in one cache generation.

    Shared across processes *via the filesystem*: each shard directory
    is scanned at most once per observed directory mtime, so a
    ``contains`` probe costs one ``os.stat`` in the steady state and
    one ``os.listdir`` only after another process committed an entry
    into that shard (``os.replace`` into a directory bumps its mtime).

    The index is **advisory**: a stale negative merely means a worker
    re-simulates a point another process just finished (correct, a
    little wasteful), and every positive is revalidated by the actual
    :meth:`RunCache.get` payload read — torn or stale reads are
    impossible. That makes it safe to consult from every worker process
    of the fabric without any cross-process locking (docs/fabric.md).
    """

    def __init__(self, generation_root: str) -> None:
        self.root = generation_root
        #: shard dir name -> (mtime_ns, frozenset of keys, total bytes)
        self._scans: Dict[str, tuple] = {}

    def _scan(self, shard: str) -> Optional[tuple]:
        """The ``(mtime_ns, keys, bytes)`` view of one shard, rescanned
        only when the directory mtime moved; ``None`` for an absent
        shard. One ``os.scandir`` pass captures membership *and* sizes,
        so usage accounting (``repro-cache stats``, the /metrics cache
        gauges) rides the same revalidation the existence probes use."""
        path = os.path.join(self.root, shard)
        try:
            stamp = os.stat(path).st_mtime_ns
        except OSError:
            self._scans.pop(shard, None)
            return None
        cached = self._scans.get(shard)
        if cached is not None and cached[0] == stamp:
            return cached
        keys = []
        size = 0
        try:
            with os.scandir(path) as entries:
                for entry in entries:
                    if not entry.name.endswith(".json"):
                        continue
                    keys.append(entry.name[:-5])
                    try:
                        size += entry.stat().st_size
                    except OSError:
                        pass  # entry replaced mid-scan; next mtime bump
        except OSError:
            return None
        scan = (stamp, frozenset(keys), size)
        self._scans[shard] = scan
        return scan

    def contains(self, key: str, shard: str) -> bool:
        scan = self._scan(shard)
        return scan is not None and key in scan[1]

    def shard_usage(self, shard: str) -> tuple:
        """``(entry_count, bytes)`` of one shard, from the cached scan."""
        scan = self._scan(shard)
        if scan is None:
            return (0, 0)
        return (len(scan[1]), scan[2])

    def note(self, key: str, shard: str) -> None:
        """Record a key this process just wrote (keeps the local view
        warm without a rescan). The byte total goes momentarily stale,
        but the write bumped the directory mtime, so the next
        :meth:`_scan` picks up exact sizes again."""
        cached = self._scans.get(shard)
        if cached is not None:
            self._scans[shard] = (cached[0], cached[1] | {key}, cached[2])


class RunCache:
    """Filesystem-backed store of run results, safe for concurrent use
    across threads *and* processes (writes are atomic renames; readers
    of half-written entries see a miss and re-simulate; the shard map
    keeps directories independent)."""

    def __init__(self, root: Optional[str] = None,
                 enabled: bool = True,
                 shards: Optional[int] = None) -> None:
        self.root = root or os.environ.get("REPRO_CACHE_DIR") or \
            DEFAULT_CACHE_DIR
        self.enabled = enabled
        self.shards = shards if shards is not None else default_shards()
        if not 1 <= self.shards <= MAX_SHARDS:
            raise ValueError(f"shards must be in [1, {MAX_SHARDS}], "
                             f"got {self.shards}")
        #: ``os.path.join(root, generation)`` and the shard name width,
        #: fixed for the cache's life, so a path is one format.
        self._generation_root = os.path.join(self.root, cache_generation())
        self._shard_chars = shard_chars(self.shards)
        self.hits = 0
        #: The hits answered from the memo (one ``os.stat``, no read).
        self.memo_hits = 0
        self.misses = 0
        self.writes = 0
        self._index: Optional[ShardIndex] = None
        #: key -> (file signature, template ``SimResult``, marshal bytes
        #: of ``stats``, counted bytes), in least-recently-used order;
        #: filled by get and by put.
        self._memo: "OrderedDict[str, tuple]" = OrderedDict()
        self._memo_bytes = 0
        self._memo_lock = threading.Lock()

    @classmethod
    def from_env(cls) -> "RunCache":
        flag = os.environ.get("REPRO_CACHE", "1").strip().lower()
        return cls(enabled=flag not in ("0", "off", "false", "no"))

    # -- cross-process plumbing (the worker fabric) --------------------------

    def spec(self) -> Optional[Dict[str, object]]:
        """Picklable recipe a worker process rebuilds this cache from
        (``None`` when disabled — workers then skip read-through)."""
        if not self.enabled:
            return None
        return {"root": self.root, "shards": self.shards}

    @classmethod
    def from_spec(cls, spec: Optional[Dict[str, object]]) -> "RunCache":
        if spec is None:
            return cls(enabled=False)
        return cls(root=str(spec["root"]), shards=int(spec["shards"]))

    @property
    def index(self) -> ShardIndex:
        """The generation's read-through :class:`ShardIndex` (lazy)."""
        if self._index is None:
            self._index = ShardIndex(self._generation_root)
        return self._index

    def probably_has(self, key: str) -> bool:
        """Cheap advisory existence probe through the shard index —
        false negatives possible (filesystem mtime granularity), false
        positives resolved by :meth:`get` itself."""
        if not self.enabled:
            return False
        return self.index.contains(key, self.shard_dir(key))

    # -- layout --------------------------------------------------------------

    def shard_dir(self, key: str) -> str:
        """The shard directory name a key lives under: ``shard_name(
        shard_of(key, shards), shards)``, with the width computed once."""
        width = self._shard_chars
        return f"{int(key[:width], 16) % self.shards:0{width}x}"

    def entry_path(self, key: str) -> str:
        """Where a key's payload lives on disk (whether or not it
        exists) — the current generation's shard of the key; the string
        ``os.path.join(root, generation, shard, key + ".json")`` gives."""
        return f"{self._generation_root}{os.sep}{self.shard_dir(key)}" \
            f"{os.sep}{key}.json"

    def _load(self, key: str) -> Optional[tuple]:
        """The memo entry ``(signature, template, stats blob, counted
        bytes)`` of a fresh, schema-validated payload for ``key``, or
        ``None`` on a miss; counts the hit or miss.

        Entries are memoized in-process, each under the
        ``(st_ino, st_mtime_ns, st_size)`` signature of the file it was
        read from (or that :meth:`put` wrote), so a repeat hit costs
        one ``os.stat`` and no decode at all. A write to the entry
        changes or removes the signature (``os.replace`` by any writer
        brings a new inode, an in-place write a new size or mtime,
        ``clear()`` removes the file), and the entry is then read and
        validated again. The template is never handed out and the blob
        is immutable: :meth:`get` returns a clone, so every caller gets
        new containers and may mutate them."""
        path = self.entry_path(key)
        try:
            st = os.stat(path)
        except OSError:
            self._miss(key)
            return None
        with self._memo_lock:
            memo = self._memo.get(key)
            if memo is not None and memo[0] == (st.st_ino, st.st_mtime_ns,
                                                st.st_size):
                self._memo.move_to_end(key)
                self.hits += 1
                self.memo_hits += 1
                return memo
        try:
            with open(path, encoding="utf-8") as handle:
                st = os.fstat(handle.fileno())
                payload = json.load(handle)
        except (OSError, ValueError):
            # Missing entries and corrupt/truncated payloads (a reader
            # racing put()'s atomic rename, a torn write from a crash,
            # garbage on disk) are all the same thing: a miss.
            payload = None
        entry = self._remember(key, (st.st_ino, st.st_mtime_ns, st.st_size),
                               payload)
        if entry is None:
            self._miss(key)
        return entry

    def _remember(self, key: str, signature: tuple, payload: object,
                  hit: bool = True) -> Optional[tuple]:
        """Build the memo entry of a decoded payload and memoize it
        (counting a hit read from disk, unless it is one :meth:`put`
        just wrote), evicting least recently used entries to stay
        within :data:`MEMO_BYTES`. Returns the entry, memoized or not,
        or ``None`` if the payload does not match the current schema.

        The template is the one :meth:`SimResult.from_dict` per entry:
        building it validates the schema, and rehashes the supplier
        enums a clone then reuses."""
        template = SimResult.from_dict(payload)
        if template is None:
            return None
        stats = marshal.dumps(payload.pop("stats"))
        template.stats = stats  # the decoded tree is not kept
        size = len(marshal.dumps(payload)) + len(stats)
        entry = (signature, template, stats, size)
        with self._memo_lock:
            if hit:
                self.hits += 1
            self._discard(key)
            if size > MEMO_BYTES:
                return entry
            self._memo[key] = entry
            self._memo_bytes += size
            while self._memo_bytes > MEMO_BYTES:
                self._memo_bytes -= self._memo.popitem(last=False)[1][3]
        return entry

    def _miss(self, key: str) -> None:
        """Count a miss and drop any memo of the entry."""
        with self._memo_lock:
            self.misses += 1
            self._discard(key)

    def _discard(self, key: str) -> None:
        """Drop one memo entry (caller holds the lock)."""
        old = self._memo.pop(key, None)
        if old is not None:
            self._memo_bytes -= old[3]

    def get(self, key: str) -> Optional[SimResult]:
        """The cached result for ``key``, or ``None`` on a miss: a
        clone of the memo's template, whose ``stats`` stay encoded
        until first read."""
        if not self.enabled:
            return None
        entry = self._load(key)
        if entry is None:
            return None
        return entry[1].clone(entry[2])

    def get_payload(self, key: str) -> Optional[Dict[str, object]]:
        """The raw wire payload for a key, schema-validated, or ``None``
        on a miss. This is the persistent index behind the gateway's
        results-by-content-hash store: a completed job whose results row
        was lost (crash between cache write and store commit) re-attaches
        here and still answers byte-identically, because the cache entry
        *is* ``result.to_dict()`` — the same serializer every reply path
        uses. It reads through :meth:`get`, so a traced ``get`` covers
        every cache read, and ``to_dict`` decodes the ``stats`` blob."""
        result = self.get(key)
        return None if result is None else result.to_dict()

    def put(self, key: str, result: SimResult) -> None:
        if not self.enabled:
            return
        path = self.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        # One pass of the C encoder writes the bytes json.dump would
        # stream through the much slower pure-Python iterencode.
        text = json.dumps(result_to_payload(result))
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            st = os.fstat(handle.fileno())
        os.replace(tmp, path)
        self.writes += 1
        if self._index is not None:
            self._index.note(key, self.shard_dir(key))
        # The rename keeps the inode, mtime and size, so this is the
        # signature a get() stats until some writer replaces the entry.
        # The template is built from the decoded text, exactly what a
        # read of the file builds.
        self._remember(key, (st.st_ino, st.st_mtime_ns, st.st_size),
                       json.loads(text), hit=False)

    # -- maintenance (the repro-cache CLI) ----------------------------------

    def shard_usage(self) -> Dict[str, tuple]:
        """``(entries, bytes)`` per populated shard of the *current*
        generation, served through the :class:`ShardIndex`: repeated
        calls cost one ``os.stat`` per shard (plus one generation-dir
        listing), re-listing only shards whose mtime moved — not a full
        directory sweep per call."""
        gen_dir = self._generation_root
        out: Dict[str, tuple] = {}
        if os.path.isdir(gen_dir):
            index = self.index
            for shard in sorted(os.listdir(gen_dir)):
                if not os.path.isdir(os.path.join(gen_dir, shard)):
                    continue
                count, size = index.shard_usage(shard)
                if count:
                    out[shard] = (count, size)
        return out

    def memo_usage(self) -> tuple:
        """``(entries, bytes)`` of the in-process memo, read under its
        lock so the pair is consistent."""
        with self._memo_lock:
            return len(self._memo), self._memo_bytes

    def usage(self) -> tuple:
        """``(entries, bytes)`` of the current generation — cheap
        enough for every /metrics scrape (steady state: no re-listing
        at all, just mtime checks)."""
        entries = size = 0
        for count, nbytes in self.shard_usage().values():
            entries += count
            size += nbytes
        return entries, size

    def shard_stats(self) -> Dict[str, int]:
        """Entry count per populated shard of the *current* generation
        (empty shards are omitted — with 256 shards most are)."""
        return {shard: count
                for shard, (count, _) in self.shard_usage().items()}

    def stats(self) -> Dict[str, object]:
        generation = cache_generation()
        per_version: Dict[str, int] = {}
        entries = 0
        size = 0
        if os.path.isdir(self.root):
            for version in sorted(os.listdir(self.root)):
                vdir = os.path.join(self.root, version)
                if not os.path.isdir(vdir):
                    continue
                if version == generation:
                    # Current generation: reuse the ShardIndex's
                    # mtime-revalidated scans instead of re-walking.
                    count, vsize = self.usage()
                else:
                    # Stale generations have no live index; they exist
                    # only across schema/version bumps, so walking is
                    # the rare path.
                    count = 0
                    vsize = 0
                    for dirpath, _, filenames in os.walk(vdir):
                        for name in filenames:
                            if name.endswith(".json"):
                                count += 1
                                vsize += os.path.getsize(
                                    os.path.join(dirpath, name))
                per_version[version] = count
                entries += count
                size += vsize
        per_shard = self.shard_stats()
        shard_summary: Dict[str, object] = {
            "configured": self.shards,
            "populated": len(per_shard),
        }
        if per_shard:
            hottest = max(per_shard.items(), key=lambda kv: kv[1])
            shard_summary["hottest"] = {"shard": hottest[0],
                                        "entries": hottest[1]}
        return {"root": self.root, "enabled": self.enabled,
                "entries": entries, "bytes": size,
                "per_version": per_version,
                "shards": shard_summary,
                "session": {"hits": self.hits,
                            "memo_hits": self.memo_hits,
                            "misses": self.misses,
                            "writes": self.writes}}

    def clear(self) -> int:
        """Delete the whole cache directory; returns entries removed."""
        removed = self.stats()["entries"]
        if os.path.isdir(self.root):
            shutil.rmtree(self.root)
        with self._memo_lock:
            self._memo.clear()
            self._memo_bytes = 0
        return removed


def format_stats(stats: Dict[str, object]) -> str:
    lines = [f"run cache at {stats['root']} "
             f"({'enabled' if stats['enabled'] else 'disabled'})",
             f"  entries: {stats['entries']}  "
             f"({stats['bytes'] / 1024:.1f} KiB)"]
    for version, count in stats["per_version"].items():
        marker = (" (current)" if version == cache_generation()
                  else " (stale)")
        lines.append(f"    {version}: {count} result(s){marker}")
    shards = stats.get("shards", {})
    if shards:
        line = (f"  shard map: {shards['configured']} shard(s), "
                f"{shards['populated']} populated")
        hottest = shards.get("hottest")
        if hottest:
            line += (f" (hottest {hottest['shard']}: "
                     f"{hottest['entries']} entries)")
        lines.append(line)
    session = stats["session"]
    lines.append(f"  this session: {session['hits']} hit(s) "
                 f"({session['memo_hits']} from the memo), "
                 f"{session['misses']} miss(es), "
                 f"{session['writes']} write(s)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-cache stats|clear`` — also reachable as the
    ``esp-nuca repro-cache`` subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="inspect or clear the persistent run cache")
    parser.add_argument("action", choices=["stats", "clear"], nargs="?",
                        default="stats")
    parser.add_argument("--dir", default=None,
                        help=f"cache directory (default $REPRO_CACHE_DIR "
                             f"or {DEFAULT_CACHE_DIR})")
    args = parser.parse_args(argv)
    cache = RunCache(root=args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached result(s) from {cache.root}")
    else:
        print(format_stats(cache.stats()))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
