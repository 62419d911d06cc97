"""Persistent job store: SQLite with versioned schema migrations.

The gateway's durability layer. One SQLite file holds everything that
must survive a restart — jobs (with the canonical request JSON that
re-expands to the exact same grid on recovery), their run points,
results keyed by content hash, and tenant identities with quotas. The
in-memory :class:`~repro.service.core.ServiceCore` stays the execution
authority while the process lives; this store is the write-behind
record that lets a SIGKILL'd gateway come back and finish its backlog.

Schema changes ship as numbered SQL files in ``gateway/migrations/``
(``0001_initial.sql``, ``0002_tenants.sql``, ...). :meth:`JobStore.migrate`
applies the pending suffix in order, each file in its own transaction,
and records it in ``schema_migrations`` — so a v1 database opened by
v3 code upgrades in place, and an old binary refuses a newer database
instead of corrupting it. Adding a migration = dropping a new
``NNNN_name.sql`` into the package; nothing else to register.

Durability settings: WAL journal with ``synchronous=NORMAL`` — commits
survive process SIGKILL (the failure mode the recovery test exercises);
an OS crash may lose the last few commits but never corrupts, which is
the right trade for re-runnable simulation jobs backed by the run
cache.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

MIGRATIONS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "migrations")
_MIGRATION_RE = re.compile(r"^(\d{4})_[a-z0-9_]+\.sql$")

#: Stored job states. `queued` and `running` are the recoverable ones;
#: the rest are terminal and never re-dispatched.
STORED_TERMINAL = ("done", "failed", "cancelled")


class StoreError(Exception):
    """Schema or integrity problem with the job store."""


def available_migrations(directory: str = MIGRATIONS_DIR
                         ) -> List[Tuple[int, str]]:
    """Sorted ``(version, filename)`` pairs shipped with this build."""
    out: List[Tuple[int, str]] = []
    for name in sorted(os.listdir(directory)):
        match = _MIGRATION_RE.match(name)
        if match:
            out.append((int(match.group(1)), name))
    versions = [v for v, _ in out]
    if versions != list(range(1, len(versions) + 1)):
        raise StoreError(f"migration files are not a 1..N sequence: "
                         f"{[name for _, name in out]}")
    return out


def canonical_json(obj: Any) -> str:
    """The one JSON serialization used for stored requests and result
    payloads (same separators/sort as the byte-identity checks)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class JobStore:
    """One SQLite-backed job/tenant store.

    Thread-safe via one connection + a lock (the gateway does all store
    work on its event-loop thread; the lock covers CLI tooling and
    tests poking a live store from another thread). Open with
    :meth:`open` to connect *and* migrate in one step.
    """

    def __init__(self, path: str, *, migrations: str = MIGRATIONS_DIR
                 ) -> None:
        self.path = path
        self.migrations_dir = migrations
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False,
                                     timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS schema_migrations ("
                " version INTEGER PRIMARY KEY,"
                " name TEXT NOT NULL,"
                " applied_at REAL NOT NULL)")
            self._conn.commit()

    @classmethod
    def open(cls, path: str) -> "JobStore":
        """Connect and bring the schema fully up to date."""
        store = cls(path)
        store.migrate()
        return store

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- migrations ----------------------------------------------------------

    def version(self) -> int:
        """Highest applied migration version (0 = fresh database)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT MAX(version) AS v FROM schema_migrations").fetchone()
        return int(row["v"] or 0)

    def pending_migrations(self) -> List[Tuple[int, str]]:
        current = self.version()
        shipped = available_migrations(self.migrations_dir)
        if current > len(shipped):
            raise StoreError(
                f"database {self.path} is at schema version {current} but "
                f"this build only ships {len(shipped)} migration(s) — "
                f"refusing to touch a newer database")
        return [(v, name) for v, name in shipped if v > current]

    def migrate(self, upto: Optional[int] = None) -> List[str]:
        """Apply pending migrations in order (each in its own
        transaction, recorded on success); returns the applied
        filenames. ``upto`` stops early — migration tests use it to
        build a database at an old version and prove the remaining
        suffix upgrades it."""
        applied: List[str] = []
        for ver, name in self.pending_migrations():
            if upto is not None and ver > upto:
                break
            sql_path = os.path.join(self.migrations_dir, name)
            with open(sql_path, encoding="utf-8") as handle:
                sql = handle.read()
            with self._lock:
                try:
                    self._conn.executescript(sql)
                    self._conn.execute(
                        "INSERT INTO schema_migrations "
                        "(version, name, applied_at) VALUES (?, ?, ?)",
                        (ver, name, time.time()))
                    self._conn.commit()
                except sqlite3.Error as exc:
                    self._conn.rollback()
                    raise StoreError(
                        f"migration {name} failed: {exc}") from exc
            applied.append(name)
        return applied

    # -- tenants -------------------------------------------------------------

    def add_tenant(self, name: str, *, max_jobs: int = 4,
                   max_points: int = 64, rate_capacity: float = 10.0,
                   rate_refill: float = 2.0) -> Tuple[Dict[str, Any], str]:
        """Create a tenant; returns ``(row, api_key)``. The plaintext
        key exists only in this return value — the store keeps its
        sha256."""
        from repro.gateway.auth import generate_key, hash_key, validate_tenant

        validate_tenant(name)
        key = generate_key()
        with self._lock:
            try:
                self._conn.execute(
                    "INSERT INTO tenants (name, key_hash, max_jobs, "
                    "max_points, rate_capacity, rate_refill, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (name, hash_key(key), max_jobs, max_points,
                     rate_capacity, rate_refill, time.time()))
                self._conn.commit()
            except sqlite3.IntegrityError as exc:
                self._conn.rollback()
                raise StoreError(f"tenant {name!r} already exists") from exc
        tenant = self.get_tenant(name)
        assert tenant is not None
        return tenant, key

    def get_tenant(self, name: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM tenants WHERE name = ?", (name,)).fetchone()
        return dict(row) if row is not None else None

    def find_tenant_by_key(self, key: str) -> Optional[Dict[str, Any]]:
        """Authentication lookup: the presented key's hash, or None."""
        from repro.gateway.auth import hash_key

        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM tenants WHERE key_hash = ?",
                (hash_key(key),)).fetchone()
        return dict(row) if row is not None else None

    def list_tenants(self) -> List[Dict[str, Any]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, max_jobs, max_points, rate_capacity, "
                "rate_refill, created_at FROM tenants "
                "ORDER BY name").fetchall()
        return [dict(row) for row in rows]

    # -- jobs ----------------------------------------------------------------

    def create_job(self, request: Dict[str, Any], priority: int,
                   tenant: Optional[str],
                   points: Sequence[Tuple[str, str, str, int]]) -> int:
        """Persist a validated submission; returns the integer primary
        key (public id ``g<pk>``). ``points`` are ``(key, name,
        workload, seed)`` in grid order."""
        now = time.time()
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO jobs (state, priority, request, tenant, "
                "created_at, updated_at) VALUES (?, ?, ?, ?, ?, ?)",
                ("queued", priority, canonical_json(request), tenant,
                 now, now))
            job_id = int(cur.lastrowid)
            self._conn.executemany(
                "INSERT INTO job_points (job_id, ord, point_key, name, "
                "workload, seed) VALUES (?, ?, ?, ?, ?, ?)",
                [(job_id, i, key, name, workload, seed)
                 for i, (key, name, workload, seed) in enumerate(points)])
            self._conn.commit()
        return job_id

    def set_job_state(self, job_id: int, state: str,
                      error: Optional[str] = None) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, error = ?, updated_at = ? "
                "WHERE id = ?", (state, error, time.time(), job_id))
            self._conn.commit()

    def delete_job(self, job_id: int) -> None:
        """Remove a row that never got admitted (queue-full reject after
        the insert) — a rejected submission must not be 'recovered'."""
        with self._lock:
            self._conn.execute("DELETE FROM job_points WHERE job_id = ?",
                               (job_id,))
            self._conn.execute("DELETE FROM jobs WHERE id = ?", (job_id,))
            self._conn.commit()

    def get_job(self, job_id: int) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        return dict(row) if row is not None else None

    def job_points(self, job_id: int) -> List[Dict[str, Any]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT ord, point_key, name, workload, seed "
                "FROM job_points WHERE job_id = ? ORDER BY ord",
                (job_id,)).fetchall()
        return [dict(row) for row in rows]

    def list_jobs(self, tenant: Optional[str] = None, limit: int = 100, *,
                  any_tenant: bool = False) -> List[Dict[str, Any]]:
        """Job summaries, newest first. ``tenant`` scopes to one tenant;
        ``tenant=None`` means *anonymous* jobs (``tenant IS NULL``) —
        tenants never see each other's jobs. ``any_tenant=True`` lifts
        the filter (operator tooling)."""
        query = ("SELECT id, state, priority, tenant, error, created_at, "
                 "updated_at FROM jobs")
        params: Tuple = ()
        if not any_tenant:
            if tenant is not None:
                query += " WHERE tenant = ?"
                params = (tenant,)
            else:
                query += " WHERE tenant IS NULL"
        query += " ORDER BY id DESC LIMIT ?"
        with self._lock:
            rows = self._conn.execute(query, params + (limit,)).fetchall()
        return [dict(row) for row in rows]

    def unfinished_jobs(self) -> List[Dict[str, Any]]:
        """Jobs to recover on startup, oldest first (FIFO within equal
        priority; the scheduler re-applies priority ordering anyway)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE state IN ('queued', 'running') "
                "ORDER BY id").fetchall()
        return [dict(row) for row in rows]

    def counts_by_state(self) -> Dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs "
                "GROUP BY state").fetchall()
        return {row["state"]: int(row["n"]) for row in rows}

    # -- results -------------------------------------------------------------

    def record_results(self, texts: Dict[str, str]) -> None:
        """Store result payloads by content hash, each given as its wire
        JSON text and stored as the compact :func:`canonical_json` bytes
        of the payload. Rows are immutable (a key always names the same
        canonical bytes), so only keys not yet stored are decoded and
        written, and a replay of stored results decodes, writes and
        commits nothing."""
        if not texts:
            return
        now = time.time()
        with self._lock:
            stored = {row[0] for row in self._result_rows("point_key",
                                                          list(texts))}
            rows = [(key, canonical_json(json.loads(text)), now)
                    for key, text in texts.items()
                    if key not in stored]
            if not rows:
                return
            self._conn.executemany(
                "INSERT OR IGNORE INTO results "
                "(point_key, payload, created_at) VALUES (?, ?, ?)", rows)
            self._conn.commit()

    def result_payloads(self, keys: Sequence[str]
                        ) -> Dict[str, Dict[str, Any]]:
        """Stored payloads for the given content hashes (missing keys
        are simply absent — callers fall back to the run cache)."""
        with self._lock:
            return {row["point_key"]: json.loads(row["payload"])
                    for row in self._result_rows(
                        "point_key, payload", list(dict.fromkeys(keys)))}

    def _result_rows(self, columns: str, keys: List[str]):
        """``results`` rows whose key is in ``keys``, queried in chunks
        under SQLite's bound-parameter limit (caller holds the lock)."""
        for i in range(0, len(keys), 500):
            chunk = keys[i:i + 500]
            marks = ",".join("?" * len(chunk))
            yield from self._conn.execute(
                f"SELECT {columns} FROM results "
                f"WHERE point_key IN ({marks})", chunk).fetchall()

    def result_count(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM results").fetchone()
        return int(row["n"])
