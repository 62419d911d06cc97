"""Synchronous HTTP client for the gateway — stdlib ``http.client``.

Used by ``esp-nuca submit``, tests, the smoke tools and the benchmark,
and small enough to read as API documentation. One client holds one
keep-alive connection, over TCP (``http://host:port``) or a unix
socket (``unix:/path``); typed error replies raise
:class:`GatewayError` carrying the HTTP status and machine ``code`` so
callers branch on ``exc.code == "rate-limited"`` instead of
string-matching messages.

::

    client = GatewayClient("http://127.0.0.1:8643", api_key=key)
    job = client.submit(["esp-nuca"], ["apache"])["job"]
    for event in client.events(job):      # SSE stream
        ...
    results = payloads_to_results(client.results(job)["results"])
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import urlsplit

from repro.sim.results import SimResult

#: Port of ``host``-only addresses (the gateway's default bind).
DEFAULT_PORT = 8643


def parse_address(text: str):
    """``host:port`` or ``unix:/path`` → ``("tcp", host, port)`` /
    ``("unix", path)`` (the gateway's ``--http`` bind and client
    forms)."""
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError("unix address needs a path: unix:/some/socket")
        return ("unix", path)
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = text, str(DEFAULT_PORT)
    if not host:
        host = "127.0.0.1"
    try:
        return ("tcp", host, int(port))
    except ValueError:
        raise ValueError(f"bad address {text!r}: expected host:port or "
                         f"unix:/path") from None


def payloads_to_results(payloads: List[Dict[str, Any]]) -> List[SimResult]:
    """Rebuild full :class:`SimResult` objects from result payloads."""
    out = []
    for payload in payloads:
        result = SimResult.from_dict(payload)
        if result is None:
            raise ValueError("result payload does not match the current "
                             "SimResult schema (server/client skew?)")
        out.append(result)
    return out


class UnixHTTPConnection(http.client.HTTPConnection):
    """An :class:`http.client.HTTPConnection` over an ``AF_UNIX``
    stream socket (the gateway's ``--http unix:/path`` bind)."""

    def __init__(self, path: str, timeout: Optional[float] = None) -> None:
        super().__init__("localhost", timeout=timeout)
        self.socket_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self.sock = sock


class GatewayError(Exception):
    """A typed error response (4xx/5xx with an ``error`` object)."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status} [{code}] {message}")
        self.status = status
        self.code = code
        self.detail = message
        self.retry_after = retry_after


class GatewayClient:
    """One keep-alive connection to a running gateway."""

    def __init__(self, base_url: str, api_key: Optional[str] = None,
                 timeout: float = 120.0) -> None:
        if base_url.startswith("unix:"):
            self.address = parse_address(base_url)
        else:
            split = urlsplit(base_url)
            if split.scheme != "http" or not split.hostname:
                raise ValueError(f"base_url must be http://host:port or "
                                 f"unix:/path, got {base_url!r}")
            self.address = ("tcp", split.hostname, split.port or 80)
        self.api_key = api_key
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    @classmethod
    def wait_until_ready(cls, base_url: str, timeout: float = 60.0,
                         proc=None, api_key: Optional[str] = None
                         ) -> "GatewayClient":
        """Bounded retry/backoff until ``GET /healthz`` answers — the
        supported way to wait for a freshly spawned gateway; ``proc``
        (its ``Popen``) fails fast when the server process dies
        first."""
        deadline = time.monotonic() + timeout
        delay = 0.05
        while True:
            if proc is not None and proc.poll() is not None:
                raise ConnectionError(
                    f"gateway process exited with code {proc.returncode} "
                    f"before becoming ready")
            client = cls(base_url, api_key=api_key)
            try:
                client.health()
                return client
            except (OSError, GatewayError, ConnectionError) as exc:
                client.close()
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"gateway at {base_url} not ready within "
                        f"{timeout:.0f}s: {exc}") from exc
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2, 1.0)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _new_connection(self) -> http.client.HTTPConnection:
        if self.address[0] == "unix":
            return UnixHTTPConnection(self.address[1], timeout=self.timeout)
        _, host, port = self.address
        return http.client.HTTPConnection(host, port, timeout=self.timeout)

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = self._new_connection()
        return self._conn

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _roundtrip(self, method: str, path: str,
                   body: Optional[Dict[str, Any]] = None):
        """One request over the keep-alive connection; returns
        ``(response, raw_bytes)``. Retries once on a stale socket."""
        payload = None
        headers = self._headers()
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, OSError):
                self.close()
                if attempt:
                    raise
        return resp, data

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One request/JSON reply; raises :class:`GatewayError` on a
        typed error status. Retries once on a stale keep-alive socket."""
        resp, data = self._roundtrip(method, path, body)
        return self._decode(resp.status, resp, data)

    def request_text(self, method: str, path: str) -> str:
        """Like :meth:`request` but returns the raw body text (the
        /metrics exposition document is not JSON); still raises a typed
        :class:`GatewayError` on error statuses."""
        resp, data = self._roundtrip(method, path)
        if resp.status >= 400:
            self._decode(resp.status, resp, data)
        return data.decode("utf-8")

    @staticmethod
    def _decode(status: int, resp, data: bytes) -> Dict[str, Any]:
        try:
            obj = json.loads(data.decode("utf-8")) if data else {}
        except ValueError:
            obj = {}
        if status >= 400:
            err = obj.get("error") or {}
            retry = resp.getheader("Retry-After")
            raise GatewayError(status, err.get("code", "unknown"),
                               err.get("message", f"HTTP {status}"),
                               retry_after=float(retry) if retry else None)
        return obj

    # -- endpoints -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def readyz(self) -> Dict[str, Any]:
        """The readiness verdict ``{"ready": bool, "checks": {...}}``.
        Unlike :meth:`request`, a 503 (not ready) is a *answer*, not an
        error — the body is returned either way."""
        resp, data = self._roundtrip("GET", "/readyz")
        try:
            obj = json.loads(data.decode("utf-8")) if data else {}
        except ValueError:
            obj = {}
        if not isinstance(obj, dict):
            obj = {}
        obj.setdefault("ready", resp.status == 200)
        return obj

    def metrics(self) -> str:
        """The Prometheus text exposition document from ``/metrics``."""
        return self.request_text("GET", "/metrics")

    def openapi(self) -> Dict[str, Any]:
        return self.request("GET", "/openapi.json")

    def status(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/status")

    def submit(self, architectures: List[str], workloads: List[str],
               seeds: Optional[List[int]] = None,
               settings: Optional[Dict[str, Any]] = None,
               priority: int = 0, check: int = 0,
               trace: bool = False) -> Dict[str, Any]:
        """Submit a grid; returns the admitted job snapshot (with
        ``results`` when the grid was served entirely from cache).
        ``check=N`` runs the points with the invariant checker sweeping
        every Nth access; ``trace=True`` captures the job's event trace
        (one traced job at a time — fetch it with :meth:`trace`)."""
        body: Dict[str, Any] = {"architectures": architectures,
                                "workloads": workloads,
                                "priority": priority}
        if seeds is not None:
            body["seeds"] = seeds
        if settings is not None:
            body["settings"] = settings
        if check:
            body["check"] = check
        if trace:
            body["trace"] = True
        return self.request("POST", "/v1/jobs", body)

    def jobs(self, limit: int = 100) -> List[Dict[str, Any]]:
        return self.request("GET", f"/v1/jobs?limit={limit}")["jobs"]

    def job(self, job_id: str, points: bool = False) -> Dict[str, Any]:
        suffix = "?points=1" if points else ""
        return self.request("GET", f"/v1/jobs/{job_id}{suffix}")

    def results(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}/results")

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The Chrome-trace JSON of a terminal traced job."""
        return self.request("GET", f"/v1/jobs/{job_id}/trace")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job is terminal; returns the final snapshot."""
        deadline = time.monotonic() + timeout
        while True:
            snap = self.job(job_id)
            if snap["state"] in ("done", "failed", "cancelled"):
                return snap
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {snap['state']} "
                                   f"after {timeout:.0f}s")
            time.sleep(poll)

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream SSE frames for a job until the ``end`` frame (the
        server closes the connection after it). Uses a dedicated
        connection — the stream consumes it."""
        conn = self._new_connection()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events",
                         headers=self._headers())
            resp = conn.getresponse()
            if resp.status >= 400:
                raise self._error_from_stream(resp)
            buffer = b""
            while True:
                chunk = resp.read(4096)
                if not chunk and b"\n\n" not in buffer:
                    return
                buffer += chunk
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    for line in frame.splitlines():
                        if line.startswith(b"data: "):
                            event = json.loads(line[6:].decode("utf-8"))
                            yield event
                            if event.get("event") == "end":
                                return
        finally:
            conn.close()

    @staticmethod
    def _error_from_stream(resp) -> GatewayError:
        try:
            obj = json.loads(resp.read().decode("utf-8"))
            err = obj.get("error") or {}
        except ValueError:
            err = {}
        return GatewayError(resp.status, err.get("code", "unknown"),
                            err.get("message", f"HTTP {resp.status}"))
