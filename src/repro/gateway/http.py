"""Minimal asyncio HTTP/1.1 server plumbing for the gateway.

Stdlib only, same as the rest of the service stack — ``http.server`` is
synchronous and thread-per-request, which cannot share an event loop
with the :class:`~repro.service.core.ServiceCore` dispatchers, so the
gateway parses HTTP itself. Deliberately small: request-line + headers
+ ``Content-Length`` bodies, keep-alive, JSON responses, and chunked
transfer encoding for Server-Sent Events. No TLS (deploy behind a
terminating proxy), no multipart, no compression.

Hardening: every limit is explicit and every violation is a *typed* error response, never a hung
connection or an exception escaping to the accept loop —

* request line longer than :data:`MAX_REQUEST_LINE` → ``431``;
* more than :data:`MAX_HEADERS` headers or one longer than
  :data:`MAX_HEADER_LINE` → ``431``;
* body larger than :data:`MAX_BODY_BYTES` (or chunked upload, which the
  gateway does not accept) → ``413``;
* anything unparseable → ``400`` with a machine-readable ``code``.

Error bodies are always ``{"error": {"code", "message"}}`` — the
gateway's typed reject contract.

Every JSON body and SSE frame goes through one encoder, :func:`encode`:
``json.dumps(obj, sort_keys=True)``, except that result payloads
already held as wire JSON text (:class:`Payloads`) are spliced in as
they are, never decoded and encoded again. The bytes are the same.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.harness.reporting import wire_json

MAX_REQUEST_LINE = 8192
MAX_HEADER_LINE = 8192
MAX_HEADERS = 64
MAX_BODY_BYTES = 1024 * 1024  # requests are small grids, not uploads

REASONS = {
    200: "OK", 201: "Created", 204: "No Content",
    400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Content Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """A typed HTTP rejection; handlers raise it, the connection loop
    renders it. ``close=True`` additionally forces connection close
    (mandatory when the parser cannot resync, e.g. after 431/413)."""

    def __init__(self, status: int, code: str, message: str, *,
                 headers: Optional[Dict[str, str]] = None,
                 close: bool = False) -> None:
        super().__init__(f"{status} [{code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.headers = headers or {}
        self.close = close


class Request:
    """One parsed request. ``path`` is the decoded path, ``query`` the
    parsed query string, ``headers`` lower-cased."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, path: str, query: Dict[str, str],
                 headers: Dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> Dict[str, Any]:
        """The JSON object body (raises :class:`HttpError` 400 on
        malformed JSON or a non-object)."""
        if not self.body:
            return {}
        try:
            obj = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, "bad-json",
                            f"request body is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise HttpError(400, "bad-json",
                            "request body must be a JSON object")
        return obj

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def _read_line(reader: asyncio.StreamReader, limit: int,
                     what: str) -> bytes:
    """One CRLF-terminated line with an explicit length cap, mapped to
    431 on violation (the stream's own limit is set higher so we
    control the error, not the StreamReader)."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HttpError(431, "line-too-long",
                        f"{what} exceeds the stream limit", close=True)
    if len(line) > limit:
        raise HttpError(431, "line-too-long",
                        f"{what} longer than {limit} bytes", close=True)
    return line


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on clean EOF between requests.
    Raises :class:`HttpError` on any protocol violation."""
    line = await _read_line(reader, MAX_REQUEST_LINE, "request line")
    if not line:
        return None
    try:
        text = line.decode("ascii").rstrip("\r\n")
        method, target, version = text.split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "bad-request-line",
                        "malformed HTTP request line", close=True)
    if not version.startswith("HTTP/1."):
        raise HttpError(400, "bad-request-line",
                        f"unsupported protocol {version!r}", close=True)
    headers: Dict[str, str] = {}
    while True:
        raw = await _read_line(reader, MAX_HEADER_LINE, "header line")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise HttpError(400, "truncated-headers",
                            "connection closed inside headers", close=True)
        if len(headers) >= MAX_HEADERS:
            raise HttpError(431, "too-many-headers",
                            f"more than {MAX_HEADERS} headers", close=True)
        try:
            name, _, value = raw.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "bad-header", "undecodable header",
                            close=True)
        if not _ or not name.strip():
            raise HttpError(400, "bad-header",
                            f"malformed header line {raw[:64]!r}", close=True)
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding"):
        raise HttpError(413, "chunked-upload",
                        "chunked request bodies are not accepted "
                        "(send Content-Length)", close=True)
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad-header",
                            "Content-Length is not an integer", close=True)
        if length < 0:
            raise HttpError(400, "bad-header",
                            "negative Content-Length", close=True)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "body-too-large",
                            f"request body {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES}-byte limit", close=True)
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated-body",
                                "connection closed mid-body", close=True)

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(method.upper(), split.path or "/", query, headers, body)


class Payloads(list):
    """The result payloads of a reply: each item a payload ``dict`` or
    its wire JSON text (:func:`~repro.harness.reporting.wire_json`),
    which :func:`encode` splices in as is. A payload is always a JSON
    object, so a ``str`` item is never a string value."""


def _encode_value(value: Any) -> str:
    if type(value) is Payloads:
        return "[" + ", ".join(item if type(item) is str else wire_json(item)
                               for item in value) + "]"
    return wire_json(value)


def encode(obj: Any) -> str:
    """The one reply encoder: ``json.dumps(obj, sort_keys=True)``, with
    the :class:`Payloads` values of a top-level object spliced. The
    members are joined in sorted key order with the separators
    ``json.dumps`` uses, so the text is byte for byte what it gives
    ``obj`` with every payload decoded."""
    if type(obj) is dict and any(type(v) is Payloads for v in obj.values()):
        return "{" + ", ".join(f"{wire_json(key)}: {_encode_value(obj[key])}"
                               for key in sorted(obj)) + "}"
    return wire_json(obj)


def _head(status: int, headers: Dict[str, str]) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(writer: asyncio.StreamWriter, status: int, obj: Any, *,
                    keep_alive: bool = True,
                    headers: Optional[Dict[str, str]] = None) -> None:
    """One complete JSON response (the non-streaming reply path)."""
    body = encode(obj).encode("utf-8") + b"\n"
    head = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "keep-alive" if keep_alive else "close",
    }
    if headers:
        head.update(headers)
    writer.write(_head(status, head) + body)
    await writer.drain()


async def send_text(writer: asyncio.StreamWriter, status: int, text: str, *,
                    content_type: str = "text/plain; charset=utf-8",
                    keep_alive: bool = True,
                    headers: Optional[Dict[str, str]] = None) -> None:
    """One complete plain-text response (the /metrics exposition path)."""
    body = text.encode("utf-8")
    head = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "keep-alive" if keep_alive else "close",
    }
    if headers:
        head.update(headers)
    writer.write(_head(status, head) + body)
    await writer.drain()


async def send_error(writer: asyncio.StreamWriter, exc: HttpError, *,
                     keep_alive: bool = True) -> None:
    await send_json(writer, exc.status,
                    {"error": {"code": exc.code, "message": exc.message}},
                    keep_alive=keep_alive and not exc.close,
                    headers=exc.headers)


class SseStream:
    """A Server-Sent-Events response over chunked transfer encoding.

    ::

        sse = SseStream(writer)
        await sse.start()
        await sse.send({"event": "progress", ...})
        await sse.end()

    Each :meth:`send` emits one ``data: <json>\\n\\n`` frame as one HTTP
    chunk, flushed immediately — curl and EventSource render events as
    they happen. The stream always closes the connection (a terminated
    chunked response could keep-alive, but progress watchers are
    one-shot by nature and closing is the robust choice).
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer

    async def start(self) -> None:
        self._writer.write(_head(200, {
            "Content-Type": "text/event-stream",
            "Cache-Control": "no-store",
            "Transfer-Encoding": "chunked",
            "Connection": "close",
        }))
        await self._writer.drain()

    async def send(self, obj: Any) -> None:
        frame = b"data: " + encode(obj).encode("utf-8") + b"\n\n"
        self._writer.write(f"{len(frame):x}\r\n".encode("ascii") + frame
                           + b"\r\n")
        await self._writer.drain()

    async def end(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
