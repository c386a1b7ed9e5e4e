"""Hand-rolled asyncio HTTP/1.1 plumbing for the query service.

Like the engine's other from-scratch subsystems (the WAL's record
framing, the checkpoint manifests), the network layer owns its wire
format instead of importing a framework: this module implements the
exact HTTP/1.1 subset the service needs — request-line + header
parsing, ``Content-Length`` and ``chunked`` request bodies (with an
incremental line iterator for NDJSON ingestion, so a large update
stream never sits in memory at once), keep-alive connection reuse,
fixed-length JSON/binary responses, and chunked streaming responses
for server-sent events.

Nothing here knows about sessions or tenants;
:mod:`repro.server.app` supplies the routes and handlers.  All limits
(line length, header count, body size) are explicit and raise
:class:`HttpError`, which the application layer renders as the JSON
error envelope.
"""

from __future__ import annotations

import asyncio
import json
from typing import AsyncIterator, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Hard parser limits; a request exceeding one is answered 400/431.
MAX_LINE = 16 * 1024
MAX_HEADERS = 128
DEFAULT_MAX_BODY = 64 * 1024 * 1024

REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol- or application-level failure with a stable code.

    ``status`` is the HTTP status, ``code`` the machine-readable slug
    that lands in the JSON error envelope (``{"error": {"code": ...,
    "message": ...}}``) so clients can branch without parsing prose.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class BodyReader:
    """Incremental reader for one request body.

    Handles both framings the parser accepts — ``Content-Length`` and
    ``Transfer-Encoding: chunked`` — behind two consumption styles:
    :meth:`read_all` for small JSON bodies and :meth:`iter_lines` for
    NDJSON streams (lines surface as soon as their bytes arrive, so
    the ingestion batcher applies updates while the client is still
    uploading, and a full batch queue propagates backpressure to the
    socket simply by not reading further).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        length: Optional[int],
        chunked: bool,
        limit: int = DEFAULT_MAX_BODY,
    ) -> None:
        self._reader = reader
        self._remaining = length
        self._chunked = chunked
        self._limit = limit
        self._consumed = 0
        self._chunk_left = 0
        self._done = length in (0, None) and not chunked

    @property
    def consumed(self) -> int:
        return self._consumed

    def _count(self, data: bytes) -> bytes:
        self._consumed += len(data)
        if self._consumed > self._limit:
            raise HttpError(
                413, "payload_too_large",
                f"request body exceeds {self._limit} bytes",
            )
        return data

    async def _read_block(self, size: int = 65536) -> bytes:
        """The next raw block of body bytes (b'' when exhausted)."""
        if self._done:
            return b""
        if self._chunked:
            return await self._read_chunked_block(size)
        take = min(size, self._remaining)
        data = await self._reader.read(take)
        if not data:
            raise HttpError(
                400, "truncated_body",
                "connection closed mid-body",
            )
        self._remaining -= len(data)
        if self._remaining == 0:
            self._done = True
        return self._count(data)

    async def _read_chunked_block(self, size: int) -> bytes:
        if self._chunk_left == 0:
            line = await _read_line(self._reader)
            # Tolerate the CRLF that terminates the previous chunk.
            if line == b"":
                line = await _read_line(self._reader)
            try:
                self._chunk_left = int(line.split(b";", 1)[0], 16)
            except ValueError:
                raise HttpError(
                    400, "bad_chunk", f"bad chunk size line {line!r}"
                ) from None
            if self._chunk_left == 0:
                # Trailer section: discard until the blank line.
                while await _read_line(self._reader):
                    pass
                self._done = True
                return b""
        take = min(size, self._chunk_left)
        data = await self._reader.read(take)
        if not data:
            raise HttpError(
                400, "truncated_body", "connection closed mid-chunk"
            )
        self._chunk_left -= len(data)
        return self._count(data)

    async def read_all(self) -> bytes:
        parts = []
        while True:
            block = await self._read_block()
            if not block:
                return b"".join(parts)
            parts.append(block)

    async def iter_lines(self) -> AsyncIterator[bytes]:
        """Yield ``\\n``-terminated lines (sans newline) as they land."""
        tail = b""
        while True:
            block = await self._read_block()
            if not block:
                break
            *lines, tail = (tail + block).split(b"\n")
            for line in lines:
                line = line.rstrip(b"\r")
                if line:
                    yield line
        tail = tail.strip()
        if tail:
            yield tail

    async def drain(self) -> None:
        """Discard whatever the handler left unread (keep-alive)."""
        while await self._read_block():
            pass


class Request:
    """One parsed request: line, headers, query string, body reader."""

    def __init__(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: BodyReader,
    ) -> None:
        self.method = method
        self.target = target
        parts = urlsplit(target)
        self.path = unquote(parts.path)
        self.query: Dict[str, str] = dict(
            parse_qsl(parts.query, keep_blank_values=True)
        )
        self.headers = headers
        self.body = body
        self.keep_alive = (
            headers.get("connection", "keep-alive").lower() != "close"
        )

    def int_param(self, name: str, default: Optional[int] = None) -> int:
        raw = self.query.get(name)
        if raw is None:
            if default is None:
                raise HttpError(
                    400, "bad_request", f"missing query parameter {name!r}"
                )
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(
                400, "bad_request",
                f"query parameter {name!r} must be an integer, got {raw!r}",
            ) from None

    async def json(self) -> dict:
        raw = await self.body.read_all()
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise HttpError(
                400, "bad_json", f"request body is not JSON: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise HttpError(
                400, "bad_json", "request body must be a JSON object"
            )
        return payload


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    line = await reader.readline()
    if len(line) > MAX_LINE:
        raise HttpError(431, "line_too_long", "request line too long")
    return line.rstrip(b"\r\n")


async def read_request(
    reader: asyncio.StreamReader, max_body: int = DEFAULT_MAX_BODY
) -> Optional[Request]:
    """Parse one request; ``None`` on clean EOF between requests."""
    line = await reader.readline()
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise HttpError(431, "line_too_long", "request line too long")
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(
            400, "bad_request_line", f"malformed request line {line!r}"
        ) from None
    if not version.startswith("HTTP/1."):
        raise HttpError(
            400, "bad_request_line", f"unsupported version {version!r}"
        )
    headers: Dict[str, str] = {}
    while True:
        raw = await _read_line(reader)
        if not raw:
            break
        if len(headers) >= MAX_HEADERS:
            raise HttpError(
                431, "too_many_headers", "too many request headers"
            )
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    chunked = "chunked" in headers.get("transfer-encoding", "").lower()
    length: Optional[int] = None
    if not chunked:
        raw_length = headers.get("content-length")
        if raw_length is not None:
            try:
                length = int(raw_length)
            except ValueError:
                raise HttpError(
                    400, "bad_request", "malformed Content-Length"
                ) from None
            if length < 0:
                # A negative length would make _read_block call
                # reader.read(-N) — read-until-EOF — hanging the
                # keep-alive connection and misframing the stream.
                raise HttpError(
                    400, "bad_request", "negative Content-Length"
                )
        else:
            length = 0
    body = BodyReader(reader, length, chunked, limit=max_body)
    return Request(method.upper(), target, headers, body)


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
def _head(
    status: int,
    headers: Tuple[Tuple[str, str], ...],
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_body(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str,
    keep_alive: bool,
) -> None:
    """A fixed-length response (the normal JSON / binary case)."""
    connection = "keep-alive" if keep_alive else "close"
    writer.write(
        _head(
            status,
            (
                ("Content-Type", content_type),
                ("Content-Length", str(len(body))),
                ("Connection", connection),
            ),
        )
    )
    writer.write(body)
    await writer.drain()


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: object,
    keep_alive: bool,
) -> None:
    body = json.dumps(payload, default=str).encode("utf-8")
    await send_body(
        writer, status, body, "application/json", keep_alive
    )


class ChunkedStream:
    """A chunked streaming response (the SSE transport).

    ``start()`` sends the header block, :meth:`send` writes one chunk
    and drains (so a slow consumer backpressures the producer), and
    :meth:`end` writes the terminal zero-chunk, letting well-behaved
    clients distinguish a clean stream end from a dropped connection.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        content_type: str = "text/event-stream",
    ) -> None:
        self._writer = writer
        self._content_type = content_type
        self._started = False

    async def start(self, status: int = 200) -> None:
        self._writer.write(
            _head(
                status,
                (
                    ("Content-Type", self._content_type),
                    ("Cache-Control", "no-cache"),
                    ("Transfer-Encoding", "chunked"),
                    ("Connection", "close"),
                ),
            )
        )
        self._started = True
        await self._writer.drain()

    async def send(self, data: bytes) -> None:
        if not data:
            return
        self._writer.write(
            b"%x\r\n%s\r\n" % (len(data), data)
        )
        await self._writer.drain()

    async def end(self) -> None:
        if self._started:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()
