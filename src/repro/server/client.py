"""A stdlib client for the query service.

:class:`ServerClient` wraps one keep-alive
:class:`http.client.HTTPConnection` around the JSON API;
:class:`RemoteQuery` mirrors the :class:`~repro.engine.prepared.
AnswerSet` read surface (``page`` / ``count`` / ``aggregate`` /
``explain``) over a prepared handle, and :meth:`RemoteQuery.watch`
yields the SSE change stream as parsed events on a dedicated
connection.  Server-side failures surface as :class:`ServerError`
carrying the envelope's stable ``code``, so callers branch on
``exc.code == "parse_error"`` rather than on message prose.

Everything here is synchronous stdlib networking on purpose: the
client must be usable from tests, benchmarks, and plain scripts with
no event loop in sight.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["RemoteQuery", "ServerClient", "ServerError", "WatchEvent"]


class ServerError(Exception):
    """The JSON error envelope, rehydrated."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class WatchEvent:
    """One parsed SSE event from a ``watch`` stream."""

    __slots__ = ("id", "event", "data")

    def __init__(self, id: int, event: str, data: dict) -> None:
        self.id = id
        self.event = event
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WatchEvent(id={self.id}, {self.data})"


class ServerClient:
    """Keep-alive JSON client for one :class:`QueryServer`."""

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: Optional[Dict[str, str]] = None,
        encode_chunked: bool = False,
    ) -> Tuple[int, bytes]:
        conn = self._connection()
        try:
            conn.request(
                method,
                path,
                body=body,
                headers=headers or {},
                encode_chunked=encode_chunked,
            )
            response = conn.getresponse()
            return response.status, response.read()
        except (
            http.client.HTTPException,
            ConnectionError,
            socket.timeout,
            OSError,
        ):
            # A dropped keep-alive connection is retried once on a
            # fresh one; a second failure propagates.
            self.close()
            conn = self._connection()
            conn.request(
                method,
                path,
                body=body,
                headers=headers or {},
                encode_chunked=encode_chunked,
            )
            response = conn.getresponse()
            return response.status, response.read()

    def _json(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, raw = self._request(method, path, body, headers)
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError:
            raise ServerError(
                status, "bad_response", f"non-JSON response: {raw[:200]!r}"
            ) from None
        if status >= 400 or "error" in decoded:
            error = decoded.get("error", {})
            raise ServerError(
                status,
                error.get("code", "unknown"),
                error.get("message", raw.decode("utf-8", "replace")),
            )
        return decoded

    # ------------------------------------------------------------------
    # databases
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def databases(self) -> List[str]:
        return self._json("GET", "/v1/dbs")["databases"]

    def create_db(self, name: str, **config: Any) -> dict:
        return self._json("POST", f"/v1/db/{name}", config)

    def db_info(self, name: str) -> dict:
        return self._json("GET", f"/v1/db/{name}")

    def drop_db(self, name: str) -> dict:
        return self._json("DELETE", f"/v1/db/{name}")

    def replica_url(self, name: str) -> str:
        """The URL ``connect(replica_of=...)`` takes for this tenant."""
        return f"http://{self.host}:{self.port}/v1/replica/{name}"

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def prepare(
        self,
        db: str,
        query: str,
        order: Optional[List[str]] = None,
        semiring: Optional[str] = None,
    ) -> "RemoteQuery":
        spec: Dict[str, Any] = {"query": query}
        if order is not None:
            spec["order"] = list(order)
        if semiring is not None:
            spec["semiring"] = semiring
        info = self._json("POST", f"/v1/db/{db}/prepare", spec)
        return RemoteQuery(self, info)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update_stream(
        self, db: str, records: Iterable[dict]
    ) -> dict:
        """Stream update records as chunked NDJSON; waits for apply.

        Each record is ``{"op": "add"|"discard", "relation": name,
        "row": [...]}`` (``op`` defaults to ``add``).  The generator
        is consumed lazily, so the server applies early batches while
        later records are still being produced, and its bounded queue
        backpressures this upload through TCP.
        """

        def ndjson() -> Iterator[bytes]:
            for record in records:
                yield json.dumps(record).encode("utf-8") + b"\n"

        status, raw = self._request(
            "POST",
            f"/v1/db/{db}/updates",
            body=ndjson(),
            headers={
                "Content-Type": "application/x-ndjson",
                "Transfer-Encoding": "chunked",
            },
            encode_chunked=True,
        )
        decoded = json.loads(raw)
        if status >= 400 or "error" in decoded:
            error = decoded.get("error", {})
            raise ServerError(
                status,
                error.get("code", "unknown"),
                error.get("message", str(decoded)),
            )
        return decoded

    def add(self, db: str, relation: str, rows: Iterable) -> dict:
        return self.update_stream(
            db,
            (
                {"op": "add", "relation": relation, "row": list(row)}
                for row in rows
            ),
        )

    def discard(self, db: str, relation: str, rows: Iterable) -> dict:
        return self.update_stream(
            db,
            (
                {"op": "discard", "relation": relation, "row": list(row)}
                for row in rows
            ),
        )


class RemoteQuery:
    """The read surface of one prepared handle."""

    def __init__(self, client: ServerClient, info: dict) -> None:
        self.client = client
        self.info = info
        self.handle = info["handle"]

    def page(self, offset: int, limit: int) -> List[list]:
        payload = self.client._json(
            "GET",
            f"/v1/q/{self.handle}/page?offset={offset}&limit={limit}",
        )
        return [tuple(row) for row in payload["rows"]]

    def count(self) -> int:
        return self.client._json(
            "GET", f"/v1/q/{self.handle}/len"
        )["count"]

    def __len__(self) -> int:
        return self.count()

    def aggregate(self, semiring: Optional[str] = None) -> Any:
        path = f"/v1/q/{self.handle}/aggregate"
        if semiring is not None:
            path += f"?semiring={semiring}"
        value = self.client._json("GET", path)["value"]
        if value == "inf":
            return float("inf")
        if value == "-inf":
            return float("-inf")
        return value

    def explain(self) -> str:
        return self.client._json(
            "GET", f"/v1/q/{self.handle}/explain"
        )["explain"]

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    def watch(
        self,
        cursor: int = 0,
        timeout: Optional[float] = None,
    ) -> Iterator[WatchEvent]:
        """Yield change events; blocks between them (heartbeats skip).

        Runs on its own connection (the stream occupies it until the
        caller stops iterating or the socket times out).  ``cursor``
        resumes after a previously seen event id.
        """
        conn = http.client.HTTPConnection(
            self.client.host,
            self.client.port,
            timeout=timeout
            if timeout is not None
            else self.client.timeout,
        )
        try:
            conn.request(
                "GET", f"/v1/q/{self.handle}/watch?cursor={cursor}"
            )
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                try:
                    error = json.loads(raw)["error"]
                except (ValueError, KeyError):
                    error = {}
                raise ServerError(
                    response.status,
                    error.get("code", "unknown"),
                    error.get("message", raw.decode("utf-8", "replace")),
                )
            event_id = 0
            event_type = "message"
            data_lines: List[str] = []
            while True:
                raw_line = response.readline()
                if not raw_line:
                    return  # clean end of stream
                line = raw_line.rstrip(b"\r\n").decode("utf-8")
                if not line:
                    if data_lines:
                        yield WatchEvent(
                            event_id,
                            event_type,
                            json.loads("\n".join(data_lines)),
                        )
                    event_type = "message"
                    data_lines = []
                    continue
                if line.startswith(":"):
                    continue  # heartbeat comment
                field, _, value = line.partition(":")
                value = value.lstrip(" ")
                if field == "id":
                    event_id = int(value)
                elif field == "event":
                    event_type = value
                elif field == "data":
                    data_lines.append(value)
        finally:
            conn.close()
