"""The two client sessions the script drives: in-process and HTTP.

Both expose the same steps (``open`` → ``ingest`` → ``prepare`` →
``count`` / ``page`` / ``first`` / ``aggregate`` / ``scan`` →
``apply`` → ``close``) over the public API only: ``repro.connect`` /
``Session`` / ``AnswerSet`` on one side, ``ServerClient`` /
``RemoteQuery`` on the other.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from workloads import INGEST_CHUNK, UpdateStep, Workload, connect_kwargs

HEAD = ("x", "y", "z")
HTTP_SCAN_PAGE = 1000


def order_positions(order: Optional[Sequence[str]]) -> List[int]:
    """Head positions in paging-order significance."""
    return [HEAD.index(v) for v in (order or HEAD)]


class InProcessSession:
    """``connect`` → ``Session`` → ``AnswerSet``, durable when asked."""

    def __init__(self, spec: Workload, tmp_root: str, index: int) -> None:
        from repro.semiring.semirings import COUNTING, MAX_PLUS, MIN_PLUS

        self.spec = spec
        self.semirings = {
            "counting": COUNTING,
            "min-plus": MIN_PLUS,
            "max-plus": MAX_PLUS,
        }
        self.kwargs = connect_kwargs(spec)
        if spec.kind == "durable":
            self.kwargs["path"] = os.path.join(tmp_root, f"db{index}")
        self.session = None
        self.answers = None

    def open(self) -> None:
        from repro import connect

        self.session = connect(**self.kwargs)

    def ingest(self, data: Dict[str, list]) -> int:
        offered = 0
        for name, rows in data.items():
            for start in range(0, len(rows), INGEST_CHUNK):
                chunk = rows[start : start + INGEST_CHUNK]
                self.session.add_all(name, chunk)
                offered += len(chunk)
        return offered

    def prepare(self) -> None:
        self.answers = self.session.prepare(self.spec.query).run()

    def order(self) -> List[int]:
        return order_positions(self.answers.plan.order)

    def count(self) -> int:
        return len(self.answers)

    def page(self, offset: int, size: int) -> list:
        return self.answers.page(offset, size)

    def first(self, k: int) -> list:
        return self.answers.first(k)

    def aggregate(self, semiring: str):
        return self.answers.aggregate(self.semirings[semiring])

    def scan(self, rows: int) -> int:
        """Read ``rows`` answers, re-iterating from the start as needed."""
        read = 0
        while read < rows:
            before = read
            for _ in self.answers:
                read += 1
                if read == rows:
                    break
            if read == before:
                break  # empty answer set
        return read

    def apply(self, step: UpdateStep) -> None:
        if step.op == "add_all":
            self.session.add_all(step.relation, list(step.rows))
        elif step.op == "add":
            self.session.add(step.relation, step.rows[0])
        else:
            self.session.discard(step.relation, step.rows[0])

    def checkpoint(self) -> None:
        self.session.checkpoint()

    def reader(self) -> "InProcessSession":
        return self

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class HttpSession:
    """One tenant of the server child, over one keep-alive connection."""

    def __init__(
        self,
        spec: Workload,
        port: int,
        index: int,
        body: Optional[bytes] = None,
        name: Optional[str] = None,
    ) -> None:
        from repro.server import ServerClient

        self.spec = spec
        self.port = port
        self.db = name or f"round{index}"
        self.body = body
        self.client = ServerClient("127.0.0.1", port)
        self.query = None
        self.owner = True

    def open(self) -> None:
        self.client.create_db(self.db)

    def ingest(self, data: Dict[str, list]) -> int:
        # One pre-encoded NDJSON POST with Content-Length; there is no
        # public client call that takes bytes, so this uses the
        # client's request plumbing directly.
        status, raw = self.client._request(
            "POST",
            f"/v1/db/{self.db}/updates",
            body=self.body if self.body is not None else encode_ndjson(data),
            headers={"Content-Type": "application/x-ndjson"},
        )
        reply = json.loads(raw)
        if status >= 400 or "error" in reply:
            raise RuntimeError(f"ingest refused: {status} {reply}")
        return reply["accepted"]

    def prepare(self) -> None:
        self.query = self.client.prepare(self.db, self.spec.query)

    def order(self) -> List[int]:
        return order_positions(self.query.info.get("order"))

    def count(self) -> int:
        return self.query.count()

    def page(self, offset: int, size: int) -> list:
        return self.query.page(offset, size)

    def aggregate(self, semiring: str):
        return self.query.aggregate(semiring)

    def scan(self, rows: int) -> int:
        """Sequential 1000-row pages from the start, wrapping at the end."""
        read = offset = 0
        while read < rows:
            page = self.query.page(offset, min(HTTP_SCAN_PAGE, rows - read))
            if not page:
                if offset == 0:
                    break
                offset = 0
                continue
            read += len(page)
            offset += len(page)
        return read

    def apply(self, step: UpdateStep) -> None:
        if step.op == "discard":
            self.client.discard(self.db, step.relation, step.rows)
        else:
            self.client.add(self.db, step.relation, step.rows)

    def reader(self) -> "HttpSession":
        """The same prepared handle over a connection of its own."""
        from repro.server import RemoteQuery

        other = HttpSession(self.spec, self.port, 0, name=self.db)
        other.owner = False
        other.query = RemoteQuery(other.client, self.query.info)
        return other

    def close(self) -> None:
        if self.owner and self.query is not None:
            self.client.drop_db(self.db)
            self.query = None
        self.client.close()


def encode_ndjson(data: Dict[str, list]) -> bytes:
    """The ingest body: one ``{"relation", "row"}`` line per tuple."""
    dumps = json.dumps
    return b"".join(
        dumps({"relation": name, "row": row}).encode("utf-8") + b"\n"
        for name, rows in data.items()
        for row in rows
    )


class ServerProcess:
    """``serve.py`` as a child; stopped and reaped on every exit path."""

    def __init__(self, env: Dict[str, str], cpu: Optional[int] = None) -> None:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py")
        self.child = subprocess.Popen(
            [sys.executable, script] + ([] if cpu is None else [str(cpu)]),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        line = self.child.stdout.readline()
        if not line.strip():
            self.stop()
            raise RuntimeError("server child exited before printing its port")
        self.port = int(line)
        self.pid = self.child.pid

    def status_value(self, field: str) -> int:
        """An integer field of ``/proc/<pid>/status`` (kB for Vm*)."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise KeyError(field)

    def cpu_seconds(self) -> float:
        """utime + stime of the server, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        child = self.child
        if child.poll() is None:
            child.stdin.close()
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
        child.wait()
        child.stdout.close()
