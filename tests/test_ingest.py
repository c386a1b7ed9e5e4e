"""The HTTP ingestion path below the sockets: NDJSON lines and batches.

- :meth:`repro.server.http.BodyReader.iter_lines` yields exactly the
  lines of ``body.split(b"\\n")`` (``\\r`` stripped, blank lines
  skipped, an unterminated last line kept), however the body's bytes
  are cut into reads and whichever framing carries them;
- :class:`repro.server.batcher.UpdateBatcher` is a group commit: a
  lone update is applied at once, a batch is what is queued when the
  drainer comes back (one ``(op, relation)`` run, at most
  ``flush_rows`` rows), and batches are applied and announced in
  arrival order.

Nothing here sleeps: the batcher runs against an ``async`` fake of the
engine pool that records its calls.
"""

import asyncio
import math
from collections import deque

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.server.batcher import UpdateBatcher
from repro.server.http import BodyReader


# ----------------------------------------------------------------------
# NDJSON line splitting
# ----------------------------------------------------------------------
class PieceReader:
    """A ``StreamReader`` stand-in that delivers ``data`` in pieces."""

    def __init__(self, data, cuts):
        self._pieces = deque(pieces(data, cuts))

    async def read(self, n):
        if not self._pieces:
            return b""
        piece = self._pieces.popleft()
        if len(piece) > n:
            self._pieces.appendleft(piece[n:])
        return piece[:n]

    async def readline(self):
        line = b""
        while self._pieces and not line.endswith(b"\n"):
            piece = self._pieces.popleft()
            cut = piece.find(b"\n") + 1 or len(piece)
            if cut < len(piece):
                self._pieces.appendleft(piece[cut:])
            line += piece[:cut]
        return line


def expected_lines(body):
    *lines, last = body.split(b"\n")
    kept = [line.rstrip(b"\r") for line in lines]
    return [line for line in kept if line] + (
        [last.strip()] if last.strip() else []
    )


def pieces(data, cuts):
    """``data`` cut at every offset of ``cuts`` inside it."""
    bounds = [0, *sorted({c for c in cuts if 0 < c < len(data)}), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def chunked_wire(body, cuts):
    frames = [b"%x\r\n%s\r\n" % (len(c), c) for c in pieces(body, cuts)]
    return b"".join(frames) + b"0\r\n\r\n"


def read_lines(body, chunked, wire_cuts, chunk_cuts=()):
    wire = chunked_wire(body, chunk_cuts) if chunked else body
    length = None if chunked else len(body)

    async def collect():
        reader = BodyReader(PieceReader(wire, wire_cuts), length, chunked)
        return [line async for line in reader.iter_lines()]

    return asyncio.run(collect())


TOKENS = [b"\n", b"\r", b"\r\n", b" ", b"a", b'{"relation": "E", "row": [1, 2]}']


@given(
    body=st.lists(st.sampled_from(TOKENS), max_size=60).map(b"".join),
    chunked=st.booleans(),
    data=st.data(),
)
def test_iter_lines_matches_split_on_any_cuts(body, chunked, data):
    cut = st.lists(st.integers(0, 2 * len(body) + 16), max_size=12)
    assert read_lines(
        body, chunked, data.draw(cut), data.draw(cut)
    ) == expected_lines(body)


@pytest.mark.parametrize("chunked", [False, True])
def test_iter_lines_matches_split_across_read_blocks(chunked):
    # 16 000 lines, ~620 KB in pieces and chunks larger than one
    # 64 KB read: lines are cut across reads.
    body = b"".join(
        b'{"relation": "E", "row": [%d, %d]}\r\n' % (i, i % 97)
        + (b"\n" if i % 1000 == 0 else b"")
        for i in range(16_000)
    ) + b'{"relation": "E", "row": [0, 0]}'
    cuts = range(0, len(body), 100_003)
    lines = read_lines(body, chunked, cuts, cuts)
    assert len(lines) == 16_001
    assert lines == expected_lines(body)


# ----------------------------------------------------------------------
# the group commit
# ----------------------------------------------------------------------
class NullSession:
    def add_all(self, relation, rows):
        pass

    def discard_all(self, relation, rows):
        pass


def recording_batcher(**kwargs):
    """A batcher over a fake engine pool that records every call."""
    calls = []

    async def run_blocking(fn, relation, rows):
        calls.append((fn.__name__.removesuffix("_all"), relation, rows))

    return UpdateBatcher(NullSession(), run_blocking, **kwargs), calls


def test_lone_update_is_applied_without_waiting():
    async def scenario():
        batcher, calls = recording_batcher()
        await batcher.put("add", "E", (1, 2))
        assert await asyncio.wait_for(batcher.barrier(), 0.02) == 1
        assert calls == [("add", "E", [(1, 2)])]
        await batcher.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("flush_rows", [1, 2, 3, 5, 256])
def test_queued_updates_apply_in_runs_capped_by_flush_rows(flush_rows):
    runs = [("add", "E", 7), ("discard", "E", 5), ("add", "E", 6), ("add", "F", 2)]
    records = [
        (op, relation, (index, i))
        for index, (op, relation, size) in enumerate(runs)
        for i in range(size)
    ]
    expected = []
    for index, (op, relation, size) in enumerate(runs):
        rows = [(index, i) for i in range(size)]
        expected += [
            (op, relation, rows[start : start + flush_rows])
            for start in range(0, size, flush_rows)
        ]
    assert len(expected) == sum(
        math.ceil(size / flush_rows) for _, _, size in runs
    )

    async def scenario():
        announced = []
        batcher, calls = recording_batcher(
            flush_rows=flush_rows,
            on_applied=lambda *batch: announced.append(batch),
        )
        # Nothing yields until the barrier: every record is queued
        # before the drainer first runs.
        for record in records:
            await batcher.put(*record)
        assert await batcher.barrier() == len(records)
        assert calls == expected
        assert announced == [
            (op, relation, len(rows)) for op, relation, rows in expected
        ]
        await batcher.close()

    asyncio.run(scenario())


def test_updates_queued_during_a_batch_form_the_next_batch():
    async def scenario():
        calls = []
        started, release = asyncio.Event(), asyncio.Event()

        async def run_blocking(fn, relation, rows):
            calls.append(rows)
            started.set()
            await release.wait()

        batcher = UpdateBatcher(NullSession(), run_blocking, flush_rows=4)
        await batcher.put("add", "E", (0,))
        await started.wait()  # the lone record is being applied
        for i in range(1, 7):
            await batcher.put("add", "E", (i,))
        release.set()
        await batcher.barrier()
        assert calls == [[(0,)], [(1,), (2,), (3,), (4,)], [(5,), (6,)]]
        await batcher.close()

    asyncio.run(scenario())
