"""Concurrent multi-reader access against a live update stream.

The serving layer multiplexes many reader threads over one session
while an ingestion stream mutates it; the session's read/write lock
(:class:`repro.util.locks.ReadWriteLock`) plus the per-prepared build
lock must make that safe *and* consistent.  For each backend, N
reader threads hammer ``page``/``count``/``aggregate`` while the main
thread streams insert-only updates, and every observation is checked
against the monotone contract:

- per-thread counts never decrease (insert-only stream, and a read
  can never observe a half-applied batch);
- every page is sorted, duplicate-free, and a subset of the final
  relation content (no torn rows, no phantoms);
- aggregate (counting) equals the count observed around it, bracketed
  by the counts read before and after;
- after the stream ends and threads join, every reader's final view
  agrees exactly with the oracle.

A page is one consistent read: a writer cannot commit between two rows
of one ``page()`` call (pinned deterministically and under a toggling
writer).
"""

import sys
import threading

import pytest

from repro.direct_access import LexDirectAccess
from repro.engine import connect
from repro.semiring import COUNTING

BACKENDS = ("python", "columnar", "sharded")

ROWS = 300
READERS = 4


def final_rows(n):
    return sorted({(i % 17, i % 13) for i in range(n)})


@pytest.mark.parametrize("backend", BACKENDS)
def test_readers_stay_consistent_during_update_stream(backend):
    kwargs = {"backend": backend}
    if backend == "sharded":
        kwargs["shard_count"] = 4
        kwargs["workers"] = 2
    session = connect(**kwargs)
    prepared = session.prepare(
        "q(x, y) :- E(x, y)", semiring=COUNTING
    )
    answers = prepared.run()
    expected = final_rows(ROWS)

    stop = threading.Event()
    failures = []

    def reader():
        last_count = 0
        try:
            while not stop.is_set():
                before = answers.count()
                assert before >= last_count, (
                    f"count went backwards: {last_count} -> {before}"
                )
                last_count = before

                page = answers.page(0, 50)
                assert page == sorted(set(page)), "page unsorted/dupes"
                assert set(page) <= set(expected), (
                    f"phantom rows: {set(page) - set(expected)}"
                )

                value = answers.aggregate()
                after = answers.count()
                assert before <= value <= after, (
                    f"aggregate {value} outside [{before}, {after}]"
                )
                last_count = max(last_count, after)
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    threads = [
        threading.Thread(target=reader, daemon=True)
        for _ in range(READERS)
    ]
    for thread in threads:
        thread.start()

    for i in range(ROWS):
        session.add("E", (i % 17, i % 13))
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    if failures:
        raise failures[0]

    assert answers.count() == len(expected)
    assert answers.page(0, len(expected) + 10) == expected
    session.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_bulk_writers_and_readers_interleave(backend):
    """``add_all`` batches (the server's ingestion path) vs readers."""
    kwargs = {"backend": backend}
    if backend == "sharded":
        kwargs["shard_count"] = 4
    session = connect(**kwargs)
    prepared = session.prepare("q(x, y) :- E(x, y)")
    answers = prepared.run()
    expected = final_rows(ROWS)

    stop = threading.Event()
    failures = []

    def reader():
        try:
            while not stop.is_set():
                page = answers.page(0, 1000)
                assert set(page) <= set(expected)
                assert page == sorted(set(page))
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=reader, daemon=True) for _ in range(2)
    ]
    for thread in threads:
        thread.start()

    batch = []
    for i in range(ROWS):
        batch.append((i % 17, i % 13))
        if len(batch) == 32:
            session.add_all("E", batch)
            batch = []
    if batch:
        session.add_all("E", batch)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    if failures:
        raise failures[0]
    assert answers.page(0, len(expected) + 10) == expected
    session.close()


PAGE_QUERY = "q(x, y, z) :- R(x, y), S(y, z)"


def _page_session(backend):
    # Adding R(0, 0) creates the lex-first answer (0, 0, 0), shifting
    # every row of every page by one.
    kwargs = {"backend": backend}
    if backend == "sharded":
        kwargs["shard_count"] = 4
    return connect(
        {
            "R": [(i, i % 5) for i in range(1, 60)],
            "S": [(j, j) for j in range(5)],
        },
        **kwargs,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_page_is_one_consistent_read(backend, monkeypatch):
    session = _page_session(backend)
    prepared = session.prepare(PAGE_QUERY)
    answers = prepared.run()
    before = answers.page(0, 20)
    assert len(before) == 20 and before[0] != (0, 0, 0)

    real_access_range = LexDirectAccess.access_range
    writers = []
    blocked = []

    def access_range_then_write(tree, *bounds):
        rows = real_access_range(tree, *bounds)
        if not writers:
            # With the page's rows computed but the page not yet
            # returned (the guard still held), a writer tries to land.
            writer = threading.Thread(
                target=session.add, args=("R", (0, 0)), daemon=True
            )
            writers.append(writer)
            writer.start()
            writer.join(timeout=0.3)
            blocked.append(writer.is_alive())
        return rows

    monkeypatch.setattr(
        LexDirectAccess, "access_range", access_range_then_write
    )
    page = answers.page(0, 20)
    # The writer waited for the whole page, which is the pre-update one.
    assert blocked == [True]
    assert page == before
    writers[0].join(timeout=30)
    assert not writers[0].is_alive()
    assert answers.page(0, 20) == [(0, 0, 0)] + before[:19]
    session.close()


def test_pages_are_never_torn_under_a_toggling_writer():
    session = _page_session("columnar")
    answers = session.prepare(PAGE_QUERY).run()
    without = answers.page(0, 20)
    consistent = (without, [(0, 0, 0)] + without[:19])

    stop = threading.Event()
    failures = []

    def toggler():
        try:
            while not stop.is_set():
                session.add("R", (0, 0))
                session.discard("R", (0, 0))
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    thread = threading.Thread(target=toggler, daemon=True)
    thread.start()
    try:
        pages = [answers.page(0, 20) for _ in range(40)]
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    if failures:
        raise failures[0]
    assert all(page in consistent for page in pages)
    session.close()


def test_repaired_cyclic_answers_are_never_torn_across_readers():
    # The cyclic family's shared matrix + row list is repaired in
    # place of a rebuild; READERS threads racing a toggling writer must
    # each see count, page and aggregate of one version — with or
    # without the triangles the toggled edge closes.
    edges = [(i, (i + 1) % 12) for i in range(12)]
    session = connect(
        {"R": edges, "S": edges, "T": [(2, 0), (5, 3), (9, 7)]},
        backend="columnar",
    )
    answers = session.prepare(
        "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"
    ).run()
    without = (len(answers), answers.page(0, 10), answers.aggregate(COUNTING))
    session.add("T", (7, 5))
    with_edge = (len(answers), answers.page(0, 10), answers.aggregate(COUNTING))
    assert with_edge[0] == without[0] + 1
    consistent = (without, with_edge)

    stop = threading.Event()
    failures = []

    def toggler():
        try:
            while not stop.is_set():
                session.discard("T", (7, 5))
                session.add("T", (7, 5))
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    def reader():
        try:
            for _ in range(60):
                # page + count under one guard hold is one version.
                with answers.prepared._serving_guard():
                    seen = (
                        len(answers),
                        answers.page(0, 10),
                        answers.aggregate(COUNTING),
                    )
                if seen not in consistent:
                    failures.append(AssertionError(f"torn read: {seen}"))
                    return
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=toggler, daemon=True)] + [
        threading.Thread(target=reader, daemon=True) for _ in range(READERS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads[1:]:
            thread.join(timeout=60)
    finally:
        stop.set()
        threads[0].join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if failures:
        raise failures[0]
    session.close()


def test_session_bulk_ops_match_singletons():
    bulk = connect(backend="columnar")
    single = connect(backend="columnar")
    rows = [(i, i % 7) for i in range(50)]
    bulk.add_all("R", rows)
    for row in rows:
        single.add("R", row)
    assert sorted(map(tuple, bulk.db["R"])) == sorted(
        map(tuple, single.db["R"])
    )
    bulk.discard_all("R", rows[:10])
    for row in rows[:10]:
        single.discard("R", row)
    assert sorted(map(tuple, bulk.db["R"])) == sorted(
        map(tuple, single.db["R"])
    )
    bulk.close()
    single.close()
