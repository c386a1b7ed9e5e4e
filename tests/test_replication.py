"""Replicated follower sessions: convergence, retries, reseed.

:mod:`repro.engine.replication` turns the ``delta_since`` contract
into a leader/follower protocol.  Pinned here:

- a follower bootstraps bit-identical content from the handshake and
  converges after arbitrary leader updates via coded delta pulls, on
  all three backends;
- the follower's *own* prepared queries stay live across syncs (the
  replica is a full session, not a passive mirror) — at every size
  and on every leader backend, over the in-process feed and over the
  HTTP replica transport;
- transient transport failures retry with exponential backoff
  (injectable sleep — the tests assert the actual delays) and give
  up with :class:`ReplicationError` when attempts or the time budget
  run out;
- a history barrier on the leader (bulk load, compaction, recovery)
  triggers the snapshot-reseed fallback instead of an error, and the
  reseed converges by diffing rather than reloading.
"""

import os

import pytest

from repro.db.database import Database
from repro.engine import connect
from repro.engine.replication import (
    FollowerSession,
    LeaderFeed,
    ReplicationError,
    TransientReplicationError,
)
from repro.query.parser import parse_query
from repro.semiring.semirings import COUNTING

BACKENDS = ("python", "columnar", "sharded")


class FlakyFeed:
    """Wraps a feed; every pull fails ``failures`` times first."""

    def __init__(self, feed, failures=0):
        self.feed = feed
        self.failures = failures
        self.calls = 0

    def handshake(self):
        return self.feed.handshake()

    def pull(self, stamps, dict_len):
        self.calls += 1
        if (self.calls - 1) % (self.failures + 1) < self.failures:
            raise TransientReplicationError("dropped connection")
        return self.feed.pull(stamps, dict_len)


def state(db):
    return {rel.name: set(map(tuple, rel)) for rel in db}


@pytest.mark.parametrize("backend", BACKENDS)
def test_follower_bootstraps_and_converges(backend):
    leader = connect(
        {"R": [(i, i + 1) for i in range(20)], "S": [(3, 7)]},
        backend=backend,
    )
    follower = FollowerSession(LeaderFeed(leader))
    assert follower.db.backend == backend
    assert state(follower.db) == state(leader.db)

    leader.add("R", (100, 101))
    leader.discard("R", (0, 1))
    leader.add("S", (9, 9))
    summary = follower.sync()
    assert summary["applied"] + summary["reseeded"] == 2
    assert state(follower.db) == state(leader.db)

    # idempotent when nothing changed
    follower.sync()
    assert state(follower.db) == state(leader.db)


def test_follower_prepared_queries_stay_live():
    leader = connect(
        {"R": [(1, 2), (2, 3)], "S": [(2, 9)]}, backend="columnar"
    )
    follower = FollowerSession(LeaderFeed(leader))
    answers = follower.prepare("q(x) :- R(x, y), S(y, z)").run()
    assert set(map(tuple, answers)) == {(1,)}
    leader.add("R", (7, 2))
    leader.add("S", (3, 0))
    follower.sync()
    assert set(map(tuple, answers)) == {(1,), (2,), (7,)}


TWO_PATH = "q(x, y, z) :- R(x, y), S(y, z)"
PATH_ROWS = {
    "R": [(i, i % 1000) for i in range(3000)],
    "S": [(j % 1000, 10_000 + j) for j in range(3000)],
}
JOINING_PAIR = {"R": (90_001, 90_002), "S": (90_002, 90_003)}


def _brute_force_after_pair():
    query = parse_query(TWO_PATH)
    db = Database.from_dict(PATH_ROWS)
    for name, row in JOINING_PAIR.items():
        db[name].add(row)
    return sorted(query.evaluate_brute_force(db))


@pytest.mark.parametrize("backend", BACKENDS)
def test_follower_answers_track_leader_at_scale(backend):
    """A follower's prepared query — opened *before* the leader's
    update — reads the update after ``sync()``: same ``len`` / page /
    aggregate as the leader and as brute force.  (With 6 000 tuples a
    follower session used to execute on a private columnar copy that
    ``sync()`` never touched, so it answered 9 000 forever.)"""
    leader = connect(PATH_ROWS, backend=backend)
    follower = FollowerSession(LeaderFeed(leader))
    answers = follower.prepare(TWO_PATH).run()
    assert len(answers) == 9000
    for name, row in JOINING_PAIR.items():
        leader.add(name, row)
    follower.sync()

    expected = _brute_force_after_pair()
    assert len(expected) == 9001
    for session in (leader, follower):
        # A fresh prepare and the long-lived handle must both be live.
        for live in (session.prepare(TWO_PATH).run(), answers):
            assert len(live) == len(expected)
            assert live.page(8990, 20) == expected[8990:9010]
            assert live.aggregate(COUNTING) == len(expected)


def test_http_follower_answers_track_leader_at_scale():
    """The same contract over the HTTP replica transport, against a
    python-backend tenant (the configuration that used to go stale)."""
    from repro.server import ServerClient, ServerThread

    with ServerThread() as server:
        client = ServerClient(server.host, server.port)
        try:
            client.create_db("lead", backend="python")
            for name, rows in PATH_ROWS.items():
                client.add("lead", name, rows)
            remote = client.prepare("lead", TWO_PATH)
            follower = connect(replica_of=client.replica_url("lead"))
            answers = follower.prepare(TWO_PATH).run()
            assert len(answers) == remote.count() == 9000
            for name, row in JOINING_PAIR.items():
                client.add("lead", name, [row])
            follower.sync()

            expected = _brute_force_after_pair()
            assert len(answers) == remote.count() == len(expected)
            page = expected[8990:9010]
            assert answers.page(8990, 20) == remote.page(8990, 20) == page
            assert (
                answers.aggregate(COUNTING)
                == remote.aggregate("counting")
                == len(expected)
            )
            follower.close()
        finally:
            client.close()


def test_new_leader_relation_reaches_the_follower():
    leader = connect({"R": [(1, 2)]}, backend="columnar")
    follower = FollowerSession(LeaderFeed(leader))
    leader.add("New", (5, 6))  # created after the handshake
    follower.sync()
    assert state(follower.db) == state(leader.db)


def test_reseed_after_leader_barrier():
    leader = connect({"R": [(1, 2), (2, 3)]}, backend="columnar")
    follower = FollowerSession(LeaderFeed(leader))
    live = follower.prepare("q(x, y) :- R(x, y)").run()
    # bulk load + compaction: a history barrier — the follower's
    # stamp now predates the leader's truncation point
    leader.db["R"].add_all([(i, 0) for i in range(200)])
    leader.db["R"].discard((1, 2))
    leader.db["R"].compact()
    summary = follower.sync()
    assert summary["reseeded"] == 1
    assert state(follower.db) == state(leader.db)
    assert len(live) == len(leader.db["R"])
    # the next pull is a plain delta again
    leader.add("R", (999, 999))
    assert follower.sync() == {"applied": 1, "reseeded": 0}
    assert state(follower.db) == state(leader.db)


def test_python_backend_always_reseeds_and_still_converges():
    leader = connect({"R": [(1, 2)]}, backend="python")
    follower = FollowerSession(LeaderFeed(leader))
    leader.add("R", (3, 4))  # every python mutation is a barrier
    summary = follower.sync()
    assert summary["reseeded"] == 1
    assert state(follower.db) == state(leader.db)


def test_transient_failures_retry_with_exponential_backoff():
    leader = connect({"R": [(1, 2)]}, backend="columnar")
    flaky = FlakyFeed(LeaderFeed(leader), failures=3)
    sleeps = []
    follower = FollowerSession(
        flaky, retries=5, backoff=0.01, sleep=sleeps.append
    )
    leader.add("R", (9, 9))
    follower.sync()
    assert state(follower.db) == state(leader.db)
    assert sleeps == [0.01, 0.02, 0.04]  # doubling per attempt


def test_retries_exhausted_raises_terminal_error():
    leader = connect({"R": [(1, 2)]}, backend="columnar")
    flaky = FlakyFeed(LeaderFeed(leader), failures=10)
    follower = FollowerSession(
        flaky, retries=3, backoff=0.0, sleep=lambda s: None
    )
    with pytest.raises(ReplicationError) as excinfo:
        follower.sync()
    assert "after 3 attempts" in str(excinfo.value)
    assert not isinstance(excinfo.value, TransientReplicationError)


def test_time_budget_cuts_retries_short():
    leader = connect({"R": [(1, 2)]}, backend="columnar")
    flaky = FlakyFeed(LeaderFeed(leader), failures=10)
    clock = {"now": 0.0}

    def fake_sleep(seconds):
        clock["now"] += seconds

    follower = FollowerSession(
        flaky,
        retries=50,
        backoff=1.0,
        timeout=2.5,
        sleep=fake_sleep,
        clock=lambda: clock["now"],
    )
    with pytest.raises(ReplicationError) as excinfo:
        follower.sync()
    assert "timed out" in str(excinfo.value)
    assert flaky.calls < 10  # the budget, not the retry cap, stopped it


def test_one_feed_serves_followers_at_different_positions():
    leader = connect({"R": [(1, 2)]}, backend="columnar")
    feed = LeaderFeed(leader)
    early = FollowerSession(feed)
    leader.add("R", (3, 4))
    late = FollowerSession(feed)
    assert state(late.db) == state(leader.db)
    assert state(early.db) != state(leader.db)
    early.sync()
    assert state(early.db) == state(leader.db)


def test_durable_leader_feeds_a_follower(tmp_path):
    """The pieces compose: a recovered durable session can lead."""
    path = str(tmp_path / "leader")
    session = connect(path=path, backend="columnar")
    for i in range(10):
        session.add("R", (i, i + 1))
    session.checkpoint()
    session.db.close()

    recovered = connect(path=path)
    follower = FollowerSession(LeaderFeed(recovered))
    assert state(follower.db) == state(recovered.db)
    recovered.add("R", (99, 100))
    follower.sync()
    assert state(follower.db) == state(recovered.db)
    recovered.db.close()


# ----------------------------------------------------------------------
# WAL-file cold catch-up (PR 7)
# ----------------------------------------------------------------------
def test_catchup_from_wal_files_lands_stamp_exact(tmp_path):
    """A follower bootstrapped from the leader's durable files holds
    bit-identical content *and* stamps, so the first live sync pulls
    an exact delta — never a reseed."""
    path = str(tmp_path / "leader")
    leader = connect(path=path, backend="columnar", sync="always")
    for i in range(40):
        leader.add("R", (i, i + 1))
    leader.db.checkpoint()
    for i in range(40, 60):
        leader.add("R", (i, i + 1))
    leader.db.rotate_wal()  # a sealed current-epoch segment
    for i in range(60, 70):
        leader.add("R", (i, i + 1))
    leader.db.flush()

    follower = FollowerSession(
        LeaderFeed(leader), catchup_path=path, catchup_batch=16
    )
    assert state(follower.db) == state(leader.db)
    assert follower._leader_stamps == {
        rel.name: rel.mutation_stamp for rel in leader.db
    }
    # the handoff: one post-bootstrap op arrives as a plain delta
    leader.add("R", (999, 999))
    assert follower.sync() == {"applied": 1, "reseeded": 0}
    assert state(follower.db) == state(leader.db)
    leader.db.close()


def test_catchup_without_feed_is_file_only(tmp_path):
    path = str(tmp_path / "leader")
    leader = connect(path=path, backend="columnar", sync="always")
    leader.add("R", (1, 2))
    leader.db.flush()
    follower = FollowerSession(catchup_path=path)
    assert state(follower.db) == state(leader.db)
    with pytest.raises(ReplicationError):
        follower.sync()  # no live feed to hand off to
    leader.db.close()


def test_catchup_needs_a_source():
    with pytest.raises(ValueError):
        FollowerSession()


def test_catchup_requires_a_durable_directory(tmp_path):
    with pytest.raises(ReplicationError):
        FollowerSession(catchup_path=str(tmp_path / "nothing-here"))


def test_connect_builds_a_catchup_follower(tmp_path):
    """``connect(path=..., replica_of=feed)`` wires the path through
    as the catch-up source and the retry knobs onto the follower."""
    path = str(tmp_path / "leader")
    leader = connect(path=path, backend="columnar", sync="always")
    for i in range(10):
        leader.add("R", (i, i))
    leader.db.flush()

    flaky = FlakyFeed(LeaderFeed(leader), failures=2)
    follower = connect(
        path=path,
        replica_of=flaky,
        retries=4,
        backoff=0.0,
        small_delta=1,
    )
    assert isinstance(follower, FollowerSession)
    assert follower.retries == 4
    assert follower.small_delta == 1
    # bootstrap came from files: the flaky transport was never called
    assert flaky.calls == 0
    assert state(follower.db) == state(leader.db)
    leader.add("R", (77, 77))
    follower._sleep = lambda s: None
    assert follower.sync() == {"applied": 1, "reseeded": 0}
    assert state(follower.db) == state(leader.db)
    leader.db.close()


def test_catchup_ignores_a_torn_wal_tail(tmp_path):
    """File catch-up stops at the valid prefix; the live feed covers
    the rest — including whatever the torn record held."""
    path = str(tmp_path / "leader")
    leader = connect(path=path, backend="columnar", sync="always")
    for i in range(20):
        leader.add("R", (i, i))
    leader.db.flush()
    # a half-flushed record at the tail of the leader's active WAL,
    # as a copying follower might observe mid-append
    wal = os.path.join(path, "wal-0.log")
    with open(wal, "ab") as handle:
        handle.write(b"\xc4\x57\x03garbage")

    follower = FollowerSession(LeaderFeed(leader), catchup_path=path)
    # a (possibly empty) delta per relation — but never a reseed
    summary = follower.sync()
    assert summary == {"applied": 1, "reseeded": 0}
    assert state(follower.db) == state(leader.db)
    leader.db.close()


# ----------------------------------------------------------------------
# transport failure classification (PR 9)
# ----------------------------------------------------------------------
class RefusingFeed:
    """Raises raw connection errors (not pre-wrapped transients)."""

    def __init__(self, feed, refusals, exc=ConnectionRefusedError):
        self.feed = feed
        self.refusals = refusals
        self.exc = exc
        self.calls = 0

    def handshake(self):
        return self.feed.handshake()

    def pull(self, stamps, dict_len):
        self.calls += 1
        if self.calls <= self.refusals:
            raise self.exc("connection refused")
        return self.feed.pull(stamps, dict_len)


class CorruptingFeed:
    """Returns structurally broken payloads (missing required keys)."""

    def __init__(self, feed):
        self.feed = feed
        self.calls = 0

    def handshake(self):
        return self.feed.handshake()

    def pull(self, stamps, dict_len):
        self.calls += 1
        payload = self.feed.pull(stamps, dict_len)
        for entry in payload["relations"]:
            entry.pop("stamp", None)  # every mode requires it
        return payload


@pytest.mark.parametrize(
    "exc", (ConnectionRefusedError, ConnectionResetError, TimeoutError)
)
def test_raw_connection_errors_are_retried_as_transient(exc):
    """A transport needn't pre-classify: refused/reset/timeout retry."""
    leader = connect({"R": [(1, 2)]}, backend="columnar")
    refusing = RefusingFeed(LeaderFeed(leader), refusals=2, exc=exc)
    sleeps = []
    follower = FollowerSession(
        refusing, retries=5, backoff=0.01, sleep=sleeps.append
    )
    leader.add("R", (5, 5))
    follower.sync()
    assert state(follower.db) == state(leader.db)
    assert sleeps == [0.01, 0.02]  # two refusals, two backoffs
    assert refusing.calls == 3


def test_raw_connection_errors_exhaust_into_terminal_error():
    leader = connect({"R": [(1, 2)]}, backend="columnar")
    refusing = RefusingFeed(LeaderFeed(leader), refusals=99)
    follower = FollowerSession(
        refusing, retries=3, backoff=0.0, sleep=lambda s: None
    )
    with pytest.raises(ReplicationError) as excinfo:
        follower.sync()
    assert not isinstance(excinfo.value, TransientReplicationError)
    assert refusing.calls == 3


def test_corrupt_payload_is_fatal_without_retry():
    """A payload that decodes but cannot apply must NOT be retried:
    re-pulling the same corrupt bytes cannot converge, and blind
    retries would mask real protocol bugs."""
    leader = connect({"R": [(1, 2)]}, backend="columnar")
    corrupting = CorruptingFeed(LeaderFeed(leader))
    follower = FollowerSession(
        corrupting, retries=5, backoff=0.01, sleep=lambda s: None
    )
    leader.add("R", (9, 9))
    with pytest.raises(ReplicationError) as excinfo:
        follower.sync()
    assert "corrupt" in str(excinfo.value)
    assert not isinstance(excinfo.value, TransientReplicationError)
    assert corrupting.calls == 1  # no retry on fatal classification
