"""Replicated follower sessions over the delta-segment protocol.

The consistency contract that keeps prepared queries live under
updates — ``mutation_stamp`` plus exact-net ``delta_since`` — is
already a replication protocol in disguise: a follower that remembers
the leader's stamp per relation can ask for precisely the tuples it
is missing.  This module makes that literal with two halves:

- :class:`LeaderFeed` — the leader-side tap.  ``handshake()`` ships a
  full seed (backend, shard layout, the shared dictionary's values in
  code order, and every relation's exact ``snapshot_state``);
  ``pull(stamps, dict_len)`` ships the *suffix*: new dictionary
  values plus, per relation, the net coded ``(inserted, deleted)``
  since the follower's stamp.  When the follower's stamp predates a
  history barrier (compaction, bulk load, recovery) the leader
  answers with a **reseed** payload — the relation's full merged
  content — instead of failing the pull.

- :class:`FollowerSession` — a complete read-only replica: its own
  :class:`~repro.db.database.Database` (same backend as the leader,
  dictionary replicated in leader code order, so coded payloads apply
  without decoding) fronted by an ordinary
  :class:`~repro.engine.session.Session`, so followers prepare and
  serve queries exactly like the leader.  ``sync()`` performs one
  replication round; transport calls retry with exponential backoff
  on :class:`TransientReplicationError` (the sleep and clock are
  injectable, so tests exercise flaky transports deterministically)
  and give up with :class:`ReplicationError` once attempts or the
  time budget run out.

The transport is a callable boundary, not a socket: wrap a
:class:`LeaderFeed` in anything that can move its plain-data payloads
(pickle them over a pipe, JSON-ish them over HTTP) and hand the
wrapper to the follower.  Flakiness is modeled by raising
:class:`TransientReplicationError` from the wrapper.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.db.database import Database
from repro.db.interface import TruncatedHistoryError
from repro.engine.session import Session

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "DEFAULT_SMALL_DELTA",
    "FollowerSession",
    "LeaderFeed",
    "ReplicationError",
    "ReplicationTransport",
    "TransientReplicationError",
]

#: At or below this many changed rows a pull applies per-op
#: (``apply_coded``), preserving per-tuple history on the follower so
#: *its* prepared structures maintain incrementally; above it, bulk
#: batches are cheaper and the structures rebuild once.  Overridable
#: per follower via ``small_delta=`` (and through
#: ``connect(replica_of=..., small_delta=...)``).
DEFAULT_SMALL_DELTA = 64
SMALL_DELTA = DEFAULT_SMALL_DELTA  # backwards-compatible alias

#: Default transport retry budget: attempts per call, and the first
#: retry's sleep (doubling each attempt).  Overridable per follower
#: via ``retries=`` / ``backoff=`` / ``timeout=`` — also exposed as
#: ``connect()`` kwargs, so sessions configure their replicas without
#: reaching into this module.
DEFAULT_RETRIES = 5
DEFAULT_BACKOFF = 0.01


class ReplicationError(RuntimeError):
    """Replication failed and will not succeed by retrying."""


class TransientReplicationError(ReplicationError):
    """A retryable transport failure (timeout, dropped connection)."""


def _rows_of(codes: Union[np.ndarray, tuple, list]) -> List[tuple]:
    return [tuple(r) for r in np.asarray(codes, dtype=np.int64).tolist()]


class ReplicationTransport:
    """The explicit transport seam of the replication protocol.

    Exactly two calls, both returning plain-data payloads:

    - :meth:`handshake` — the full seed a fresh follower bootstraps
      from (backend, shard layout, dictionary in code order, every
      relation's content and stamp);
    - :meth:`pull` — the suffix since the follower's per-relation
      stamps and dictionary length.

    :class:`LeaderFeed` is the in-process implementation (it *is* the
    leader);
    :class:`repro.server.transport.HttpReplicaTransport` moves the
    same payloads over HTTP, so ``connect(replica_of=...)`` accepts
    either interchangeably — one follower code path, two wires.

    Failure classification contract: raise
    :class:`TransientReplicationError` (or let a builtin
    ``ConnectionError`` / ``TimeoutError`` / ``OSError`` escape) for
    failures a retry can fix — a refused or dropped connection, a
    timeout; raise :class:`ReplicationError` for failures it cannot —
    a corrupt or undecodable payload, a leader that does not serve
    this database.  :meth:`FollowerSession.sync` retries the former
    with exponential backoff and surfaces the latter immediately.
    """

    def handshake(self) -> Dict[str, Any]:
        raise NotImplementedError

    def pull(
        self, stamps: Dict[str, int], dict_len: int
    ) -> Dict[str, Any]:
        raise NotImplementedError


class LeaderFeed(ReplicationTransport):
    """The leader-side replication tap over a session (or database).

    Stateless between calls: everything a pull needs — the follower's
    per-relation stamps and dictionary length — arrives as arguments,
    so one feed serves any number of followers at different positions.
    """

    def __init__(self, leader: Union[Session, Database]) -> None:
        self.db = leader.db if isinstance(leader, Session) else leader

    # ------------------------------------------------------------------
    # payload builders
    # ------------------------------------------------------------------
    def _seed_entry(self, rel) -> Dict[str, Any]:
        """A full-content entry (handshake seed or reseed fallback)."""
        return {
            "name": rel.name,
            "arity": rel.arity,
            "mode": "seed",
            "content": np.ascontiguousarray(rel.codes(), dtype=np.int64),
            "stamp": rel.mutation_stamp,
        }

    def handshake(self) -> Dict[str, Any]:
        """The full seed payload a fresh follower bootstraps from."""
        dictionary = self.db.dictionary.values()[:]
        return {
            "backend": self.db.backend,
            "shard_count": self.db.shard_count,
            "dict_values": dictionary,
            "dict_len": len(dictionary),
            "relations": [self._seed_entry(rel) for rel in self.db],
        }

    def pull(
        self, stamps: Dict[str, int], dict_len: int
    ) -> Dict[str, Any]:
        """The suffix since ``stamps``: dict growth plus net deltas.

        Relations the follower has never seen (created on the leader
        after the handshake) ship as seed entries; relations whose
        history was truncated by a barrier ship as reseed entries —
        the follower diffs, it never errors.
        """
        dict_suffix = self.db.dictionary.values()[dict_len:]
        relations: List[Dict[str, Any]] = []
        for rel in self.db:
            stamp = stamps.get(rel.name)
            if stamp is None:
                relations.append(self._seed_entry(rel))
                continue
            try:
                inserted, deleted = rel.delta_since(stamp)
            except TruncatedHistoryError:
                entry = self._seed_entry(rel)
                entry["mode"] = "reseed"
                relations.append(entry)
                continue
            relations.append(
                {
                    "name": rel.name,
                    "arity": rel.arity,
                    "mode": "delta",
                    "inserted": inserted,
                    "deleted": deleted,
                    "stamp": rel.mutation_stamp,
                }
            )
        return {
            "dict_values": dict_suffix,
            "dict_len": dict_len + len(dict_suffix),
            "relations": relations,
        }


class FollowerSession:
    """A read-only replica session fed by a :class:`LeaderFeed`.

    ``feed`` is the leader tap (or any transport wrapper with the
    same ``handshake``/``pull`` surface).  ``retries`` bounds the
    attempts per transport call; ``backoff`` is the first retry's
    sleep, doubling each attempt; ``timeout`` (seconds, optional)
    caps the *total* time a call may spend retrying.  ``small_delta``
    is the per-op/bulk application threshold (default
    :data:`DEFAULT_SMALL_DELTA`).  ``sleep`` and ``clock`` exist for
    deterministic tests.  All of these are also reachable as
    ``connect()`` kwargs — followers are configured per session, not
    by editing module constants.

    **WAL-file catch-up**: with ``catchup_path`` naming the leader's
    durable directory (or a copy of it — any filesystem view works),
    the follower bootstraps *without* a handshake: it composes the
    leader's newest checkpoint chain, then streams the current
    epoch's sealed WAL segments and active WAL in bounded-memory
    batches of ``catchup_batch`` records.  Because WAL replay
    reproduces ``mutation_stamp`` sequences exactly, the follower
    lands on a stamp-exact boundary and the first :meth:`sync`
    against the live ``feed`` pulls precisely the ops that arrived
    after the files were read — no reseed, no overlap.  For a large
    backlog this is far faster than a live handshake (bulk
    ``np.load`` + coded batches instead of per-tuple seeding).

    The replica is complete: ``session`` (also reachable through
    :meth:`prepare` / :meth:`execute`) serves prepared queries over
    the replicated data, and each :meth:`sync` flows through the
    relations' ordinary mutation surface, so those queries stay live
    exactly as they do on the leader.
    """

    def __init__(
        self,
        feed=None,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        timeout: Optional[float] = None,
        sleep: Callable[[float], None] = None,
        clock: Callable[[], float] = None,
        small_delta: Optional[int] = None,
        catchup_path: Optional[str] = None,
        catchup_batch: int = 4096,
    ) -> None:
        import time

        if feed is None and catchup_path is None:
            raise ValueError(
                "FollowerSession needs a feed, a catchup_path, or both"
            )
        self._feed = feed
        self.retries = max(1, int(retries))
        self.backoff = backoff
        self.timeout = timeout
        self.small_delta = (
            DEFAULT_SMALL_DELTA if small_delta is None else small_delta
        )
        self._sleep = sleep if sleep is not None else time.sleep
        self._clock = clock if clock is not None else time.monotonic
        self._dict_len = 0
        self._leader_stamps: Dict[str, int] = {}
        if catchup_path is not None:
            self._bootstrap_from_files(catchup_path, catchup_batch)
            self.session = Session(self.db)
            return
        seed = self._call("handshake", feed.handshake)
        try:
            self.db = Database(
                backend=seed["backend"], shard_count=seed["shard_count"]
            )
            self._grow_dictionary(seed["dict_values"], seed["dict_len"])
        except ReplicationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(
                f"corrupt handshake payload: {exc}"
            ) from exc
        self.session = Session(self.db)
        try:
            for entry in seed["relations"]:
                self._apply_entry(entry)
        except ReplicationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(
                f"corrupt handshake payload: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # cold catch-up from the leader's WAL files
    # ------------------------------------------------------------------
    def _bootstrap_from_files(self, root: str, batch: int) -> None:
        import os

        from repro.db import checkpoint as ckpt
        from repro.db.database import replay_records
        from repro.db.wal import iter_records

        manifest = ckpt.read_manifest(root)
        if manifest is None:
            raise ReplicationError(
                f"no durable manifest under {root!r} to catch up from"
            )
        self.db = Database(
            backend=manifest["backend"],
            shard_count=manifest["shard_count"],
        )
        verifier = ckpt.Verifier(root, manifest.get("files") or {})
        index = manifest["checkpoint"]
        if index is not None:
            meta = ckpt.read_meta(root, index, verifier)
            ckpt.seed_dictionary(
                self.db._dictionary, root, meta, verifier
            )
            for entry in meta["relations"]:
                rel = ckpt.load_relation(
                    root, entry, self.db._dictionary, verifier
                )
                self.db._relations[rel.name] = rel
        # Stream this epoch's sealed segments, then the active WAL, in
        # bounded batches — the backlog never sits in memory at once.
        # A torn or damaged tail ends the file replay quietly: the
        # live feed covers everything after the stamp we stop at.
        epoch = index or 0
        names = [
            seg["name"]
            for seg in sorted(
                (
                    s
                    for s in manifest.get("segments") or []
                    if s["epoch"] == epoch
                ),
                key=lambda s: s["seq"],
            )
        ]
        names.append(manifest["wal"])
        pending = []
        for name in names:
            for record in iter_records(os.path.join(root, name)):
                pending.append(record)
                if len(pending) >= batch:
                    replay_records(
                        self.db._relations, self.db._dictionary, pending
                    )
                    pending = []
        if pending:
            replay_records(
                self.db._relations, self.db._dictionary, pending
            )
        # The stamp-exact handoff: file replay reproduced the leader's
        # mutation_stamp sequences, so the next sync() pulls exact
        # deltas from here — never a reseed.
        self._dict_len = len(self.db.dictionary)
        self._leader_stamps = {
            rel.name: rel.mutation_stamp for rel in self.db
        }

    # ------------------------------------------------------------------
    # the replication loop
    # ------------------------------------------------------------------
    def sync(self) -> Dict[str, int]:
        """One replication round; returns ``{applied, reseeded}``."""
        if self._feed is None:
            raise ReplicationError(
                "this follower was bootstrapped from WAL files only; "
                "give it a feed to sync against a live leader"
            )
        payload = self._call(
            "pull",
            self._feed.pull,
            dict(self._leader_stamps),
            self._dict_len,
        )
        # Application failures are *fatal*, never retried: a payload
        # that arrived intact over the transport but does not decode
        # or apply is corrupt at the source, and re-pulling the same
        # bytes cannot fix it.
        try:
            self._grow_dictionary(
                payload["dict_values"], payload["dict_len"]
            )
            applied = reseeded = 0
            for entry in payload["relations"]:
                if self._apply_entry(entry):
                    reseeded += 1
                else:
                    applied += 1
        except ReplicationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(
                f"corrupt pull payload: {exc}"
            ) from exc
        return {"applied": applied, "reseeded": reseeded}

    def _call(self, label: str, fn, *args):
        """Run one transport call under the retry/backoff policy.

        Failures are classified, not treated uniformly: a transport
        that cannot be *reached* — :class:`TransientReplicationError`,
        or the builtin connection-shaped exceptions a raw socket
        transport raises (``ConnectionError`` covers refused/reset,
        ``TimeoutError`` and other ``OSError``\\ s cover the rest) —
        is retried with exponential backoff; anything else, payload
        corruption included, is *fatal* and surfaces immediately (a
        corrupt pickle re-fetched from the same leader stays corrupt;
        retrying only hides the real failure behind a timeout).
        """
        deadline = (
            self._clock() + self.timeout
            if self.timeout is not None
            else None
        )
        delay = self.backoff
        for attempt in range(1, self.retries + 1):
            try:
                return fn(*args)
            except TransientReplicationError as exc:
                self._backoff_or_raise(
                    label, exc, attempt, deadline, delay
                )
                delay *= 2
            except ReplicationError:
                raise  # non-transient by definition: do not retry
            except (ConnectionError, TimeoutError, OSError) as exc:
                self._backoff_or_raise(
                    label, exc, attempt, deadline, delay
                )
                delay *= 2

    def _backoff_or_raise(
        self, label: str, exc, attempt: int, deadline, delay: float
    ) -> None:
        """Sleep before the next attempt, or escalate to terminal."""
        if attempt == self.retries:
            raise ReplicationError(
                f"replication {label} failed after "
                f"{attempt} attempts: {exc}"
            ) from exc
        if deadline is not None and self._clock() >= deadline:
            raise ReplicationError(
                f"replication {label} timed out after "
                f"{attempt} attempts: {exc}"
            ) from exc
        self._sleep(delay)

    # ------------------------------------------------------------------
    # applying payloads
    # ------------------------------------------------------------------
    def _grow_dictionary(self, values, leader_len: int) -> None:
        dictionary = self.db.dictionary
        for value in values:
            dictionary.encode(value)
        if len(dictionary) != leader_len:
            raise ReplicationError(
                f"dictionary replica diverged: leader has "
                f"{leader_len} values, replica {len(dictionary)}"
            )
        self._dict_len = leader_len

    def _apply_entry(self, entry: Dict[str, Any]) -> bool:
        """Apply one per-relation payload; True when it (re)seeded."""
        name, arity = entry["name"], entry["arity"]
        rel = self.db.ensure_relation(name, arity)
        self._leader_stamps[name] = entry["stamp"]
        if entry["mode"] == "delta":
            self._apply_delta(rel, entry["inserted"], entry["deleted"])
            return False
        self._apply_seed(rel, entry["content"])
        return True

    def _apply_delta(self, rel, inserted, deleted) -> None:
        del_rows = _rows_of(deleted)
        ins_rows = _rows_of(inserted)
        if len(del_rows) + len(ins_rows) <= self.small_delta:
            for row in del_rows:
                rel.apply_coded(row, False)
            for row in ins_rows:
                rel.apply_coded(row, True)
            return
        if del_rows:
            rel.remove_coded_batch(
                np.asarray(del_rows, dtype=np.int64).reshape(
                    len(del_rows), rel.arity
                )
            )
        if ins_rows:
            rel.add_coded_batch(
                np.asarray(ins_rows, dtype=np.int64).reshape(
                    len(ins_rows), rel.arity
                )
            )

    def _apply_seed(self, rel, content) -> None:
        """Converge on full leader content by set difference.

        Diffing (rather than clearing and reloading) keeps the
        reseed's write volume proportional to the actual divergence
        and leaves the follower's own delta history intact for rows
        that never changed.
        """
        theirs = set(_rows_of(content))
        mine = set(_rows_of(rel.codes()))
        stale = list(mine - theirs)
        fresh = list(theirs - mine)
        self._apply_delta(rel, fresh, stale)

    # ------------------------------------------------------------------
    # serving (delegates to the replica session)
    # ------------------------------------------------------------------
    def prepare(self, query, **kwargs):
        return self.session.prepare(query, **kwargs)

    def execute(self, query, **kwargs):
        return self.session.execute(query, **kwargs)

    def close(self) -> None:
        """Release the replica's resources (see :meth:`Session.close`)."""
        self.session.close()

    def __enter__(self) -> "FollowerSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FollowerSession({self.db!r}, "
            f"stamps={self._leader_stamps})"
        )
