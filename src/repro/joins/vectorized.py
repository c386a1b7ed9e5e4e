"""Vectorized frames: the columnar execution backend's operators.

The algorithms in this package (binary hash joins, semijoin reducers,
Yannakakis, Generic Join) are written against a small frame algebra —
``project`` / ``select_in`` / ``semijoin`` / ``join`` / ``reorder``.
:class:`ColumnarFrame` implements that algebra over dictionary-encoded
NumPy code matrices (see :mod:`repro.db.columnar` for the encoding
scheme), so an algorithm runs unchanged on either backend:

- **semijoin** — pack the shared-variable columns of both sides into
  64-bit keys and keep rows via one :func:`numpy.isin`;
- **join** — sort the right side's keys once, binary-search every left
  key's run, and expand matches with ``repeat``/``cumsum`` index
  arithmetic (:func:`repro.db.columnar.match_pairs`) — a hash join in
  shape, realized as a sort join because sorted int64 arrays beat
  Python dict probing by a wide margin;
- **project / distinct** — one-dimensional :func:`numpy.unique` on
  packed keys.

Set semantics are preserved by construction: every frame's code matrix
holds distinct rows, and each operator either provably preserves
distinctness (join, semijoin, select) or re-uniquifies (project,
raw-row construction).

**When this backend wins** — see the :mod:`repro.db.columnar` module
docstring: bulk operators over ≳10³ rows run one to two orders of
magnitude faster; per-row Python callbacks and single-tuple updates do
not.  The Python :class:`~repro.joins.frame.Frame` therefore remains
the default; pass ``backend="columnar"`` at the :class:`Database` /
workload / evaluator boundary to opt in.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.db.columnar import (
    ColumnarRelation,
    Dictionary,
    atom_codes,
    common_keys,
    match_pairs,
    unique_rows,
)
from repro.joins.frame import Frame

Row = Tuple[object, ...]


class ColumnarFrame:
    """A set of rows over named variables, stored as int64 code columns.

    Mirrors :class:`repro.joins.frame.Frame`: immutable-ish operators
    returning new frames, set semantics, same method names.  ``rows``
    is exposed as a (lazily decoded, cached) set property so code
    written against the Python frame's attribute keeps working.
    """

    def __init__(
        self,
        variables: Sequence[str],
        codes: np.ndarray,
        dictionary: Dictionary,
        _distinct: bool = False,
    ) -> None:
        self.variables: Tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("frame variables must be distinct")
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:  # width-0 frames defeat reshape(-1, 0)
            codes = codes.reshape(len(codes), len(self.variables))
        if not _distinct:
            codes = unique_rows(codes, len(dictionary))
        self._codes = codes
        self.dictionary = dictionary
        self._rows_cache: Optional[Set[Row]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        variables: Sequence[str],
        rows: Iterable[Sequence[object]] = (),
        dictionary: Optional[Dictionary] = None,
    ) -> "ColumnarFrame":
        """Build a frame from Python value rows (the encode boundary)."""
        dictionary = dictionary if dictionary is not None else Dictionary()
        variables = tuple(variables)
        codes = dictionary.encode_rows(rows, len(variables))
        return cls(variables, codes, dictionary)

    @classmethod
    def from_atom(
        cls, relation: ColumnarRelation, variables: Sequence[str]
    ) -> "ColumnarFrame":
        """Bind a columnar relation to atom variables.

        Repeated variables act as equality selections, applied as
        vectorized column comparisons; only the first occurrence of
        each variable is kept as a column.
        """
        variables = tuple(variables)
        if len(variables) != relation.arity:
            raise ValueError(
                f"atom has {len(variables)} positions, relation "
                f"{relation.name} has arity {relation.arity}"
            )
        distinct, first_position, codes = atom_codes(relation, variables)
        positions = [first_position[v] for v in distinct]
        taken = codes[:, positions] if positions else codes[:, :0]
        # Rows of a relation are distinct, and every column equals the
        # first-occurrence column of its variable, so the projection
        # onto first occurrences is still duplicate-free.
        return cls(distinct, taken, relation.dictionary, _distinct=True)

    @classmethod
    def unit(cls, dictionary: Optional[Dictionary] = None) -> "ColumnarFrame":
        """The frame with no variables and one (empty) row — join identity."""
        dictionary = dictionary if dictionary is not None else Dictionary()
        return cls(
            (), np.empty((1, 0), dtype=np.int64), dictionary, _distinct=True
        )

    @classmethod
    def empty(
        cls,
        variables: Sequence[str] = (),
        dictionary: Optional[Dictionary] = None,
    ) -> "ColumnarFrame":
        """A frame with no rows — join absorber."""
        dictionary = dictionary if dictionary is not None else Dictionary()
        return cls(
            variables,
            np.empty((0, len(tuple(variables))), dtype=np.int64),
            dictionary,
            _distinct=True,
        )

    def unit_like(self) -> "ColumnarFrame":
        """A unit frame sharing this frame's dictionary (common interface)."""
        return ColumnarFrame.unit(self.dictionary)

    def empty_like(self, variables: Sequence[str] = ()) -> "ColumnarFrame":
        """An empty frame sharing this frame's dictionary."""
        return ColumnarFrame.empty(variables, self.dictionary)

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def rows(self) -> Set[Row]:
        """Decoded rows as a set (cached) — Python-frame compatibility."""
        if self._rows_cache is None:
            self._rows_cache = set(self.dictionary.decode_rows(self._codes))
        return self._rows_cache

    def codes(self) -> np.ndarray:
        """The distinct ``(n, width)`` int64 code matrix."""
        return self._codes

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: Sequence[object]) -> bool:
        return tuple(row) in self.rows

    def is_empty(self) -> bool:
        return not len(self._codes)

    def positions(self, variables: Sequence[str]) -> Tuple[int, ...]:
        """Column positions of the given variables."""
        index = {v: i for i, v in enumerate(self.variables)}
        try:
            return tuple(index[v] for v in variables)
        except KeyError as exc:
            raise KeyError(f"variable {exc.args[0]!r} not in frame") from None

    def key_of(self, row: Row, positions: Sequence[int]) -> Row:
        return tuple(row[p] for p in positions)

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "ColumnarFrame":
        """The other operand's codes re-expressed in *this* dictionary."""
        if not isinstance(other, ColumnarFrame):
            # A Python Frame (or anything frame-shaped): encode its rows.
            return ColumnarFrame.from_rows(
                other.variables, other.rows, self.dictionary
            )
        if other.dictionary is self.dictionary:
            return other
        if not other._codes.size:
            return ColumnarFrame(
                other.variables, other._codes, self.dictionary, _distinct=True
            )
        # Translate only the codes this frame actually uses, so a small
        # frame carrying a huge dictionary neither does dictionary-sized
        # encode work nor bloats the target dictionary.
        other_values = other.dictionary.values()
        used = np.unique(other._codes)
        table = np.zeros(int(used[-1]) + 1, dtype=np.int64)
        encode = self.dictionary.encode
        for code in used.tolist():
            table[code] = encode(other_values[code])
        return ColumnarFrame(
            other.variables, table[other._codes], self.dictionary,
            _distinct=True,
        )

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def project(self, variables: Sequence[str]) -> "ColumnarFrame":
        """Projection (set semantics; one packed-key ``unique``)."""
        pos = list(self.positions(variables))
        taken = self._codes[:, pos] if pos else self._codes[:, :0]
        return ColumnarFrame(variables, taken, self.dictionary)

    def rename(self, mapping: Dict[str, str]) -> "ColumnarFrame":
        """Rename variables through ``mapping`` (missing keys unchanged)."""
        return ColumnarFrame(
            tuple(mapping.get(v, v) for v in self.variables),
            self._codes,
            self.dictionary,
            _distinct=True,
        )

    def select_in(
        self, variables: Sequence[str], allowed: Set[Row]
    ) -> "ColumnarFrame":
        """Keep rows whose projection onto ``variables`` is in ``allowed``."""
        pos = list(self.positions(variables))
        encode_existing = self.dictionary.encode_existing
        coded: List[Tuple[int, ...]] = []
        for key in allowed:
            codes = tuple(
                c
                for c in (encode_existing(v) for v in key)
                if c is not None
            )
            if len(codes) == len(key):
                coded.append(codes)
        allowed_codes = np.asarray(coded, dtype=np.int64).reshape(
            len(coded), len(pos)
        )
        sub = self._codes[:, pos] if pos else self._codes[:, :0]
        mine, theirs = common_keys(
            sub, allowed_codes, len(self.dictionary)
        )
        mask = np.isin(mine, theirs)
        return ColumnarFrame(
            self.variables, self._codes[mask], self.dictionary, _distinct=True
        )

    def semijoin(self, other) -> "ColumnarFrame":
        """Rows of self that agree with some row of ``other`` on the
        shared variables — one packed-key membership test."""
        shared = tuple(v for v in self.variables if v in other.variables)
        if not shared:
            return (
                self
                if not other.is_empty()
                else self.empty_like(self.variables)
            )
        other = self._coerce(other)
        mine = self._codes[:, list(self.positions(shared))]
        theirs = other._codes[:, list(other.positions(shared))]
        my_keys, their_keys = common_keys(mine, theirs, len(self.dictionary))
        mask = np.isin(my_keys, their_keys)
        return ColumnarFrame(
            self.variables, self._codes[mask], self.dictionary, _distinct=True
        )

    def join(self, other) -> "ColumnarFrame":
        """Natural join on the shared variables (sort-probe, vectorized)."""
        other = self._coerce(other)
        shared = tuple(v for v in self.variables if v in other.variables)
        other_only = tuple(
            v for v in other.variables if v not in self.variables
        )
        out_vars = self.variables + other_only
        extra_pos = list(other.positions(other_only))
        if not shared:
            n_left, n_right = len(self._codes), len(other._codes)
            left = np.repeat(self._codes, n_right, axis=0)
            extras = other._codes[:, extra_pos]
            right = np.tile(extras, (n_left, 1))
            out = np.concatenate([left, right], axis=1)
            return ColumnarFrame(
                out_vars, out, self.dictionary, _distinct=True
            )
        mine = self._codes[:, list(self.positions(shared))]
        theirs = other._codes[:, list(other.positions(shared))]
        my_keys, their_keys = common_keys(mine, theirs, len(self.dictionary))
        left_index, right_index = match_pairs(my_keys, their_keys)
        out = np.concatenate(
            [
                self._codes[left_index],
                other._codes[right_index][:, extra_pos],
            ],
            axis=1,
        )
        # Both inputs hold distinct rows and the right side's columns
        # are (shared ∪ extra), so each (left row, extra) pair appears
        # at most once: the output is distinct without re-uniquifying.
        return ColumnarFrame(out_vars, out, self.dictionary, _distinct=True)

    def reorder(self, variables: Sequence[str]) -> "ColumnarFrame":
        """The same rows with columns permuted to ``variables``."""
        if set(variables) != set(self.variables):
            raise ValueError("reorder must use exactly the frame's variables")
        pos = list(self.positions(variables))
        taken = self._codes[:, pos] if pos else self._codes[:, :0]
        return ColumnarFrame(
            variables, taken, self.dictionary, _distinct=True
        )

    def to_tuples(
        self, variables: Optional[Sequence[str]] = None
    ) -> Set[Row]:
        """Rows as a set of tuples, optionally in a given variable order."""
        if variables is None:
            return set(self.rows)
        return set(
            self.dictionary.decode_rows(self.project(variables)._codes)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarFrame({self.variables}, {len(self._codes)} rows)"


# ----------------------------------------------------------------------
# backend dispatch helpers
# ----------------------------------------------------------------------
def columnar_family(frames: Iterable) -> Optional[Dictionary]:
    """The shared dictionary of an all-columnar frame family, else None.

    The vectorized pipelines (FAQ aggregation, direct access,
    enumeration preprocessing) compare codes across frames, which is
    only sound when every frame is a :class:`ColumnarFrame` over one
    :class:`Dictionary`.  Returns that dictionary when so, and ``None``
    for empty, mixed-backend, or mixed-dictionary collections (callers
    then take the scalar path).
    """
    dictionary: Optional[Dictionary] = None
    for frame in frames:
        if not isinstance(frame, ColumnarFrame):
            return None
        if dictionary is None:
            dictionary = frame.dictionary
        elif frame.dictionary is not dictionary:
            return None
    return dictionary


def relation_family(relations: Iterable) -> Optional[Dictionary]:
    """The shared dictionary of an all-columnar relation family, else None.

    The relation-level counterpart of :func:`columnar_family`, with the
    same soundness rule: cross-relation code comparisons (the frontier
    Generic Join probes every atom's prefix tables with one shared
    frontier matrix) require every relation to be a
    :class:`~repro.db.columnar.ColumnarRelation` — sharded ones
    included — over one :class:`~repro.db.columnar.Dictionary`.
    ``None`` sends callers to their decoded fallback.
    """
    dictionary: Optional[Dictionary] = None
    for relation in relations:
        if not isinstance(relation, ColumnarRelation):
            return None
        if dictionary is None:
            dictionary = relation.dictionary
        elif relation.dictionary is not dictionary:
            return None
    return dictionary


def frame_for_atom(relation, variables: Sequence[str]):
    """An atom frame of the backend matching the stored relation.

    Any :class:`ColumnarRelation` — sharded ones included, read through
    their coalesced ``codes()`` — binds to a plain
    :class:`ColumnarFrame`.
    """
    if isinstance(relation, ColumnarRelation):
        return ColumnarFrame.from_atom(relation, variables)
    return Frame.from_atom(relation, variables)


def unit_frame_like(frames: Iterable) -> "Frame | ColumnarFrame":
    """A join-identity frame of the same backend as ``frames``.

    Falls back to the Python backend when the collection is empty.
    """
    for frame in frames:
        return frame.unit_like()
    return Frame.unit()


def empty_frame_like(
    frames: Iterable, variables: Sequence[str] = ()
) -> "Frame | ColumnarFrame":
    """A join-absorber frame of the same backend as ``frames``."""
    for frame in frames:
        return frame.empty_like(variables)
    return Frame.empty(variables)


# Make isinstance checks against the common backend interface work.
from repro.db.interface import register_backends as _register_backends

_register_backends()
