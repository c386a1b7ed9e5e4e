"""An oracle that shares no code with ``repro``: dicts, sets, loops.

Two independent references:

- :class:`Oracle` keeps every binary relation as forward / backward
  adjacency sets and answers *count*, *is this row an answer* and
  *how does one inserted or deleted tuple change the count* by set
  arithmetic — cheap enough for the full-scale inputs.
- :func:`brute_force` is the literal nested loop over tuple lists,
  usable at 1/50 scale, against which both the engine's complete
  sorted answer list and :class:`Oracle` itself are checked.

Shapes (head is always ``x, y, z``)::

    path2     q :- A(x, y), B(y, z)
    fc3       q :- A(x, y), B(y, z), C(z, w)      (w projected away)
    triangle  q :- A(x, y), B(y, z), C(z, x)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Row = Tuple[int, int]
Answer = Tuple[int, int, int]


class _Binary:
    """One binary relation as ``fwd[a] = {b}`` and ``bwd[b] = {a}``."""

    def __init__(self, rows: Iterable[Row]) -> None:
        self.fwd: Dict[int, Set[int]] = defaultdict(set)
        self.bwd: Dict[int, Set[int]] = defaultdict(set)
        for a, b in rows:
            self.fwd[a].add(b)
            self.bwd[b].add(a)

    def has(self, a: int, b: int) -> bool:
        return b in self.fwd.get(a, ())

    def add(self, a: int, b: int) -> None:
        self.fwd[a].add(b)
        self.bwd[b].add(a)

    def remove(self, a: int, b: int) -> None:
        self.fwd[a].discard(b)
        self.bwd[b].discard(a)

    def succ(self, a: int) -> Set[int]:
        return self.fwd.get(a, set())

    def pred(self, b: int) -> Set[int]:
        return self.bwd.get(b, set())

    def rows(self) -> List[Row]:
        return [(a, b) for a, bs in self.fwd.items() for b in bs]


class Oracle:
    """Count, membership and per-tuple count deltas for one shape."""

    def __init__(
        self, shape: str, relations: Sequence[str], data: Dict[str, Iterable[Row]]
    ) -> None:
        if shape not in ("path2", "fc3", "triangle"):
            raise ValueError(f"unknown oracle shape {shape!r}")
        self.shape = shape
        self.names = tuple(relations)
        self.rel = {name: _Binary(data[name]) for name in relations}

    def _abc(self):
        return tuple(self.rel[name] for name in self.names)

    def count(self) -> int:
        """The answer count, recomputed from scratch."""
        if self.shape == "path2":
            a, b = self._abc()
            # Σ_y deg_A(y) · deg_B(y)
            return sum(len(xs) * len(b.succ(y)) for y, xs in a.bwd.items())
        if self.shape == "fc3":
            a, b, c = self._abc()
            return sum(
                len(xs) * sum(1 for z in b.succ(y) if c.succ(z))
                for y, xs in a.bwd.items()
            )
        a, b, c = self._abc()
        # per edge (x, y): |{z : B(y, z)} ∩ {z : C(z, x)}|
        return sum(
            len(b.succ(y) & c.pred(x)) for x, ys in a.fwd.items() for y in ys
        )

    def is_answer(self, row: Sequence[int]) -> bool:
        x, y, z = row
        if self.shape == "path2":
            a, b = self._abc()
            return a.has(x, y) and b.has(y, z)
        a, b, c = self._abc()
        if self.shape == "fc3":
            return a.has(x, y) and b.has(y, z) and bool(c.succ(z))
        return a.has(x, y) and b.has(y, z) and c.has(z, x)

    def _through(self, relation: str, row: Row) -> int:
        """Answers that exist only because ``row`` is in ``relation``.

        Called with the row present.  Without projection every answer
        through a tuple is distinct; for ``fc3`` a ``C`` tuple matters
        only while it is the last witness of its ``z``.
        """
        slot = self.names.index(relation)
        p, q = row
        if self.shape == "path2":
            a, b = self._abc()
            return len(b.succ(q)) if slot == 0 else len(a.pred(p))
        a, b, c = self._abc()
        if self.shape == "fc3":
            if slot == 0:
                return sum(1 for z in b.succ(q) if c.succ(z))
            if slot == 1:
                return len(a.pred(p)) if c.succ(q) else 0
            if len(c.succ(p)) > 1:
                return 0
            return sum(len(a.pred(y)) for y in b.pred(p))
        if slot == 0:  # A(x, y): z with B(y, z), C(z, x)
            return len(b.succ(q) & c.pred(p))
        if slot == 1:  # B(y, z): x with C(z, x), A(x, y)
            return len(c.succ(q) & a.pred(p))
        return len(a.succ(q) & b.pred(p))  # C(z, x): y with A(x, y), B(y, z)

    def apply(self, op: str, relation: str, rows: Iterable[Row]) -> int:
        """Apply one update step; returns the change in the count."""
        rel = self.rel[relation]
        delta = 0
        for row in rows:
            present = rel.has(*row)
            if op == "discard":
                if present:
                    delta -= self._through(relation, row)
                    rel.remove(*row)
            elif not present:
                rel.add(*row)
                delta += self._through(relation, row)
        return delta

    def rows(self) -> Dict[str, List[Row]]:
        return {name: self.rel[name].rows() for name in self.names}


def brute_force(
    shape: str, relations: Sequence[str], data: Dict[str, Iterable[Row]]
) -> List[Answer]:
    """Nested loops over the tuple lists; sorted distinct answers."""
    lists = [list(data[name]) for name in relations]
    out = set()
    if shape == "path2":
        for x, y in lists[0]:
            for y2, z in lists[1]:
                if y2 == y:
                    out.add((x, y, z))
    elif shape == "fc3":
        for x, y in lists[0]:
            for y2, z in lists[1]:
                if y2 != y:
                    continue
                for z2, _w in lists[2]:
                    if z2 == z:
                        out.add((x, y, z))
                        break
    elif shape == "triangle":
        for x, y in lists[0]:
            for y2, z in lists[1]:
                if y2 != y:
                    continue
                for z2, x2 in lists[2]:
                    if z2 == z and x2 == x:
                        out.add((x, y, z))
                        break
    else:
        raise ValueError(f"unknown oracle shape {shape!r}")
    return sorted(out)


def page_errors(
    oracle: Oracle,
    page: Sequence[Sequence[int]],
    offset: int,
    size: int,
    total: int,
    order_positions: Sequence[int],
) -> List[str]:
    """What is wrong with one page, judged without the full answer list.

    A page must hold exactly the rows the count leaves room for, in
    strictly increasing lexicographic order, and only true answers.
    """
    errors: List[str] = []
    expected = max(0, min(size, total - offset))
    if len(page) != expected:
        errors.append(f"page@{offset}: {len(page)} rows, expected {expected}")
    keys = [tuple(row[p] for p in order_positions) for row in page]
    if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
        errors.append(f"page@{offset}: rows not strictly increasing")
    bad = [tuple(row) for row in page if not oracle.is_answer(row)]
    if bad:
        errors.append(f"page@{offset}: {len(bad)} non-answers, e.g. {bad[0]}")
    return errors
