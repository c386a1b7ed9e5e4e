"""The :class:`ConjunctiveQuery` class.

Semantics: an *answer* to ``q(X) :- R1(X1), ..., Rl(Xl)`` on a database
``D`` is a tuple ``a`` over the head variables ``X`` such that some
assignment of all body variables extends ``a`` and sends each atom's
variable tuple to a tuple of the corresponding relation in ``D``.

This module is pure syntax plus a reference brute-force evaluator used
as ground truth in tests.  The real algorithms live in
:mod:`repro.joins`, :mod:`repro.counting`, :mod:`repro.enumeration` and
:mod:`repro.direct_access`.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.db.database import Database
from repro.query.atoms import Atom


class ConjunctiveQuery:
    """A conjunctive query ``head(X) :- atoms``."""

    def __init__(
        self,
        head: Sequence[str],
        atoms: Sequence[Atom],
        name: str = "q",
    ) -> None:
        self.name = name
        self.head: Tuple[str, ...] = tuple(head)
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        if len(set(self.head)) != len(self.head):
            raise ValueError("head variables must be distinct")
        body_vars = self.variables
        missing = [v for v in self.head if v not in body_vars]
        if missing:
            raise ValueError(
                f"head variables {missing} do not occur in the body "
                "(queries must be safe)"
            )
        self._check_symbol_arities()

    def _check_symbol_arities(self) -> None:
        arities: Dict[str, int] = {}
        for atom in self.atoms:
            prev = arities.setdefault(atom.relation, atom.arity)
            if prev != atom.arity:
                raise ValueError(
                    f"relation symbol {atom.relation!r} used with arities "
                    f"{prev} and {atom.arity}"
                )

    # ------------------------------------------------------------------
    # structural properties
    # ------------------------------------------------------------------
    @property
    def variables(self) -> FrozenSet[str]:
        """All variables occurring in the body."""
        out: Set[str] = set()
        for atom in self.atoms:
            out.update(atom.scope)
        return frozenset(out)

    @property
    def free_variables(self) -> FrozenSet[str]:
        """The head variables (free variables) as a set."""
        return frozenset(self.head)

    @property
    def existential_variables(self) -> FrozenSet[str]:
        """Projected-out (quantified) variables."""
        return self.variables - self.free_variables

    @property
    def relation_symbols(self) -> Tuple[str, ...]:
        """Distinct relation symbols, in order of first occurrence."""
        seen: List[str] = []
        for atom in self.atoms:
            if atom.relation not in seen:
                seen.append(atom.relation)
        return tuple(seen)

    def is_boolean(self) -> bool:
        """True when the head is empty."""
        return not self.head

    def is_join_query(self) -> bool:
        """True when every body variable is free (no projection)."""
        return self.free_variables == self.variables

    def is_self_join_free(self) -> bool:
        """True when no relation symbol occurs in two atoms."""
        return len(self.relation_symbols) == len(self.atoms)

    def arity_bound(self) -> int:
        """The maximum atom arity (2 means 'graphlike' in the paper)."""
        return max(atom.arity for atom in self.atoms)

    def atoms_of(self, relation: str) -> Tuple[Atom, ...]:
        """All atoms using the given relation symbol."""
        return tuple(a for a in self.atoms if a.relation == relation)

    # ------------------------------------------------------------------
    # derived queries
    # ------------------------------------------------------------------
    def as_boolean(self) -> "ConjunctiveQuery":
        """The Boolean query with the same body (project everything out)."""
        return ConjunctiveQuery((), self.atoms, name=f"{self.name}_bool")

    def as_join_query(self) -> "ConjunctiveQuery":
        """The join query with the same body (make every variable free).

        Variables are ordered with existing head variables first (in head
        order) and the remaining body variables in sorted order, so the
        result is deterministic.
        """
        rest = sorted(self.variables - self.free_variables)
        return ConjunctiveQuery(
            tuple(self.head) + tuple(rest), self.atoms,
            name=f"{self.name}_full",
        )

    def with_head(self, head: Sequence[str]) -> "ConjunctiveQuery":
        """The same body with a different head."""
        return ConjunctiveQuery(head, self.atoms, name=self.name)

    def rename_apart(self) -> "ConjunctiveQuery":
        """A self-join free copy: atom i's symbol becomes ``{R}__{i}``.

        Useful for upper-bound algorithms that are stated for self-join
        free queries: evaluating the renamed query on a database that
        maps each fresh symbol to the original relation gives identical
        answers.
        """
        atoms = tuple(
            Atom(f"{a.relation}__{i}", a.variables)
            for i, a in enumerate(self.atoms)
        )
        return ConjunctiveQuery(self.head, atoms, name=f"{self.name}_sjf")

    def hypergraph(self):
        """The query's hypergraph (vertices = variables, edges = scopes)."""
        from repro.hypergraph.hypergraph import Hypergraph

        return Hypergraph(
            vertices=self.variables,
            edges=[atom.scope for atom in self.atoms],
        )

    # ------------------------------------------------------------------
    # database helpers
    # ------------------------------------------------------------------
    def validate_database(self, db: Database) -> None:
        """Check that ``db`` supplies every symbol at the right arity."""
        for atom in self.atoms:
            if atom.relation not in db:
                raise KeyError(
                    f"database is missing relation {atom.relation!r}"
                )
            if db[atom.relation].arity != atom.arity:
                raise ValueError(
                    f"relation {atom.relation!r} has arity "
                    f"{db[atom.relation].arity}, atom {atom} needs "
                    f"{atom.arity}"
                )

    def rename_apart_database(self, db: Database) -> Database:
        """The database matching :meth:`rename_apart` (relations copied,
        re-encoded into the new database's dictionary)."""
        out = Database(backend=db.backend)
        for i, atom in enumerate(self.atoms):
            out.add_relation(db[atom.relation].copy(f"{atom.relation}__{i}"))
        return out

    # ------------------------------------------------------------------
    # reference evaluation (ground truth for tests; exponential in |q|)
    # ------------------------------------------------------------------
    def evaluate_brute_force(self, db: Database) -> Set[Tuple]:
        """All answers, by backtracking over atoms.  Test oracle only.

        Correct for every query (self-joins, repeated variables,
        Boolean heads) but makes no complexity promises; the measured
        algorithms in :mod:`repro.joins` are compared against this.
        """
        self.validate_database(db)
        answers: Set[Tuple] = set()
        order = sorted(self.atoms, key=lambda a: len(db[a.relation]))
        self._backtrack(db, order, 0, {}, answers)
        return answers

    def _backtrack(
        self,
        db: Database,
        order: Sequence[Atom],
        depth: int,
        assignment: Dict[str, object],
        answers: Set[Tuple],
    ) -> None:
        if depth == len(order):
            answers.add(tuple(assignment[v] for v in self.head))
            return
        atom = order[depth]
        rel = db[atom.relation]
        bound_positions = [
            (i, assignment[v])
            for i, v in enumerate(atom.variables)
            if v in assignment
        ]
        if bound_positions:
            cols = tuple(i for i, _ in bound_positions)
            key = tuple(val for _, val in bound_positions)
            candidates: Iterable = rel.lookup(cols, key)
        else:
            candidates = rel
        for tup in candidates:
            extension: Dict[str, object] = {}
            ok = True
            for i, var in enumerate(atom.variables):
                if var in assignment:
                    if assignment[var] != tup[i]:
                        ok = False
                        break
                elif var in extension:
                    if extension[var] != tup[i]:
                        ok = False
                        break
                else:
                    extension[var] = tup[i]
            if not ok:
                continue
            assignment.update(extension)
            self._backtrack(db, order, depth + 1, assignment, answers)
            for var in extension:
                del assignment[var]

    def holds(self, db: Database) -> bool:
        """Boolean satisfaction, via the brute-force evaluator."""
        return bool(self.as_boolean().evaluate_brute_force(db))

    def count_brute_force(self, db: Database) -> int:
        """Number of answers, via the brute-force evaluator."""
        return len(self.evaluate_brute_force(db))

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.name}({', '.join(self.head)}) :- {body}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConjunctiveQuery({self})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.head == other.head and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash((self.head, self.atoms))
