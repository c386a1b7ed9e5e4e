"""Classifier-driven query planning for the engine facade.

The paper's dichotomies decide, from a query's *structure* alone, which
evaluation pipeline meets its best possible bounds — Yannakakis for
Boolean acyclic queries (Theorem 3.1); for free-connex queries one
counted layered join tree (Theorem 3.24 / Corollary 3.22) whose root
total is the count (Theorem 3.13's bound) and whose ordered block
reads are the enumeration (Theorem 3.17's Õ(1) delay: a block expands
runs of store rows, O(1) amortised per answer); and
worst-case-optimal joins as the cyclic fallback (Theorem 3.7).
:func:`plan_query` turns one :func:`repro.classify.classify` pass into
an executable :class:`Plan`: one route per serving capability
(``decide`` / ``count`` / ``iterate`` / ``access`` / ``aggregate``),
each quoting the theorem and cost expression of the corresponding
:class:`repro.classify.report.TaskVerdict`.  The execution backend is not a planning decision: the
paper picks algorithms from the query, never from a size threshold,
and a session executes on the one database it stores — so
``Plan.backend`` is the stored backend.

The planner never reads tuples: order admissibility is decided from
the reduced bag family
(:func:`repro.hypergraph.freeconnex.free_variable_bags` fed to
:func:`repro.direct_access.layered.find_layered_tree`, one pass along
the order).  When the head as written is not admissible, an order is
read off a rooted join forest of the same bags — own blocks in DFS
preorder, admissible by construction, so every free-connex query gets
one.  The plan — and :meth:`Plan.render`, the ``explain()`` text — is
a pure function of (query, order, stored backend, input size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.classify.classifier import classify
from repro.classify.report import QueryClassification
from repro.db.interface import check_backend, preferred_shard_count
from repro.direct_access.layered import find_layered_tree
from repro.hypergraph.freeconnex import free_variable_bags
from repro.hypergraph.gyo import join_tree
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.trios import _first_trio
from repro.query.cq import ConjunctiveQuery

# Plan families — which serving shape the query admits.
BOOLEAN = "boolean"
FREE_CONNEX = "free-connex"
ACYCLIC_MATERIALIZE = "acyclic-materialize"
CYCLIC_MATERIALIZE = "cyclic-materialize"


def _sorted_answers(
    classification: QueryClassification,
    readers: str = "shared by count, pages, iteration and aggregates",
) -> str:
    """What every read off the counted tree reads
    (repro.direct_access.lex.OrderedAnswers): the output of the query
    class's own algorithm, run once per database version."""
    producer = "worst-case-optimal join"
    if classification.acyclic:
        producer = "Yannakakis projection"
    return f"one {producer} per database version, {readers}"


@dataclass(frozen=True)
class PlanRoute:
    """One capability's chosen pipeline, with its complexity pedigree.

    ``cost`` and ``theorem`` are quoted from the classifier's
    :class:`~repro.classify.report.TaskVerdict` for the matching task
    wherever one exists, so the plan's claims stay in sync with the
    dichotomy reports.
    """

    capability: str
    algorithm: str
    cost: str
    theorem: str
    note: str = ""

    def render(self) -> str:
        line = (
            f"  {self.capability:<9} via {self.algorithm}"
            f" -- {self.cost} [{self.theorem}]"
        )
        if self.note:
            line += f"\n{'':13} note: {self.note}"
        return line


@dataclass
class Plan:
    """An executable serving plan for one prepared query."""

    query_text: str
    family: str
    backend: str
    backend_reason: str
    order: Optional[Tuple[str, ...]]
    access_admissible: bool
    # The order the free-connex family's counted layered tree is built
    # on: ``order`` when that is admissible, else the planner's own
    # admissible order (count and iteration keep the tree; only pages
    # in ``order`` read a sorted list).  None off the free-connex family.
    tree_order: Optional[Tuple[str, ...]]
    classification: QueryClassification
    routes: Tuple[PlanRoute, ...]
    # 1 = unsharded; > 1 only when backend == "sharded".  A storage
    # fact reported by explain(); no route depends on it.
    shard_count: int = 1
    # Measured per-relation statistics (pre-rendered lines from
    # Session._measure_statistics): rows, per-column distinct counts,
    # shard-size histograms.  They break Generic Join variable-order
    # ties and explain() cites them next to the theorem citations.
    stats: Tuple[str, ...] = ()

    @property
    def maintained(self) -> bool:
        """Does the tree patch under small updates instead of rebuilding?
        (``LexDirectAccess``: its nodes are the atoms of a join query,
        support-counted projections of them otherwise.)"""
        return self.tree_order is not None

    @property
    def repaired(self) -> bool:
        """Are the answers off the tree repaired by delta joins instead of
        produced again?  (``OrderedAnswers`` of a join query.)"""
        return (
            self.order is not None
            and not self.access_admissible
            and self.classification.is_join_query
        )

    def route(self, capability: str) -> PlanRoute:
        """Look up one capability's route by name."""
        for route in self.routes:
            if route.capability == capability:
                return route
        raise KeyError(f"no route for capability {capability!r}")

    def render(self) -> str:
        """The human-readable plan — ``PreparedQuery.explain()``."""
        c = self.classification
        lines = [
            f"plan for {self.query_text}",
            f"  family:   {self.family}",
            f"  backend:  {self.backend} ({self.backend_reason})",
            (
                f"  structure: acyclic={c.acyclic}"
                f" free-connex={c.free_connex}"
                f" self-join-free={c.self_join_free}"
                f" rho*={c.agm_exponent:.3f}"
            ),
        ]
        if self.backend == "sharded":
            lines.append(
                f"  shards:   {self.shard_count} (storage layout:"
                " hash-partitioned on the key column; queries read the"
                " coalesced code matrix)"
            )
        if self.order is not None:
            lines.append(f"  order:    {' > '.join(self.order)}")
        for stat in self.stats:
            lines.append(f"  stats:    {stat}")
        if not c.acyclic:  # cyclic: the worst-case-optimal join runs
            strategy = (
                "breadth-first frontier arrays (all prefixes per"
                " level extended at once; zero per-row decodes)"
            )
            if self.stats:
                strategy += (
                    "; variable-order ties broken by the measured"
                    " distinct counts above"
                )
            lines.append(f"  wcoj:     {strategy}")
        for route in self.routes:
            lines.append(route.render())
        # One clause per structure the plan holds that repairs in place:
        # the counted tree, and the sorted answers of every non-Boolean
        # read the tree does not serve.
        updates = []
        dynamic = c.verdict("dynamic")
        verdict = dynamic.note
        if not dynamic.tractable:
            verdict += " -- no constant-time maintenance"
        verdict = f"(dynamic: {verdict} [{dynamic.theorem}])"
        if self.maintained:
            patch = (
                "session.add/discard patch the counted layered tree: one "
                "sorted-block splice per delta row, ancestor counts "
                "repaired level by level"
            )
            if not c.is_join_query:
                patch += (
                    "; existential variables are eliminated into "
                    f"support-counted projections {verdict}"
                )
            updates.append(patch)
        if self.repaired:
            updates.append(
                "sorted answers repaired by delta joins: one frontier run "
                "per changed atom over the changed tuples; rebuilt after a "
                f"compaction barrier {verdict}"
            )
        if not updates:
            updates.append(
                "session.add/discard bump mutation stamps; what is served "
                "is rebuilt once per database version, before answering"
            )
        lines.append(f"  updates:  {'; '.join(updates)}")
        return "\n".join(lines)


def _choose_order(
    bags: Dict[int, FrozenSet[str]],
    head: Tuple[str, ...],
    requested: Optional[Tuple[str, ...]],
) -> Tuple[str, ...]:
    """The order the counted layered tree is built on.

    The first of ``requested`` and ``head`` that admits a layered join
    tree over the reduced bags.  Otherwise the order is read off a
    rooted join forest of the bags (GYO): own blocks in DFS preorder,
    each component under the virtual root, so it is layered by
    construction.  A block keeps its variables in head order.
    """
    for wanted in (requested, head):
        if wanted is not None and find_layered_tree(bags, wanted) is not None:
            return wanted
    tree = join_tree(Hypergraph(frozenset(head), list(bags.values())))
    position = {v: i for i, v in enumerate(head)}
    order = []
    roots = list(tree.roots)
    for root in roots:  # grows: a cut edge starts a new component
        stack = [root]
        while stack:
            node = stack.pop()
            order.extend(
                sorted(tree.bags[node] - tree.separator(node), key=position.get)
            )
            for child in reversed(tree.children(node)):
                if tree.separator(child):
                    stack.append(child)
                else:
                    roots.append(child)
    return tuple(order)


def plan_query(
    query: ConjunctiveQuery,
    size: int,
    stored_backend: str = "columnar",
    order: Optional[Sequence[str]] = None,
    stored_shard_count: Optional[int] = None,
    stats: Sequence[str] = (),
) -> Plan:
    """Classify ``query`` and select pipelines for every capability.

    ``size``/``stored_backend`` describe the database the plan will
    execute on (``Plan.backend`` is ``stored_backend``); ``order``
    fixes the lexicographic access order (default: the planner
    constructs an admissible one).  For a sharded database
    ``stored_shard_count`` is its partitioning (default: the size
    heuristic :func:`repro.db.interface.preferred_shard_count`, which
    is what ``Database.to_backend("sharded")`` partitions with);
    ``explain()`` reports it.  ``stats`` carries measured
    per-relation statistics the *session* collected (the planner stays
    pure — no relation is read here); ``explain()`` cites them and the
    worst-case-optimal routes note that variable-order ties break on
    them.
    """
    classification = classify(query)
    backend = check_backend(stored_backend)
    reason = f"stored backend, m={size}"
    shard_count = 1
    if backend == "sharded":
        shard_count = stored_shard_count or preferred_shard_count(size)

    if query.is_boolean():
        if order is not None:
            raise ValueError("Boolean queries admit no answer order")
        return _plan_boolean(
            query, classification, backend, reason, shard_count,
            tuple(stats),
        )

    head = tuple(query.head)
    requested = None if order is None else tuple(order)
    if requested is not None and sorted(requested) != sorted(head):
        raise ValueError(
            f"order {requested} must be a permutation of the "
            f"head variables {head}"
        )
    bags = (
        free_variable_bags(query) if classification.free_connex else None
    )
    # An inadmissible requested order costs only direct access: count
    # and iteration keep a tree on the planner's own order.
    tree_order = None if bags is None else _choose_order(bags, head, requested)
    chosen_order = requested or tree_order or head
    admissible = tree_order == chosen_order

    if classification.free_connex:
        family = FREE_CONNEX
    elif classification.acyclic:
        family = ACYCLIC_MATERIALIZE
    else:
        family = CYCLIC_MATERIALIZE
    routes = (
        _count_route(classification, family),
        _iterate_route(classification, family, tree_order),
        _access_route(classification, family, chosen_order, admissible, bags),
        _aggregate_route(query, classification, family),
    )
    return Plan(
        query_text=str(query),
        family=family,
        backend=backend,
        backend_reason=reason,
        order=chosen_order,
        access_admissible=admissible,
        tree_order=tree_order,
        classification=classification,
        routes=routes,
        shard_count=shard_count,
        stats=tuple(stats),
    )


def _plan_boolean(
    query: ConjunctiveQuery,
    classification: QueryClassification,
    backend: str,
    reason: str,
    shard_count: int = 1,
    stats: Tuple[str, ...] = (),
) -> Plan:
    verdict = classification.verdict("boolean")
    if classification.acyclic:
        algorithm = "Yannakakis semijoin reduction"
    else:
        algorithm = "worst-case-optimal join, first-witness early exit"
    decide = PlanRoute(
        capability="decide",
        algorithm=algorithm,
        cost=verdict.upper_bound,
        theorem=verdict.theorem,
    )
    counting = classification.verdict("counting")
    count = PlanRoute(
        capability="count",
        algorithm="decide, then 0/1",
        cost=counting.upper_bound,
        theorem=counting.theorem,
    )
    return Plan(
        query_text=str(query),
        family=BOOLEAN,
        backend=backend,
        backend_reason=reason,
        order=None,
        access_admissible=False,
        tree_order=None,
        classification=classification,
        routes=(decide, count),
        shard_count=shard_count,
        stats=stats,
    )


def _count_route(
    classification: QueryClassification, family: str
) -> PlanRoute:
    verdict = classification.verdict("counting")
    if family == FREE_CONNEX:
        return PlanRoute(
            capability="count",
            algorithm="root total of the counted layered tree",
            cost=verdict.upper_bound,
            theorem=verdict.theorem,
        )
    return PlanRoute(
        capability="count",
        algorithm=_sorted_answers(classification),
        cost=verdict.upper_bound,
        theorem=verdict.theorem,
        note=verdict.note,
    )


def _iterate_route(
    classification: QueryClassification,
    family: str,
    tree_order: Optional[Tuple[str, ...]],
) -> PlanRoute:
    verdict = classification.verdict("enumeration")
    if family == FREE_CONNEX:
        return PlanRoute(
            capability="iterate",
            algorithm=(
                "ordered block reads of the counted layered tree "
                f"({' > '.join(tree_order)})"
            ),
            cost=verdict.upper_bound,
            theorem=f"{verdict.theorem} (via Theorem 3.24)",
            note=(
                "no per-answer search: a block expands runs of store rows,"
                " O(block + depth·log m), so O(1) amortised per answer"
            ),
        )
    return PlanRoute(
        capability="iterate",
        algorithm=_sorted_answers(classification),
        cost=verdict.upper_bound,
        theorem=verdict.theorem,
        note=(
            "no constant-delay guarantee: the query is not free-connex,"
            " so linear preprocessing with constant delay is ruled out"
            " on the hard side of the enumeration dichotomy"
        ),
    )


def _access_route(
    classification: QueryClassification,
    family: str,
    order: Tuple[str, ...],
    admissible: bool,
    bags: Optional[Dict[int, FrozenSet[str]]],
) -> PlanRoute:
    verdict = classification.find("direct-access")
    theorem = (
        verdict.theorem if verdict is not None
        else "Theorem 3.18 / Corollary 3.22"
    )
    rendered = " > ".join(order)
    if admissible:
        return PlanRoute(
            capability="access",
            algorithm=f"lex direct access on ({rendered})",
            cost="Õ(m) preprocessing + Õ(log m) per access",
            theorem="Theorem 3.24 / Corollary 3.22",
        )
    sort_cost = "O(output) preprocessing (sort), O(1) per access"
    if family == FREE_CONNEX:
        trio = _first_trio(
            Hypergraph(frozenset(order), bags.values()).primal_graph(), order
        )
        if trio is not None:
            theorem = "Theorem 3.24 / Lemma 3.23"
            why = f"disruptive trio ({', '.join(trio)})"
        else:  # layered ⇒ trio-free, but not conversely over atom nodes
            theorem = "Theorem 3.24"
            why = (
                "no disruptive trio, but it splits an atom's block or "
                "interleaves components, which no per-atom tree lays out "
                "(the theorem's prefix-projection nodes are not built)"
            )
        return PlanRoute(
            capability="access",
            algorithm=_sorted_answers(
                classification, f"sorted on ({rendered})"
            ),
            cost=sort_cost,
            theorem=theorem,
            note=(
                f"order ({rendered}) admits no layered join tree: {why}; "
                "pages read the sorted answers, count and iteration keep "
                "the tree"
            ),
        )
    return PlanRoute(
        capability="access",
        algorithm=_sorted_answers(classification),
        cost=sort_cost,
        theorem=theorem,
        note=(
            "no constant-delay guarantee: superlinear preprocessing is"
            " unavoidable for non-free-connex queries"
        ),
    )


def _aggregate_route(
    query: ConjunctiveQuery, classification: QueryClassification, family: str
) -> PlanRoute:
    """One route for every family: the count's verdict.

    Unweighted, ⊕ over the answers of ⊗ of ones is ``n·1`` — the
    answer count mapped into the semiring — so cost and theorem are
    the counting dichotomy's (off the tree, the shared answers' length).
    Only the per-atom-weights pipeline still varies with the query, and
    the note names it.
    """
    verdict = classification.verdict("counting")
    if not query.is_join_query():
        weighted = "undefined under projection -- use query.as_join_query()"
    elif classification.acyclic:
        weighted = (
            "FAQ semiring message passing, Õ(m) [Section 4.1.2 / [59]]"
        )
    else:
        weighted = (
            "worst-case-optimal join + fold, "
            f"Õ(m^{classification.agm_exponent:.3f})"
        )
    return PlanRoute(
        capability="aggregate",
        algorithm=(
            "count, then n·1 in the semiring (O(log n) ⊕)"
            if family == FREE_CONNEX
            else _sorted_answers(classification)
        ),
        cost=verdict.upper_bound,
        theorem=f"{verdict.theorem} / Section 4.1.2",
        note=f"per-atom weights: {weighted}",
    )
