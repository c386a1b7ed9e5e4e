"""The classifier proper: apply every dichotomy of the paper.

For each task the verdicts quote the theorem, the runtime on each side,
and the hypotheses making the bound tight.  Lower-bound statements are
only claimed for self-join free queries where the paper requires it
(enumeration with self-joins is explicitly open — Section 3.3).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.hypergraph.freeconnex import is_free_connex
from repro.hypergraph.gyo import is_acyclic
from repro.hypergraph.starsize import quantified_star_size
from repro.hypergraph.structure import find_hard_substructure
from repro.hypergraph.trios import find_disruptive_trio, trio_free_order
from repro.hypergraph.widths import agm_exponent
from repro.classify.report import QueryClassification, TaskVerdict
from repro.direct_access.sum_order import covering_atom_index
from repro.query.cq import ConjunctiveQuery
from repro.reductions import hypotheses as hyp


def classify(
    query: ConjunctiveQuery,
    lex_order: Optional[Sequence[str]] = None,
    include_embedding_power: bool = False,
) -> QueryClassification:
    """Classify a query under every dichotomy the paper states.

    ``lex_order`` (a permutation of the free variables) additionally
    produces the order-specific lexicographic direct access verdict of
    Theorem 3.24.  ``include_embedding_power`` runs the (exponential in
    query size) clique-embedding search of Section 4.2 and adds a
    tropical-aggregation verdict with the certified exponent.
    """
    hypergraph = query.hypergraph()
    acyclic = is_acyclic(hypergraph)
    free_connex = acyclic and is_free_connex(query)
    sjf = query.is_self_join_free()
    star = quantified_star_size(query)
    rho = agm_exponent(hypergraph)
    witness = None if acyclic else find_hard_substructure(hypergraph)
    witness_text = None
    if witness is not None:
        if witness.kind == "cycle":
            witness_text = (
                "induced cycle on " + ", ".join(witness.cycle_order)
            )
        else:
            witness_text = (
                f"{witness.uniformity}-uniform hyperclique on "
                + ", ".join(sorted(witness.vertices))
            )

    verdicts = [
        _boolean_verdict(query, acyclic, rho, sjf, witness),
        _counting_verdict(query, acyclic, free_connex, sjf, star, rho),
        _enumeration_verdict(query, acyclic, free_connex, sjf),
        _direct_access_verdict(query, acyclic, free_connex, sjf),
        _sum_order_verdict(query, acyclic, sjf),
        _dynamic_verdict(query, sjf),
    ]
    if lex_order is not None and not query.is_boolean():
        verdicts.append(
            _lex_order_verdict(query, acyclic, tuple(lex_order), sjf)
        )
    if include_embedding_power:
        verdicts.append(_aggregation_verdict(query, acyclic, rho))

    good_order: Optional[Tuple[str, ...]] = None
    if acyclic and query.is_join_query():
        good_order = trio_free_order(a.scope for a in query.atoms)

    return QueryClassification(
        query_name=query.name,
        query_text=str(query),
        acyclic=acyclic,
        free_connex=free_connex,
        self_join_free=sjf,
        is_join_query=query.is_join_query(),
        is_boolean=query.is_boolean(),
        agm_exponent=rho,
        quantified_star_size=star,
        hard_witness=witness_text,
        trio_free_order=good_order,
        verdicts=tuple(verdicts),
    )


def _boolean_verdict(query, acyclic, rho, sjf, witness) -> TaskVerdict:
    if acyclic:
        return TaskVerdict(
            task="boolean",
            tractable=True,
            upper_bound="Õ(m) (Yannakakis)",
            lower_bound=None,
            theorem="Theorem 3.1 / 3.7",
        )
    assumptions = (
        (hyp.TRIANGLE,)
        if witness is not None and witness.kind == "cycle"
        else (hyp.HYPERCLIQUE,)
    )
    return TaskVerdict(
        task="boolean",
        tractable=False,
        upper_bound=f"Õ(m^{rho:.3f}) (worst-case-optimal join)",
        lower_bound="not Õ(m)" + ("" if sjf else " (lower bound stated for self-join free queries)"),
        theorem="Theorem 3.7 (via Theorem 3.6)",
        hypotheses=assumptions if sjf else (),
        note=(
            ""
            if sjf
            else "query has self-joins; Theorem 3.7's lower bound "
            "does not directly apply"
        ),
    )


def _counting_verdict(
    query, acyclic, free_connex, sjf, star, rho
) -> TaskVerdict:
    if query.is_boolean() and acyclic:
        return TaskVerdict(
            task="counting",
            tractable=True,
            upper_bound="Õ(m) (counting = deciding for Boolean queries)",
            lower_bound=None,
            theorem="Theorem 3.1",
        )
    if free_connex:
        return TaskVerdict(
            task="counting",
            tractable=True,
            upper_bound="Õ(m) (free-connex counting)",
            lower_bound=None,
            theorem="Theorem 3.13",
        )
    if acyclic:
        bound = None
        assumptions: tuple = ()
        if sjf:
            assumptions = (hyp.SETH,)
            if star >= 2:
                bound = f"not O(m^{star}-ε) (quantified star size {star})"
            else:
                bound = "not Õ(m^{2-ε})"
        return TaskVerdict(
            task="counting",
            tractable=False,
            upper_bound="O(full-join size) (enumerate and count)",
            lower_bound=bound,
            theorem="Theorem 3.12 / 3.13 / 4.6",
            hypotheses=assumptions,
            note="" if sjf else "self-joins: use interpolation "
            "(repro.counting.interpolation) to transfer hardness",
        )
    assumptions = (hyp.TRIANGLE, hyp.HYPERCLIQUE) if sjf else ()
    return TaskVerdict(
        task="counting",
        tractable=False,
        upper_bound=f"Õ(m^{rho:.3f}) (worst-case-optimal join + count)",
        lower_bound="not Õ(m) (cyclic: already hard to decide)" if sjf else None,
        theorem="Theorem 3.13 (via Theorem 3.7)",
        hypotheses=assumptions,
    )


def _enumeration_verdict(query, acyclic, free_connex, sjf) -> TaskVerdict:
    if query.is_boolean():
        return TaskVerdict(
            task="enumeration",
            tractable=acyclic,
            upper_bound="n/a (Boolean query)",
            lower_bound=None,
            theorem="—",
            note="Boolean queries are decided, not enumerated",
        )
    if free_connex:
        return TaskVerdict(
            task="enumeration",
            tractable=True,
            upper_bound="Õ(m) preprocessing + Õ(1) delay",
            lower_bound=None,
            theorem="Theorem 3.17",
        )
    if not sjf:
        return TaskVerdict(
            task="enumeration",
            tractable=False,
            upper_bound="materialize (full evaluation)",
            lower_bound=None,
            theorem="Section 3.3",
            note=(
                "query has self-joins: the enumeration complexity of "
                "cyclic self-join queries is not fully understood "
                "([14, 26]); no lower bound is claimed"
            ),
        )
    assumptions = (
        (hyp.SPARSE_BMM,)
        if acyclic
        else (hyp.TRIANGLE, hyp.HYPERCLIQUE, hyp.ZERO_K_CLIQUE)
    )
    return TaskVerdict(
        task="enumeration",
        tractable=False,
        upper_bound="materialize (full evaluation)",
        lower_bound=(
            "no Õ(m) preprocessing + Õ(1) delay"
        ),
        theorem=(
            "Theorem 3.16" if acyclic else "Theorem 3.14 / 4.5"
        ),
        hypotheses=assumptions,
    )


def _direct_access_verdict(query, acyclic, free_connex, sjf) -> TaskVerdict:
    if query.is_boolean():
        return TaskVerdict(
            task="direct-access",
            tractable=acyclic,
            upper_bound="n/a (Boolean query)",
            lower_bound=None,
            theorem="—",
            note="Boolean queries are decided, not accessed",
        )
    if free_connex:
        return TaskVerdict(
            task="direct-access",
            tractable=True,
            upper_bound=(
                "Õ(m) preprocessing + Õ(log m) access (some "
                "lexicographic order)"
            ),
            lower_bound=None,
            theorem="Theorem 3.18 / Corollary 3.22",
        )
    assumptions = (
        (hyp.TRIANGLE, hyp.HYPERCLIQUE) if sjf else ()
    )
    return TaskVerdict(
        task="direct-access",
        tractable=False,
        upper_bound="materialize and sort",
        lower_bound=(
            "no Õ(m) preprocessing + Õ(1) access" if sjf else None
        ),
        theorem="Theorem 3.18 / Corollary 3.22",
        hypotheses=assumptions,
    )


def _lex_order_verdict(query, acyclic, order, sjf) -> TaskVerdict:
    trio = find_disruptive_trio(query, order) if query.is_join_query() else None
    if query.is_join_query() and acyclic and trio is None:
        return TaskVerdict(
            task=f"direct-access-lex[{' > '.join(order)}]",
            tractable=True,
            upper_bound="Õ(m) preprocessing + Õ(log m) access",
            lower_bound=None,
            theorem="Theorem 3.24",
        )
    note = ""
    if trio is not None:
        note = f"disruptive trio {trio}"
    return TaskVerdict(
        task=f"direct-access-lex[{' > '.join(order)}]",
        tractable=False,
        upper_bound="materialize and sort",
        lower_bound=(
            "no Õ(m) preprocessing + Õ(1) access"
            if (trio is not None and sjf)
            else None
        ),
        theorem="Theorem 3.24 / Lemma 3.23",
        hypotheses=(hyp.TRIANGLE,) if (trio is not None and sjf) else (),
        note=note,
    )


def _dynamic_verdict(query, sjf) -> TaskVerdict:
    """Evaluation under updates, per the conclusion's pointer to [15].

    Berkholz–Keppeler–Schweikardt: for self-join free CQs, constant
    update time with constant answer/delay time iff q-hierarchical
    (hard side under the OMv conjecture, outside the paper's numbered
    hypotheses).
    """
    from repro.hypergraph.hierarchical import (
        is_q_hierarchical,
        q_hierarchical_violation,
    )

    if is_q_hierarchical(query):
        return TaskVerdict(
            task="dynamic",
            tractable=True,
            upper_bound="O(1) per update, O(1) answer time",
            lower_bound=None,
            theorem="[15] (survey conclusion)",
            note="q-hierarchical",
        )
    witness = q_hierarchical_violation(query)
    return TaskVerdict(
        task="dynamic",
        tractable=False,
        upper_bound="recompute from scratch per update",
        lower_bound=(
            "no O(m^{1/2-ε}) update + answer time" if sjf else None
        ),
        theorem="[15] (survey conclusion)",
        note=f"not q-hierarchical: {witness}"
        + ("" if sjf else "; dichotomy stated for self-join free queries"),
    )


def _aggregation_verdict(query, acyclic, rho) -> TaskVerdict:
    """Tropical (min,+) aggregation, Section 4.1.2 + 4.2.

    For acyclic join queries FAQ message passing is linear; for cyclic
    ones the clique-embedding search certifies an exponent lower bound
    under the Min-Weight-k-Clique Hypothesis.
    """
    from repro.reductions.embedding_search import (
        embedding_power_lower_bound,
    )

    if not query.is_join_query():
        return TaskVerdict(
            task="aggregation-tropical",
            tractable=False,
            upper_bound="aggregate after projection (superlinear)",
            lower_bound=None,
            theorem="Section 4.1.2",
            note="stated for join queries; project first",
        )
    if acyclic:
        return TaskVerdict(
            task="aggregation-tropical",
            tractable=True,
            upper_bound="Õ(m) (FAQ message passing over a join tree)",
            lower_bound=None,
            theorem="Section 4.1.2 / [59]",
        )
    power, embedding = embedding_power_lower_bound(
        query, max_clique_size=min(len(query.variables) + 1, 6)
    )
    detail = ""
    if embedding is not None:
        detail = (
            f"K{embedding.clique_size} embedding, max depth "
            f"{embedding.max_edge_depth()}"
        )
    return TaskVerdict(
        task="aggregation-tropical",
        tractable=False,
        upper_bound=f"Õ(m^{rho:.3f}) (worst-case-optimal + fold)",
        lower_bound=(
            f"not Õ(m^{power:.3f}-ε) via clique embedding"
            if power > 1
            else None
        ),
        theorem="Section 4.2 / [41]",
        hypotheses=(hyp.MIN_WEIGHT_K_CLIQUE,) if power > 1 else (),
        note=detail,
    )


def _sum_order_verdict(query, acyclic, sjf) -> TaskVerdict:
    if not query.is_join_query():
        return TaskVerdict(
            task="direct-access-sum",
            tractable=False,
            upper_bound="materialize and sort",
            lower_bound=None,
            theorem="Section 3.4.2",
            note="the paper's sum-order analysis is for join queries",
        )
    cover = covering_atom_index(query)
    if cover is not None and acyclic:
        return TaskVerdict(
            task="direct-access-sum",
            tractable=True,
            upper_bound="Õ(m) preprocessing (sort the covering atom)",
            lower_bound=None,
            theorem="Theorem 3.26",
            note=f"atom {cover} covers all variables",
        )
    return TaskVerdict(
        task="direct-access-sum",
        tractable=False,
        upper_bound="materialize and sort",
        lower_bound=(
            "no Õ(m) preprocessing + Õ(m^{1-ε}) access" if sjf else None
        ),
        theorem="Theorem 3.26 / Lemma 3.25",
        hypotheses=(hyp.THREESUM,) if sjf else (),
    )
