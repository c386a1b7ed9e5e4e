"""Deterministic random number generation helpers.

All workload generators in :mod:`repro.workloads` take either an integer
seed or an already-constructed :class:`random.Random`.  Centralizing the
coercion here keeps every experiment reproducible run-to-run.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Tuple, Union

SeedLike = Union[int, random.Random, None]


def make_rng(seed: SeedLike = None) -> random.Random:
    """Coerce ``seed`` into a :class:`random.Random` instance.

    Passing an existing ``Random`` returns it unchanged so that callers
    can thread one generator through several generation steps.  Passing
    ``None`` yields a generator seeded with a fixed default (0) rather
    than OS entropy: experiments must be reproducible by default.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random(0)
    return random.Random(seed)


def sample_distinct_pairs(
    rng: random.Random,
    universe: int,
    count: int,
    ordered: bool = True,
) -> List[Tuple[int, int]]:
    """Sample ``count`` distinct pairs over ``range(universe)``.

    Used by graph and relation generators.  With ``ordered=False`` the
    pairs are undirected edges (returned with the smaller endpoint
    first).  Raises :class:`ValueError` when more pairs are requested
    than exist.
    """
    if universe < 2:
        raise ValueError("universe must contain at least two elements")
    max_pairs = universe * (universe - 1)
    if not ordered:
        max_pairs //= 2
    if count > max_pairs:
        raise ValueError(
            f"requested {count} distinct pairs but only {max_pairs} exist"
        )
    seen = set()
    result: List[Tuple[int, int]] = []
    # Rejection sampling is fine: callers request sparse subsets.  Fall
    # back to full enumeration when the request is a large fraction.
    if count > max_pairs // 2:
        all_pairs = [
            (a, b)
            for a in range(universe)
            for b in range(universe)
            if a != b and (ordered or a < b)
        ]
        rng.shuffle(all_pairs)
        return all_pairs[:count]
    while len(result) < count:
        a = rng.randrange(universe)
        b = rng.randrange(universe)
        if a == b:
            continue
        if not ordered and a > b:
            a, b = b, a
        if (a, b) in seen:
            continue
        seen.add((a, b))
        result.append((a, b))
    return result


def shuffled(rng: random.Random, items: Iterable) -> list:
    """Return a new shuffled list of ``items`` (the input is untouched)."""
    out = list(items)
    rng.shuffle(out)
    return out
