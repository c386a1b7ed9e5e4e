"""Commutative semiring abstraction and the standard instances.

Each semiring optionally carries *NumPy kernels* — a ``⊕`` ufunc (with
``reduceat``), an array-capable ``⊗``, and a weight-column dtype — so
the vectorized FAQ message passing of :mod:`repro.semiring.faq` can run
whole weight columns through segment reduces instead of folding Python
scalars.  Semirings without native kernels still vectorize through the
:func:`numpy.frompyfunc` escape hatch over object arrays: the grouping
stays columnar, only the per-element fold is Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring ``(K, plus, times, zero, one)``.

    ``zero`` is the ⊕-identity (and ⊗-annihilator), ``one`` the
    ⊗-identity.  No algebraic checking is done at construction; the
    property-based tests verify the laws for the shipped instances.

    ``np_plus`` / ``np_times`` / ``np_dtype``, when provided, are the
    vectorized counterparts of ``plus`` / ``times`` over NumPy arrays
    of ``np_dtype`` (``np_plus`` must be a ufunc supporting
    ``reduceat``).  :meth:`kernels` falls back to object-dtype
    ``frompyfunc`` wrappers when they are absent, so every semiring is
    usable by the columnar aggregation path.

    ``np_negate``, when provided, is the ⊕-inverse kernel (the semiring
    is then a *ring* in ⊕, e.g. counting over ℤ).  Incremental
    maintenance (:class:`repro.semiring.faq.AggregateMaintainer`) uses
    it to fold tuple *deletions* as negated delta messages; semirings
    without it (Boolean, tropical — their ⊕ is idempotent and has no
    inverse) fall back to a full recompute on deletions.
    """

    name: str
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    np_plus: Optional[Any] = None
    np_times: Optional[Any] = None
    np_dtype: Optional[Any] = None
    np_negate: Optional[Any] = None

    def sum(self, values: Iterable[Any]) -> Any:
        """⊕-fold with the correct identity."""
        total = self.zero
        for value in values:
            total = self.plus(total, value)
        return total

    def product(self, values: Iterable[Any]) -> Any:
        """⊗-fold with the correct identity."""
        total = self.one
        for value in values:
            total = self.times(total, value)
        return total

    # ------------------------------------------------------------------
    # vectorized kernels
    # ------------------------------------------------------------------
    def kernels(self) -> Tuple[Any, Any, Any]:
        """``(plus_ufunc, times_fn, dtype)`` for array aggregation.

        Native kernels when declared; otherwise ``frompyfunc`` lifts of
        the scalar operations over ``object`` arrays — slower per
        element but structurally identical, so the vectorized message
        passing never needs a scalar code path.
        """
        if self.np_plus is not None:
            return self.np_plus, self.np_times, self.np_dtype
        return _object_kernels(self)

    def unit_column(self, length: int) -> np.ndarray:
        """A weight column of ``length`` copies of ``one``."""
        _, _, dtype = self.kernels()
        if np.dtype(dtype) == np.dtype(object):
            # np.full would *broadcast* a sequence-valued identity
            # (e.g. a pair semiring's ``one``) instead of repeating it.
            column = np.empty(length, dtype=object)
            column.fill(self.one)
            return column
        return np.full(length, self.one, dtype=dtype)

    def as_scalar(self, value: Any) -> Any:
        """A NumPy scalar back as the plain Python value.

        Keeps the vectorized aggregates byte-compatible with a fold
        over Python values: counting returns ``int``, Boolean ``bool``.
        """
        return value.item() if isinstance(value, np.generic) else value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"


@lru_cache(maxsize=None)
def _object_kernels(semiring: Semiring) -> Tuple[Any, Any, Any]:
    """Object-dtype fallback kernels (the generic-semiring escape hatch)."""
    return (
        np.frompyfunc(semiring.plus, 2, 1),
        np.frompyfunc(semiring.times, 2, 1),
        np.dtype(object),
    )


BOOLEAN = Semiring(
    name="boolean",
    plus=lambda a, b: a or b,
    times=lambda a, b: a and b,
    zero=False,
    one=True,
    np_plus=np.logical_or,
    np_times=np.logical_and,
    np_dtype=np.bool_,
)

# int64 weight columns: exact as long as intermediate counts stay below
# 2^63, which covers every workload here by orders of magnitude (scalar
# weight functions returning Python ints fold exactly in object columns).
COUNTING = Semiring(
    name="counting",
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    zero=0,
    one=1,
    np_plus=np.add,
    np_times=np.multiply,
    np_dtype=np.int64,
    np_negate=np.negative,
)

# The tropical semiring: ⊕ = min, ⊗ = +.  Aggregating the k-clique join
# query over it is Min-Weight-k-Clique (paper Section 4.1.2).  float64
# columns represent the ±inf identities exactly.
MIN_PLUS = Semiring(
    name="min-plus",
    plus=min,
    times=lambda a, b: a + b,
    zero=math.inf,
    one=0,
    np_plus=np.minimum,
    np_times=np.add,
    np_dtype=np.float64,
)

MAX_PLUS = Semiring(
    name="max-plus",
    plus=max,
    times=lambda a, b: a + b,
    zero=-math.inf,
    one=0,
    np_plus=np.maximum,
    np_times=np.add,
    np_dtype=np.float64,
)
