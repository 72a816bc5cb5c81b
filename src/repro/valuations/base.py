"""Valuation interface and the demand-oracle contract (Section 2.2).

A valuation maps channel bundles ``T ⊆ [k]`` to non-negative numbers; the
paper assumes *nothing* about it (not even monotonicity).  Algorithms access
valuations two ways:

* ``value(bundle)`` — direct queries, used by the LP on explicit supports
  and by welfare accounting;
* ``demand(prices)`` — the demand oracle: given per-channel prices ``p``
  (bidder-specific in our LP's dual separation), return a bundle maximizing
  ``value(T) − Σ_{j∈T} p_j`` together with that maximum utility.  The empty
  bundle (utility 0) is always a candidate.

Subclasses override :meth:`Valuation.demand` with an exact polynomial oracle
where one exists; the default enumerates all ``2^k`` bundles, which is also
the reference implementation tests compare against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations

import numpy as np

__all__ = ["Valuation", "enumerate_bundles", "EMPTY_BUNDLE"]

EMPTY_BUNDLE: frozenset[int] = frozenset()


def enumerate_bundles(k: int):
    """Yield every bundle of ``[k]`` including the empty one (2^k bundles)."""
    channels = range(k)
    for size in range(k + 1):
        for combo in combinations(channels, size):
            yield frozenset(combo)


class Valuation(ABC):
    """A single bidder's valuation over bundles of ``k`` channels."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("need at least one channel")
        self.k = k

    @abstractmethod
    def value(self, bundle: frozenset[int]) -> float:
        """b_{v,T} for the given bundle (must be ≥ 0 for T = ∅ ⇒ 0)."""

    def _check_bundle(self, bundle: frozenset[int]) -> None:
        if any(not 0 <= j < self.k for j in bundle):
            raise ValueError(f"bundle {sorted(bundle)} out of range for k={self.k}")

    def demand(self, prices: np.ndarray) -> tuple[frozenset[int], float]:
        """Utility-maximizing bundle under per-channel ``prices``.

        Default: brute force over all bundles (exponential in k; subclasses
        provide polynomial oracles).  Ties break toward smaller bundles so
        the empty bundle wins at utility 0.
        """
        p = self._check_prices(prices)
        best, best_util = EMPTY_BUNDLE, 0.0
        for bundle in enumerate_bundles(self.k):
            util = self.value(bundle) - sum(p[j] for j in bundle)
            if util > best_util + 1e-12:
                best, best_util = bundle, util
        return best, float(best_util)

    def _check_prices(self, prices: np.ndarray) -> np.ndarray:
        p = np.asarray(prices, dtype=float)
        if p.shape != (self.k,):
            raise ValueError(f"prices must have shape ({self.k},)")
        return p

    def support(self) -> list[frozenset[int]] | None:
        """Bundles that may carry positive value, when finitely describable.

        Explicit-style valuations return their bid list so LPs can enumerate
        columns directly; oracle-only valuations return ``None``.
        """
        return None

    def support_items(self) -> list[tuple[frozenset[int], float]] | None:
        """``(bundle, value(bundle))`` pairs over :meth:`support`.

        Column enumeration calls this once per bidder instead of one
        :meth:`value` query per support bundle; subclasses override it when
        they can produce the pairs faster than repeated queries.  Order and
        values must match ``[(T, value(T)) for T in support()]`` exactly.
        """
        supp = self.support()
        if supp is None:
            return None
        return [(bundle, self.value(bundle)) for bundle in supp]

    def max_value(self) -> float:
        """max_T b_{v,T}; default via a zero-price demand query."""
        _, util = self.demand(np.zeros(self.k))
        return util
