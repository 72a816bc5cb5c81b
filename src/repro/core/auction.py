"""Problem statement objects: combinatorial auctions with conflict graphs.

An :class:`AuctionProblem` bundles everything Problem 1 needs — a conflict
structure (graph + ordering + ρ), the channel count ``k``, and one valuation
per vertex.  Allocations are ``dict[vertex, frozenset[channel]]``; vertices
absent from the dict hold the empty bundle.

The valuations are a list of :class:`~repro.valuations.base.Valuation`
objects or, for bid-list bidders, one array-backed
:class:`~repro.valuations.profile.Profile` — the form the service and the
wire carry, whose LP columns the engine enumerates without per-bidder
objects.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

from repro.interference.base import ConflictStructure, WeightedConflictStructure
from repro.util.validation import check_allocation_feasible
from repro.valuations.base import Valuation
from repro.valuations.profile import Profile

__all__ = ["AuctionProblem", "Allocation", "social_welfare"]

Allocation = dict[int, frozenset[int]]

Structure = Union[ConflictStructure, WeightedConflictStructure]


def social_welfare(valuations: Sequence[Valuation], allocation: Allocation) -> float:
    """Σ_v b_v(S(v)) — the objective of Problem 1.

    A :class:`Profile` answers each ``b_v(S(v))`` from its arrays (the
    same float a materialized valuation returns), summed in the same
    order, so the total is bit-identical either way.
    """
    if isinstance(valuations, Profile):
        return float(
            sum(valuations.value(v, bundle) for v, bundle in allocation.items() if bundle)
        )
    return float(
        sum(valuations[v].value(bundle) for v, bundle in allocation.items() if bundle)
    )


@dataclass
class AuctionProblem:
    """A combinatorial auction with conflict graph (Problem 1)."""

    structure: Structure
    k: int
    valuations: Sequence[Valuation]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one channel")
        if len(self.valuations) != self.structure.n:
            raise ValueError(
                f"{self.structure.n} vertices but {len(self.valuations)} valuations"
            )
        if isinstance(self.valuations, Profile):
            if self.valuations.k != self.k:
                raise ValueError(f"profile has k={self.valuations.k}, not k={self.k}")
            return
        bad = [i for i, v in enumerate(self.valuations) if v.k != self.k]
        if bad:
            raise ValueError(f"valuations {bad} disagree with k={self.k}")

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def is_weighted(self) -> bool:
        return isinstance(self.structure, WeightedConflictStructure)

    @property
    def graph(self):
        return self.structure.graph

    @property
    def ordering(self):
        return self.structure.ordering

    @property
    def rho(self) -> float:
        return self.structure.rho

    def welfare(self, allocation: Allocation) -> float:
        return social_welfare(self.valuations, allocation)

    def is_feasible(self, allocation: Allocation) -> bool:
        """Re-validate per-channel independence against the conflict graph."""
        return check_allocation_feasible(self.graph, allocation, self.k)

    def approximation_bound(self) -> float:
        """The paper's guarantee for this problem class.

        Theorem 3 for unweighted graphs (8√k·ρ); Lemmas 7+8 for weighted
        graphs (16√k·ρ·⌈log₂ n⌉).
        """
        import math

        base = 8.0 * math.sqrt(self.k) * self.rho
        if self.is_weighted:
            return 2.0 * base * max(1, math.ceil(math.log2(max(2, self.n))))
        return base
