"""Bidder valuations with exact demand oracles, and their columnar
:class:`Profile` form."""

from repro.valuations.additive import (
    AdditiveValuation,
    BudgetedAdditiveValuation,
    CappedAdditiveValuation,
    UnitDemandValuation,
)
from repro.valuations.base import EMPTY_BUNDLE, Valuation, enumerate_bundles
from repro.valuations.explicit import (
    ExplicitValuation,
    SingleMindedValuation,
    XORValuation,
)
from repro.valuations.generators import (
    all_or_nothing_valuations,
    random_additive_valuations,
    random_budgeted_valuations,
    random_capped_additive_valuations,
    random_mixed_valuations,
    random_single_minded_valuations,
    random_unit_demand_valuations,
    random_xor_valuations,
)
from repro.valuations.oracles import brute_force_demand, verify_demand_oracle
from repro.valuations.profile import Profile

__all__ = [
    "Valuation",
    "EMPTY_BUNDLE",
    "enumerate_bundles",
    "ExplicitValuation",
    "XORValuation",
    "SingleMindedValuation",
    "AdditiveValuation",
    "UnitDemandValuation",
    "CappedAdditiveValuation",
    "BudgetedAdditiveValuation",
    "Profile",
    "brute_force_demand",
    "verify_demand_oracle",
    "random_xor_valuations",
    "random_additive_valuations",
    "random_unit_demand_valuations",
    "random_capped_additive_valuations",
    "random_budgeted_valuations",
    "random_single_minded_valuations",
    "all_or_nothing_valuations",
    "random_mixed_valuations",
]
