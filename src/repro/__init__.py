"""repro — Approximation Algorithms for Secondary Spectrum Auctions.

A full reproduction of Hoefer, Kesselheim, Vöcking (SPAA 2011,
arXiv:1007.5032): combinatorial auctions with (edge-weighted) conflict
graphs, the inductive-independence LP relaxation, randomized/derandomized
rounding, every Section-4 interference model, and the Lavi–Swamy truthful
mechanism.

Quick start::

    from repro import (
        AuctionProblem, SpectrumAuctionSolver,
        protocol_model, random_links, random_xor_valuations,
    )

    links = random_links(30, seed=0)
    structure = protocol_model(links, delta=1.0)
    vals = random_xor_valuations(30, k=4, seed=1)
    problem = AuctionProblem(structure, 4, vals)
    result = SpectrumAuctionSolver(problem).solve(seed=2)
    print(result.welfare, result.feasible)

Fleets of auctions go through the batch engine instead of a solver loop::

    from repro import BatchAuctionEngine
    batch = BatchAuctionEngine().solve_many(problems, seed=3)

Long-lived request serving goes through the auction service
(:mod:`repro.service`): register scenes, submit requests (or replay an
open-loop traffic trace), read the metrics::

    from repro import AuctionService
    service = AuctionService()
    scene_id = service.register_scene(structure)

See DESIGN.md for the system inventory, the engine and service
architecture, and the experiment index; BENCH_engine.json,
BENCH_scale.json, and BENCH_service.json record the performance
baselines that CI's regression gate enforces.
"""

from repro.core import (
    Allocation,
    AsymmetricAuctionLP,
    AsymmetricAuctionProblem,
    AuctionLP,
    AuctionProblem,
    SolverResult,
    SpectrumAuctionSolver,
    derandomize_rounding,
    greedy_channel_allocation,
    make_fully_feasible,
    round_asymmetric,
    round_unweighted,
    round_weighted,
    social_welfare,
    solve_exact,
    solve_with_column_generation,
)
from repro.geometry import (
    LinkSet,
    random_disk_instance,
    random_links,
    random_metric_links,
)
from repro.graphs import (
    ConflictGraph,
    VertexOrdering,
    WeightedConflictGraph,
    inductive_independence_number,
    rho_of_ordering,
    weighted_rho_of_ordering,
)
from repro.interference import (
    PhysicalModel,
    civilized_distance2_model,
    disk_transmitter_model,
    distance2_coloring_model,
    distance2_matching_model,
    ieee80211_model,
    kesselheim_power_assignment,
    linear_power,
    mean_power,
    min_power_assignment,
    physical_model_structure,
    power_control_structure,
    protocol_model,
    uniform_power,
)
from repro.engine import (
    BatchAuctionEngine,
    BatchResult,
    CompiledAuction,
    compile_auction,
    compile_structure,
)
from repro.io import load_problem, problem_from_dict, problem_to_dict, save_problem
from repro.service import AuctionRequest, AuctionService, SceneRegistry
from repro.mechanism import TruthfulMechanism, decompose_lp_solution, vcg_payments
from repro.valuations import (
    AdditiveValuation,
    BudgetedAdditiveValuation,
    CappedAdditiveValuation,
    ExplicitValuation,
    Profile,
    SingleMindedValuation,
    UnitDemandValuation,
    Valuation,
    XORValuation,
    random_additive_valuations,
    random_mixed_valuations,
    random_xor_valuations,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "AuctionProblem",
    "Allocation",
    "social_welfare",
    "SpectrumAuctionSolver",
    "SolverResult",
    "BatchAuctionEngine",
    "BatchResult",
    "CompiledAuction",
    "compile_auction",
    "compile_structure",
    "AuctionService",
    "AuctionRequest",
    "SceneRegistry",
    "AuctionLP",
    "solve_with_column_generation",
    "solve_exact",
    "round_unweighted",
    "round_weighted",
    "make_fully_feasible",
    "derandomize_rounding",
    "greedy_channel_allocation",
    "AsymmetricAuctionProblem",
    "AsymmetricAuctionLP",
    "round_asymmetric",
    "ConflictGraph",
    "WeightedConflictGraph",
    "VertexOrdering",
    "inductive_independence_number",
    "rho_of_ordering",
    "weighted_rho_of_ordering",
    "LinkSet",
    "random_links",
    "random_metric_links",
    "random_disk_instance",
    "protocol_model",
    "ieee80211_model",
    "disk_transmitter_model",
    "distance2_coloring_model",
    "distance2_matching_model",
    "civilized_distance2_model",
    "PhysicalModel",
    "physical_model_structure",
    "power_control_structure",
    "uniform_power",
    "linear_power",
    "mean_power",
    "kesselheim_power_assignment",
    "min_power_assignment",
    "Valuation",
    "XORValuation",
    "ExplicitValuation",
    "SingleMindedValuation",
    "AdditiveValuation",
    "UnitDemandValuation",
    "CappedAdditiveValuation",
    "BudgetedAdditiveValuation",
    "Profile",
    "random_xor_valuations",
    "random_additive_valuations",
    "random_mixed_valuations",
    "TruthfulMechanism",
    "decompose_lp_solution",
    "vcg_payments",
    "save_problem",
    "load_problem",
    "problem_to_dict",
    "problem_from_dict",
]
