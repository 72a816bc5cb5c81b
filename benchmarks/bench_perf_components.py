"""Component performance benchmarks (proper multi-round timing).

Unlike the experiment benches (single-shot pedantic runs of whole
experiments), these time the hot components of the pipeline with
pytest-benchmark's statistical machinery, so regressions in the LP
assembly, the solver, the rounding, the rho computation, or the batch
engine show up as timing shifts.  ``bench_engine.py`` is the companion
one-shot script that persists the engine-vs-seed numbers to
``BENCH_engine.json``.
"""

import numpy as np
import pytest

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLP
from repro.core.conflict_resolution import check_condition5, make_fully_feasible
from repro.core.derandomize import derandomize_rounding
from repro.core.rounding import round_unweighted
from repro.engine import (
    BatchAuctionEngine,
    CompiledAuction,
    round_batch,
    stack_draws,
)
from repro.experiments.workloads import (
    metro_disk_auction,
    physical_auction,
    protocol_auction,
    protocol_auction_fleet,
)
from repro.graphs.conflict_graph import VertexOrdering
from repro.graphs.inductive import inductive_independence_number
from repro.graphs.weighted_graph import WeightedConflictGraph
from repro.geometry.disks import random_disk_instance
from repro.interference.base import WeightedConflictStructure
from repro.util.rng import spawn_rngs
from repro.valuations.explicit import XORValuation


@pytest.fixture(scope="module")
def problem():
    return protocol_auction(40, 8, seed=900)


@pytest.fixture(scope="module")
def lp_solution(problem):
    return AuctionLP(problem).solve()


def test_perf_lp_build(benchmark, problem):
    lp = AuctionLP(problem)
    benchmark(lp.build)


def test_perf_lp_solve(benchmark, problem):
    lp = AuctionLP(problem)
    benchmark(lp.solve)


def test_perf_rounding(benchmark, problem, lp_solution):
    rng = np.random.default_rng(901)
    benchmark(lambda: round_unweighted(problem, lp_solution, rng))


def test_perf_derandomize(benchmark, problem, lp_solution):
    benchmark(lambda: derandomize_rounding(problem, lp_solution))


def test_perf_exact_rho_disk(benchmark):
    inst = random_disk_instance(60, seed=902)
    benchmark(lambda: inductive_independence_number(inst.graph))


def test_perf_weighted_lp_pipeline(benchmark):
    problem = physical_auction(25, 4, seed=903)

    def pipeline():
        from repro.core.conflict_resolution import make_fully_feasible
        from repro.core.rounding import round_weighted

        lp = AuctionLP(problem).solve()
        partly, _ = round_weighted(problem, lp, np.random.default_rng(904))
        return make_fully_feasible(problem, partly)

    benchmark(pipeline)


# ----------------------------------------------------------------------
# mechanism-path kernels at metro scale (n >= 300): the vectorized
# derandomization estimator and Algorithm 3 — statistical regression
# coverage for the PR 5 fast path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def metro_problem():
    return metro_disk_auction(300, 4, seed=910, bids_per_bidder=3)


@pytest.fixture(scope="module")
def metro_lp_solution(metro_problem):
    return CompiledAuction(metro_problem).solve_lp()


def test_perf_derandomize_n300(benchmark, metro_problem, metro_lp_solution):
    benchmark(lambda: derandomize_rounding(metro_problem, metro_lp_solution))


@pytest.fixture(scope="module")
def weighted_resolution_case():
    """A dense-winner Algorithm 3 workload: n=400 vertices all allocated,
    sparse symmetric w̄ rescaled so Condition (5) holds with margin while
    the per-vertex totals still force multiple peel rounds."""
    n = 400
    rng = np.random.default_rng(911)
    w = np.zeros((n, n))
    for v in range(n):
        nbrs = rng.choice(n, size=8, replace=False)
        w[v, nbrs] = rng.uniform(0.05, 0.4, size=8)
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    # scale so the largest backward w̄ sum (w̄ = w + wᵀ doubles the entries)
    # is 0.45 — Condition (5) holds with margin
    backward = np.tril(w + w.T, -1).sum(axis=1).max()
    w *= 0.45 / backward
    structure = WeightedConflictStructure(
        WeightedConflictGraph(w), VertexOrdering.identity(n), rho=1.0
    )
    vals = [XORValuation(1, {frozenset({0}): float(1 + v % 7)}) for v in range(n)]
    problem = AuctionProblem(structure, 1, vals)
    allocation = {v: frozenset({0}) for v in range(n)}
    assert check_condition5(problem, allocation)
    return problem, allocation


def test_perf_condition5_n400(benchmark, weighted_resolution_case):
    problem, allocation = weighted_resolution_case
    benchmark(lambda: check_condition5(problem, allocation))


def test_perf_algorithm3_n400(benchmark, weighted_resolution_case):
    problem, allocation = weighted_resolution_case
    result = benchmark(lambda: make_fully_feasible(problem, allocation))
    assert problem.is_feasible(result.allocation)


# ----------------------------------------------------------------------
# engine path
# ----------------------------------------------------------------------
def test_perf_engine_compile(benchmark, problem):
    benchmark(lambda: CompiledAuction(problem))


def test_perf_engine_lp_solve(benchmark, problem):
    def compile_and_solve():
        return CompiledAuction(problem).solve_lp()

    benchmark(compile_and_solve)


def test_perf_engine_vectorized_rounding(benchmark, problem):
    compiled = CompiledAuction(problem)
    solution = compiled.solve_lp()
    plan = compiled.rounding_plan(solution)

    def vectorized_20():
        draws = stack_draws(spawn_rngs(901, 20), plan.width)
        return round_batch(compiled, plan, draws)

    benchmark(vectorized_20)


def test_perf_loop_rounding_20(benchmark, problem, lp_solution):
    def loop_20():
        return [
            round_unweighted(problem, lp_solution, child)
            for child in spawn_rngs(901, 20)
        ]

    benchmark(loop_20)


def test_perf_engine_batch_fleet(benchmark):
    fleet = protocol_auction_fleet(2, 5, 30, 4, seed=905)
    engine = BatchAuctionEngine()
    benchmark(lambda: engine.solve_many(fleet, seed=906))
