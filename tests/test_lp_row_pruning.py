"""Differential tests for solving LP (1)/(4) on the rows that can bind.

Every solve drops the packing rows (v, j) whose worst-case load — the
κ(u, v) of the distinct vertices u holding a column on channel j — is at
most ρ, since the vertex rows already cap each bidder's mass at 1.  These
tests solve the same LPs with every row and check that nothing the paper
relies on moves: the optimum, primal feasibility on the full row set,
and an optimal dual of the full LP after the scatter.  They also pin that
the engine and the reference keep the same rows, and that column
generation, whose new columns can bring a dropped row back, still reaches
the enumerated optimum.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLP, Column
from repro.core.column_generation import solve_with_column_generation
from repro.core.lp import solve_packing_lp
from repro.engine.compiled import CompiledAuction
from repro.experiments.workloads import (
    metro_disk_auction,
    physical_auction,
    protocol_auction,
)
from repro.graphs.conflict_graph import VertexOrdering
from repro.graphs.generators import clique
from repro.interference.base import ConflictStructure
from repro.valuations.explicit import XORValuation
from repro.valuations.generators import random_xor_valuations

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def clique_auction(n: int, k: int, seed: int) -> AuctionProblem:
    """A ρ=1 clique: every earlier vertex is a backward neighbour."""
    structure = ConflictStructure(clique(n), VertexOrdering.identity(n), 1.0)
    vals = random_xor_valuations(n, k, bids_per_bidder=2, seed=seed)
    return AuctionProblem(structure, k, vals)


FAMILIES = {
    "protocol": lambda n, k, seed: protocol_auction(n, k, seed=seed),
    "physical": lambda n, k, seed: physical_auction(n, k, seed=seed),
    "metro_disk": lambda n, k, seed: metro_disk_auction(n, k, seed=seed),
    "clique_rho1": clique_auction,
}
SIZES = {
    "protocol": (8, 40),
    "physical": (6, 24),
    "metro_disk": (20, 300),
    "clique_rho1": (3, 14),
}


def check_against_full_lp(problem: AuctionProblem) -> None:
    lp = AuctionLP(problem)
    a, b, c = lp.build()
    full = solve_packing_lp(c, a, b)
    pruned = lp.solve()
    rows = lp.binding_rows()
    # the optimum does not move
    assert pruned.value == pytest.approx(full.value, rel=1e-9, abs=1e-12)
    # the pruned x is feasible for every row of the paper's LP
    assert np.all(pruned.x >= -1e-12)
    assert np.all(a @ pruned.x <= b + 1e-9)
    # the scattered duals are an optimal dual of the full LP
    duals = np.concatenate([pruned.y.ravel(), pruned.z])
    assert np.all(duals >= 0)
    assert np.all(a.T @ duals >= c - 1e-7)
    assert float(b @ duals) == pytest.approx(pruned.value, rel=1e-9, abs=1e-9)
    dropped = np.setdiff1d(np.arange(b.size), rows)
    assert np.all(duals[dropped] == 0.0)
    # every vertex row is kept
    n, k = problem.n, problem.k
    assert np.array_equal(rows[-n:], n * k + np.arange(n))
    # the engine keeps the same rows and solves the same LP
    compiled = CompiledAuction(problem)
    assert np.array_equal(compiled.binding_rows(), rows)
    a_kept, b_kept, c_kept = compiled.matrices_csc()
    assert (a_kept != a[rows]).nnz == 0
    assert np.array_equal(b_kept, b[rows]) and np.array_equal(c_kept, c)
    engine = compiled.solve_lp()
    assert engine.value == pytest.approx(pruned.value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_pruned_lp_matches_full_lp(family, data):
    lo, hi = SIZES[family]
    n = data.draw(st.integers(lo, hi), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    check_against_full_lp(FAMILIES[family](n, k, seed))


def test_metro_scene_drops_rows():
    """The rule bites on the metro scenes the serving stack runs."""
    problem = metro_disk_auction(300, 4, seed=1)
    compiled = CompiledAuction(problem)
    full_rows = compiled.build()[0].shape[0]
    kept = compiled.matrices_csc()[0].shape[0]
    assert full_rows == 300 * 4 + 300
    assert kept < 0.6 * full_rows


def test_rho1_clique_keeps_exactly_the_overloaded_rows():
    """ρ=1, κ=1: row (v, j) binds iff at least two earlier vertices own j."""
    n, k = 6, 2
    problem = clique_auction(n, k, seed=3)
    lp = AuctionLP(problem)
    owns = np.zeros((n, k), dtype=bool)
    for col in lp.columns:
        owns[col.vertex, list(col.bundle)] = True
    earlier_owners = np.cumsum(owns, axis=0) - owns
    expected = np.flatnonzero((earlier_owners > 1).ravel())
    rows = lp.binding_rows()
    assert np.array_equal(rows[: expected.size], expected)
    assert rows.size == expected.size + n


def test_column_generation_brings_back_a_pruned_row():
    """Vertex 1's generated column turns row (2, 0) from implied to binding.

    ρ=1 clique on three vertices, one channel.  Starting from the columns
    of vertices 0 and 2, row (2, 0) sees only vertex 0 (load 1 ≤ ρ) and is
    dropped, so its dual is 0 and vertex 1 prices channel 0 at zero: the
    oracle adds vertex 1's column, the row binds again, and the final
    restricted LP must reach the enumerated optimum.
    """
    n = 3
    structure = ConflictStructure(clique(n), VertexOrdering.identity(n), 1.0)
    vals = [XORValuation(1, {frozenset({0}): 1.0}) for _ in range(n)]
    problem = AuctionProblem(structure, 1, vals)
    initial = [Column(0, frozenset({0}), 1.0), Column(2, frozenset({0}), 1.0)]
    first_rows = AuctionLP(problem, columns=initial).binding_rows()
    assert 2 not in first_rows  # row (2, 0) is implied by x_0 ≤ 1
    result = solve_with_column_generation(problem, initial_columns=initial)
    assert result.converged and result.columns_generated == 1
    final_rows = AuctionLP(problem, columns=result.solution.columns).binding_rows()
    assert 2 in final_rows
    enumerated = AuctionLP(problem).solve().value
    assert result.solution.value == pytest.approx(enumerated, rel=1e-9)
    assert enumerated == pytest.approx(2.0)


@SETTINGS
@given(
    n=st.integers(4, 12),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_column_generation_reaches_enumerated_value(n, k, seed):
    problem = clique_auction(n, k, seed)
    result = solve_with_column_generation(problem)
    assert result.converged
    enumerated = AuctionLP(problem).solve().value
    assert result.solution.value == pytest.approx(enumerated, rel=1e-9, abs=1e-9)
