"""The compiled pricing round against the reference derandomizer.

``pricing="approx"`` builds its round-independent state once per
decomposition (``_CompiledPricer``: the penalty pairs over every support
column, the master's growing CSC arrays, the unweighted resolver's
backward lists) and runs each round on array slices.  Each round must be
exactly :func:`~repro.core.derandomize.derandomize_rounding` on the
adjusted problem: same allocation (in the same order), same estimator
values, same chosen class, same penalty matrices.  A whole decomposition
must stay bit-identical to ``pricing="reference"`` at the perfbench
workload's scale, and must not depend on what the same structures
decomposed before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLPSolution, Column
from repro.core.conflict_resolution import make_fully_feasible
from repro.core.derandomize import _Estimator, derandomize_rounding
from repro.core.rounding import default_scale
from repro.core.solver import SpectrumAuctionSolver
from repro.engine.compiled import compile_structure
from repro.engine.highs import solve_packing_lp_fast
from repro.experiments.workloads import metro_disk_scene, metro_truthful_auction
from repro.geometry.disks import random_disk_instance
from repro.geometry.links import random_links
from repro.interference.disk import disk_transmitter_model, distance2_coloring_model
from repro.interference.physical import linear_power, physical_model_structure
from repro.interference.protocol import protocol_model
from repro.mechanism.lavi_swamy import _AdjustedBids, _CompiledPricer, decompose_lp_solution
from repro.valuations.generators import random_xor_valuations


def build_problem(model: str) -> AuctionProblem:
    if model == "disk":
        structure = disk_transmitter_model(random_disk_instance(16, seed=191))
        k = 3
    elif model == "protocol":
        links = random_links(14, seed=181, length_range=(0.04, 0.12))
        structure = protocol_model(links, delta=1.0)
        k = 4
    elif model == "physical":
        links = random_links(10, seed=183, length_range=(0.03, 0.1))
        structure = physical_model_structure(links, linear_power(links, 3.0))
        k = 2
    elif model == "distance2":
        structure = distance2_coloring_model(random_disk_instance(14, seed=195))
        k = 3
    elif model == "duplicate_bids":  # columns doubled in the test below
        structure = disk_transmitter_model(random_disk_instance(16, seed=197))
        k = 3
    else:  # one channel: every bundle is in the |T| <= √k class
        links = random_links(14, seed=187, length_range=(0.04, 0.12))
        structure = protocol_model(links, delta=1.0)
        k = 1
    valuations = random_xor_valuations(structure.n, k, seed=7, bids_per_bidder=2)
    return AuctionProblem(structure, k, valuations)


MODELS = ["disk", "protocol", "physical", "distance2", "duplicate_bids", "empty_class"]


def reference_round(problem, columns, objective, x):
    """What the reference oracle does with one pricing LP solution."""
    adjusted = _AdjustedBids(problem, columns).problem(objective)
    solution = AuctionLPSolution(
        columns=[
            Column(col.vertex, col.bundle, value)
            for col, value in zip(columns, objective.tolist())
        ],
        x=x,
        value=0.0,
        y=np.zeros((problem.n, problem.k)),
        z=np.zeros(problem.n),
    )
    return adjusted, solution, derandomize_rounding(adjusted, solution)


@pytest.mark.parametrize("model", MODELS)
def test_round_equals_reference_derandomizer(model):
    problem = build_problem(model)
    lp = SpectrumAuctionSolver(problem).solve_lp("explicit")
    columns = [col for col, _ in lp.support()]
    if model == "duplicate_bids":
        # a second column per support pair: columns sharing a (vertex,
        # bundle) are one adjusted bid, valued at the larger dual
        columns += [Column(col.vertex, col.bundle, col.value / 2) for col in columns]
    pricer = _CompiledPricer(problem, columns)
    rng = np.random.default_rng(11)
    objectives = [np.array([c.value for c in columns])]
    for _ in range(6):
        objective = rng.random(len(columns)) * 3.0
        objective[rng.random(len(columns)) < 0.3] = 0.0  # duals at zero
        if model == "duplicate_bids":  # each copy one ulp above its twin
            half = len(columns) // 2
            objective[half:] = np.nextafter(objective[:half], np.inf)
        objectives.append(objective)
    empty_classes = 0
    for objective in objectives:
        x = solve_packing_lp_fast(objective, pricer._a, pricer._b, solver="simplex").x
        rounded = pricer.round(objective, x)
        adjusted, solution, reference = reference_round(problem, columns, objective, x)
        assert list(rounded.resolved.items()) == list(reference.allocation.items())
        assert rounded.estimator_values == reference.estimator_values
        assert rounded.class_values == reference.report.class_values
        assert rounded.chosen_class == reference.report.chosen_class
        final = reference.allocation
        if problem.is_weighted:
            final = make_fully_feasible(adjusted, final).allocation
        assert list(rounded.allocation.items()) == list(final.items())
        assert problem.is_feasible(rounded.allocation)
        # the sliced penalty matrices are the reference's, bit for bit
        support = x > 1e-9
        threshold = np.sqrt(problem.k)
        for large in (False, True):
            entries = np.flatnonzero(
                support & ((pricer._large if large else ~pricer._large))
            )
            empty_classes += entries.size == 0
            sliced = pricer._estimator(entries, objective, x)
            built = _Estimator(
                adjusted,
                [
                    (col.vertex, col.bundle, col.value, xv)
                    for col, xv in solution.support()
                    if (len(col.bundle) > threshold) == large
                ],
                default_scale(adjusted),
            )
            for ours, theirs in (
                (sliced.penalty, built.penalty),
                (sliced._penalty_t, built._penalty_t),
            ):
                assert ours.shape == theirs.shape
                assert np.array_equal(ours.indptr, theirs.indptr)
                assert np.array_equal(ours.indices, theirs.indices)
                assert ours.data.tobytes() == theirs.data.tobytes()
            assert sliced.q.tobytes() == built.q.tobytes()
            assert sliced.values.tobytes() == built.values.tobytes()
            assert sliced.vertex_cols == built.vertex_cols
    if model == "empty_class":
        assert empty_classes == len(objectives)
    if model == "duplicate_bids":
        assert pricer._group is not None


def _assert_identical(a, b):
    assert a.target == b.target
    assert a.allocations == b.allocations
    assert [list(x) for x in a.allocations] == [list(x) for x in b.allocations]
    assert np.array_equal(a.weights, b.weights)
    assert a.keep_probability == b.keep_probability
    assert a.iterations == b.iterations
    assert a.master_value == b.master_value


def test_parity_at_workload_scale():
    """The perfbench truthful workload's shape: metro n=300, k=4, two bids
    per bidder, priced over several rounds."""
    problem = metro_truthful_auction(300, 4, seed=3)
    lp = SpectrumAuctionSolver(problem).solve_lp()
    reference = decompose_lp_solution(problem, lp, seed=0, pricing="reference")
    compiled = decompose_lp_solution(problem, lp, seed=0, pricing="approx")
    assert reference.iterations >= 4
    _assert_identical(reference, compiled)


def test_no_state_survives_between_decompositions():
    """A, then B, then A again on one structure and one compilation: the
    second A equals the first bit for bit, so no pair matrix, master or
    resolver state outlives (or is mutated by) a decomposition."""
    scene = metro_disk_scene(80, seed=23)
    compiled_structure = compile_structure(scene)

    def decompose(seed):
        problem = AuctionProblem(
            scene, 3, random_xor_valuations(scene.n, 3, seed=seed, bids_per_bidder=2)
        )
        lp = SpectrumAuctionSolver(problem).solve_lp()
        return decompose_lp_solution(
            problem,
            lp,
            alpha=problem.approximation_bound() * 0.5,
            seed=0,
            compiled_structure=compiled_structure,
        )

    first = decompose(1)
    other = decompose(2)
    again = decompose(1)
    assert first.iterations >= 3 and other.iterations >= 2
    _assert_identical(first, again)
