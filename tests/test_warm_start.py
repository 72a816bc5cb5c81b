"""Warm-started LP re-solves: optimality, cache-hit accounting, fallback."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.lp import solve_packing_lp
from repro.engine import BatchAuctionEngine, highs, warm_start_stats
from repro.engine.compiled import CompiledAuction
from repro.engine.highs import (
    PRIMAL_MIN_ROWS,
    ROWGEN_MIN_ROWS,
    choose_solver,
    fast_backend_available,
    solve_packing_lp_fast,
)
from repro.experiments.workloads import (
    metro_disk_auction,
    metro_protocol_auction,
    physical_auction,
    protocol_auction,
    reauction_fleet,
)

pytestmark = pytest.mark.skipif(
    not fast_backend_available(), reason="persistent HiGHS backend unavailable"
)


def test_choose_solver_policy():
    # two bands on the (kept) row count: seed-parity simplex, then primal
    # at every size
    assert PRIMAL_MIN_ROWS == 1500
    assert choose_solver(1, 10) == "simplex"
    assert choose_solver(PRIMAL_MIN_ROWS - 1, 10) == "simplex"
    assert choose_solver(PRIMAL_MIN_ROWS, 10) == "primal"
    assert choose_solver(11000, 10) == "primal"
    assert choose_solver(10**6, 10) == "primal"
    # the columns do not move the edge
    assert choose_solver(PRIMAL_MIN_ROWS, 10**6) == "primal"
    assert choose_solver(PRIMAL_MIN_ROWS - 1, 1) == "simplex"


@pytest.fixture(scope="module")
def metro_lp():
    """A metro n=500, k=6 LP: 3500 rows, of which 1837 can bind — inside
    the primal band."""
    a, b, c = CompiledAuction(metro_disk_auction(500, 6, seed=42))._build_csc()
    assert PRIMAL_MIN_ROWS <= a.shape[0]
    return a, b, c


@pytest.mark.parametrize("solver", ["auto", "simplex"])
def test_fast_bands_match_reference_lp(metro_lp, solver):
    a, b, c = metro_lp
    reference = solve_packing_lp(c, a, b)
    before = warm_start_stats()
    sol = solve_packing_lp_fast(c, a, b, solver=solver)
    after = warm_start_stats()
    mode = "primal" if solver == "auto" else solver
    assert after[mode] - before[mode] == 1
    assert after["cold"] - before["cold"] == 1
    assert sol.value == pytest.approx(reference.value, rel=1e-9)
    assert np.all(sol.x >= -1e-9)
    assert np.all(a @ sol.x <= b + 1e-7)
    assert np.all(sol.duals >= 0)
    # a basic solution: no more nonzero columns than rows
    assert np.count_nonzero(sol.x > 1e-9) <= a.shape[0]


def test_counters_track_modes_and_iterations(metro_lp):
    a, b, c = metro_lp
    small = CompiledAuction(protocol_auction(12, 4, seed=3))._build_csc()
    before = warm_start_stats()
    solve_packing_lp_fast(small[2], small[0], small[1])
    solve_packing_lp_fast(c, a, b)
    after = warm_start_stats()
    delta = {key: after[key] - before[key] for key in after}
    assert (delta["simplex"], delta["primal"]) == (1, 1)
    assert delta["warm"] + delta["cold"] == 2
    assert delta["simplex_iterations"] > 0


def test_ipm_mode_is_gone(metro_lp):
    """Interior point lost to primal at every grid point and was removed:
    asking for it is an unknown mode, and no counter is kept for it."""
    a, b, c = metro_lp
    with pytest.raises(ValueError, match="solver must be"):
        solve_packing_lp_fast(c, a, b, solver="ipm")
    assert "ipm" not in warm_start_stats()
    assert "ipm_iterations" not in warm_start_stats()


def test_certificate_check_guards_fast_bands_only(metro_lp, monkeypatch):
    """A fast-band solve outside the infeasibility tolerance is an error;
    the seed-parity band is never subjected to the check."""
    a, b, c = metro_lp
    small = CompiledAuction(protocol_auction(12, 4, seed=3))._build_csc()
    monkeypatch.setattr(highs, "MAX_INFEASIBILITY", -1.0)
    with pytest.raises(RuntimeError, match="no certified optimal basis"):
        solve_packing_lp_fast(c, a, b, solver="primal")
    parity = solve_packing_lp_fast(small[2], small[0], small[1])
    assert parity.value == pytest.approx(
        solve_packing_lp(small[2], small[0], small[1]).value, rel=1e-12
    )


def test_warm_records_are_per_mode(metro_lp):
    """One warm key over a primal-band LP and a small simplex LP: a model
    loaded on one mode's instance never warm-starts the other's."""
    a_big, b_big, c_big = metro_lp
    a_small, b_small, c_small = CompiledAuction(
        protocol_auction(12, 4, seed=3)
    )._build_csc()
    key = ("shared-warm-key",)
    rng = np.random.default_rng(11)
    steps = [
        (a_small, b_small, c_small, "auto"),
        (a_big, b_big, c_big, "auto"),
        (a_small, b_small, c_small, "auto"),  # warm on the simplex instance
        (a_big, b_big, c_big, "auto"),  # warm on the primal instance
        (a_big, b_big, c_big, "simplex"),  # simplex holds the small model: cold
        (a_small, b_small, c_small, "auto"),  # simplex now holds the big one: cold
        (a_big, b_big, c_big, "auto"),  # primal record survived: warm
    ]
    costs = [c * rng.uniform(0.5, 1.5, size=c.shape[0]) for _, _, c, _ in steps]
    # cold optima first: an unkeyed load would replace the keyed models
    cold = [
        solve_packing_lp_fast(cost, a, b, solver=solver).value
        for (a, b, _, solver), cost in zip(steps, costs)
    ]
    before = warm_start_stats()
    for (a, b, _, solver), cost, optimum in zip(steps, costs, cold):
        warm = solve_packing_lp_fast(cost, a, b, warm_key=key, solver=solver)
        assert warm.value == pytest.approx(optimum, rel=1e-9, abs=1e-9)
        assert np.all(a @ warm.x <= b + 1e-7)
    after = warm_start_stats()
    assert after["warm"] - before["warm"] == 3
    assert after["cold"] - before["cold"] == len(steps) - 3


def test_reauction_fleet_shares_matrix_pattern():
    fleet = reauction_fleet(3, 12, 4, seed=5)
    mats = [CompiledAuction(p)._build_csc() for p in fleet]
    a0 = mats[0][0]
    for a, b, _ in mats[1:]:
        assert np.array_equal(a0.indptr, a.indptr)
        assert np.array_equal(a0.indices, a.indices)
        assert np.array_equal(a0.data, a.data)
        assert np.array_equal(mats[0][1], b)
    assert fleet[0].structure is fleet[1].structure


def test_warm_engine_matches_cold_lp_optima():
    fleet_cold = reauction_fleet(6, 15, 5, seed=42)
    fleet_warm = reauction_fleet(6, 15, 5, seed=42)
    cold = BatchAuctionEngine().solve_many(fleet_cold, seed=3)
    before = warm_start_stats()
    warm = BatchAuctionEngine(lp_warm_start=True).solve_many(
        fleet_warm, seed=3
    )
    after = warm_start_stats()
    # every epoch after the first re-solves by mutating the loaded objective
    assert after["warm"] - before["warm"] >= len(fleet_warm) - 1
    for rc, rw in zip(cold.results, warm.results):
        assert rw.lp_value == pytest.approx(rc.lp_value, rel=1e-9, abs=1e-9)
        assert rw.feasible


def test_distinct_structures_do_not_warm_start():
    problems = [protocol_auction(12, 4, seed=100 + i) for i in range(3)]
    before = warm_start_stats()
    for problem in problems:
        CompiledAuction(problem).solve(seed=1, lp_warm_start=True)
    after = warm_start_stats()
    assert after["warm"] == before["warm"]  # different structures: all cold


def test_warm_flag_off_is_bit_identical_to_seed_path():
    fleet_a = reauction_fleet(4, 12, 4, seed=9)
    fleet_b = reauction_fleet(4, 12, 4, seed=9)
    r_plain = [CompiledAuction(p).solve(seed=7) for p in fleet_a]
    # warm flag on, but solved through fresh compiled instances one at a
    # time, alternating with an unrelated cold model load in between: the
    # warm path may or may not trigger, results must stay optimal
    engine = BatchAuctionEngine(lp_warm_start=True)
    r_warm = engine.solve_many(fleet_b, seed=7).results
    for a, b in zip(r_plain, r_warm):
        assert b.lp_value == pytest.approx(a.lp_value, rel=1e-9, abs=1e-9)


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _assert_certified(sol, a, b, c) -> None:
    """``x`` meets every row, the duals are full length, nonnegative and
    dual feasible, and the two objectives agree: a proof of optimality."""
    assert np.all(sol.x >= 0)
    assert np.all(a @ sol.x <= b + highs.MAX_INFEASIBILITY)
    assert sol.duals.shape == b.shape
    assert np.all(sol.duals >= 0)
    assert np.all(a.T @ sol.duals >= c - highs.MAX_INFEASIBILITY)
    assert b @ sol.duals == pytest.approx(sol.value, rel=1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: metro_disk_auction(1000, 6, seed=42),
        lambda: metro_protocol_auction(1000, 6, seed=42),
        lambda: physical_auction(40, 4, seed=4002),
    ],
    ids=["metro_disk_1000", "metro_protocol_1000", "physical_40"],
)
def test_row_generated_primal_matches_linprog(build, row_generation_everywhere):
    """The engine's primal path solves on its seed rows, adds the rows its
    solutions break, and returns linprog's optimum with a full-row
    certificate."""
    a, b, c = CompiledAuction(build()).matrices_csc()
    seed, _start = highs._seed_rows(a, c, b)
    assert 0 < seed.size < a.shape[0]
    before = warm_start_stats()
    sol = solve_packing_lp_fast(c, a, b, solver="primal")
    delta = _delta(before, warm_start_stats())
    assert (delta["cold"], delta["warm"], delta["primal"]) == (1, 0, 1)
    assert highs._thread_model("primal").rows.size == seed.size + delta["rows_added"]
    assert seed.size + delta["rows_added"] < a.shape[0]
    assert sol.value == pytest.approx(solve_packing_lp(c, a, b).value, rel=1e-9)
    _assert_certified(sol, a, b, c)


def test_primal_loads_every_row_below_the_row_generation_edge(metro_lp):
    """Under ROWGEN_MIN_ROWS kept rows the primal model loads every row and
    runs no round; from the edge up it starts on the seed rows."""
    a, b, c = metro_lp
    assert a.shape[0] >= ROWGEN_MIN_ROWS
    small = CompiledAuction(metro_disk_auction(400, 6, seed=42)).matrices_csc()
    assert PRIMAL_MIN_ROWS <= small[0].shape[0] < ROWGEN_MIN_ROWS
    model = highs._thread_model("primal")
    for (a_lp, b_lp, c_lp), row_generated in ((small, False), ((a, b, c), True)):
        before = warm_start_stats()
        sol = solve_packing_lp_fast(c_lp, a_lp, b_lp)
        delta = _delta(before, warm_start_stats())
        assert delta["primal"] == 1
        full = model.rows.size == a_lp.shape[0]
        assert full is not row_generated
        if not row_generated:
            assert (delta["row_rounds"], delta["rows_added"]) == (0, 0)
        assert sol.value == pytest.approx(solve_packing_lp(c_lp, a_lp, b_lp).value, rel=1e-9)
        _assert_certified(sol, a_lp, b_lp, c_lp)


@pytest.fixture
def row_generation_everywhere(monkeypatch):
    """Row-generate the primal mode at every size, so LPs far below the
    edge exercise the loop."""
    monkeypatch.setattr(highs, "ROWGEN_MIN_ROWS", 0)


def _missed_row_lp():
    """max x1 + x2 s.t. x1 + 2 x2 ≤ 2, 2 x1 + x2 ≤ 2.  The greedy raises x1
    to 1 and fills only row 1, and neither row is a set-packing row, so
    row 0 is not a seed row; the seed LP's optimum x = (0, 2) breaks it."""
    a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    return a, np.array([2.0, 2.0]), np.array([1.0, 1.0])


def test_row_generation_adds_a_binding_row_the_seed_misses(row_generation_everywhere):
    a, b, c = _missed_row_lp()
    assert highs._seed_rows(a, c, b)[0].tolist() == [1]
    before = warm_start_stats()
    sol = solve_packing_lp_fast(c, a, b, solver="primal")
    delta = _delta(before, warm_start_stats())
    assert (delta["row_rounds"], delta["rows_added"]) == (1, 1)
    assert sol.value == pytest.approx(4 / 3, rel=1e-12)
    assert sol.x == pytest.approx([2 / 3, 2 / 3], rel=1e-12)
    assert sol.duals == pytest.approx([1 / 3, 1 / 3], rel=1e-12)
    _assert_certified(sol, a, b, c)


def test_set_packing_rows_are_seed_rows():
    # row 0 (b = 1, all ones) is seeded though the greedy leaves it room;
    # row 1 has a 2 in it and row 2 a right-hand side of 2
    a = sp.csc_matrix(np.array([[1.0, 1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    b = np.array([1.0, 3.0, 2.0])
    assert highs._seed_rows(a, np.zeros(3), b)[0].tolist() == [0]
    rows, (cols, pivots) = highs._seed_rows(a, np.array([0.0, 0.0, 1.0]), b)
    assert rows.tolist() == [0, 2]
    # the greedy raises column 2 until row 2 is full: row 2 is seed row 1
    assert (cols.tolist(), pivots.tolist()) == ([2], [1])


def test_warm_resolve_adds_a_row_its_new_costs_bind(row_generation_everywhere):
    """Under a warm key the model keeps its rows; new costs that make a
    never-added row bind run the loop again on the warm model."""
    a, b, _ = _missed_row_lp()
    key = ("row-generation",)
    before = warm_start_stats()
    first = solve_packing_lp_fast(np.array([1.0, 0.1]), a, b, warm_key=key, solver="primal")
    delta = _delta(before, warm_start_stats())
    assert first.value == pytest.approx(1.0, rel=1e-12)
    assert (delta["cold"], delta["rows_added"]) == (1, 0)
    assert first.duals[0] == 0.0  # row 0 never added
    before = warm_start_stats()
    second = solve_packing_lp_fast(np.array([1.0, 1.0]), a, b, warm_key=key, solver="primal")
    delta = _delta(before, warm_start_stats())
    assert (delta["warm"], delta["cold"], delta["rows_added"]) == (1, 0, 1)
    assert second.value == pytest.approx(4 / 3, rel=1e-12)
    _assert_certified(second, a, b, np.array([1.0, 1.0]))
    # the model kept row 0: a third warm solve adds nothing
    before = warm_start_stats()
    third = solve_packing_lp_fast(np.array([1.0, 0.9]), a, b, warm_key=key, solver="primal")
    delta = _delta(before, warm_start_stats())
    assert (delta["warm"], delta["rows_added"]) == (1, 0)
    assert third.value == pytest.approx(solve_packing_lp(np.array([1.0, 0.9]), a, b).value)
