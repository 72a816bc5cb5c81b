"""Warm-started LP re-solves: optimality, cache-hit accounting, fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lp import solve_packing_lp
from repro.engine import BatchAuctionEngine, highs, warm_start_stats
from repro.engine.compiled import CompiledAuction
from repro.engine.highs import (
    IPM_MIN_ROWS,
    PRIMAL_MAX_ROWS,
    choose_solver,
    fast_backend_available,
    solve_packing_lp_fast,
)
from repro.experiments.workloads import (
    metro_disk_auction,
    protocol_auction,
    reauction_fleet,
)

pytestmark = pytest.mark.skipif(
    not fast_backend_available(), reason="persistent HiGHS backend unavailable"
)


def test_choose_solver_policy():
    # three bands on the (kept) row count: seed-parity simplex, primal, IPM
    assert (IPM_MIN_ROWS, PRIMAL_MAX_ROWS) == (1500, 11000)
    assert choose_solver(1, 10) == "simplex"
    assert choose_solver(IPM_MIN_ROWS - 1, 10) == "simplex"
    assert choose_solver(IPM_MIN_ROWS, 10) == "primal"
    assert choose_solver(PRIMAL_MAX_ROWS - 1, 10) == "primal"
    assert choose_solver(PRIMAL_MAX_ROWS, 10) == "ipm"
    # the columns do not move an edge
    assert choose_solver(IPM_MIN_ROWS, 10**6) == "primal"
    assert choose_solver(PRIMAL_MAX_ROWS - 1, 1) == "primal"


@pytest.fixture(scope="module")
def metro_lp():
    """A metro n=500, k=6 LP: 3500 rows, of which 1837 can bind — inside
    the primal band."""
    a, b, c = CompiledAuction(metro_disk_auction(500, 6, seed=42))._build_csc()
    assert IPM_MIN_ROWS <= a.shape[0] < PRIMAL_MAX_ROWS
    return a, b, c


@pytest.mark.parametrize("solver", ["auto", "ipm"])
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
    solve_packing_lp_fast(c, a, b, solver="ipm")
    after = warm_start_stats()
    delta = {key: after[key] - before[key] for key in after}
    assert (delta["simplex"], delta["primal"], delta["ipm"]) == (1, 1, 1)
    assert delta["warm"] + delta["cold"] == 3
    assert delta["simplex_iterations"] > 0
    assert delta["ipm_iterations"] > 0


def test_certificate_check_guards_fast_bands_only(metro_lp, monkeypatch):
    """A fast-band solve outside the infeasibility tolerance is an error;
    the seed-parity band is never subjected to the check."""
    a, b, c = metro_lp
    small = CompiledAuction(protocol_auction(12, 4, seed=3))._build_csc()
    monkeypatch.setattr(highs, "MAX_INFEASIBILITY", -1.0)
    for solver in ("primal", "ipm"):
        with pytest.raises(RuntimeError, match="no certified optimal basis"):
            solve_packing_lp_fast(c, a, b, solver=solver)
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
