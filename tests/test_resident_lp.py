"""ResidentLP, the single owner of HiGHS models: its load/mutate/solve
cycle, saved and restored bases, the certificate check on every trusted
solve, and the VCG model's solver mode."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.auction_lp import AuctionLP
from repro.core.lp import solve_packing_lp
from repro.core.solver import SpectrumAuctionSolver
from repro.engine import BatchAuctionEngine, highs
from repro.engine.compiled import CompiledAuction
from repro.engine.highs import ResidentLP, fast_backend_available
from repro.experiments.workloads import (
    metro_disk_auction,
    metro_truthful_auction,
    protocol_auction,
    reauction_fleet,
)
from repro.mechanism.lavi_swamy import decompose_lp_solution
from repro.mechanism.vcg import _lp_value_without, vcg_payments

pytestmark = pytest.mark.skipif(
    not fast_backend_available(), reason="persistent HiGHS backend unavailable"
)


def _load_packing(lp: ResidentLP, a, b, c) -> None:
    lp.load(a, -c, np.full(a.shape[0], -np.inf), b)


def record_reports(monkeypatch) -> list:
    """Every SolveReport returned from here on."""
    reports: list = []
    solve = ResidentLP.solve

    def recording(self):
        report = solve(self)
        reports.append(report)
        return report

    monkeypatch.setattr(ResidentLP, "solve", recording)
    return reports


@pytest.fixture(scope="module")
def tight_case():
    """A metro n=80 auction at a sub-gap α: the decomposition iterates."""
    problem = metro_disk_auction(80, 4, seed=11)
    solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
    return problem, solution, problem.approximation_bound() * 0.25


def test_cold_then_warm_cost_changes_match_cold_solves():
    a, b, c = CompiledAuction(protocol_auction(12, 4, seed=3))._build_csc()
    lp = ResidentLP()
    _load_packing(lp, a, b, c)
    first = lp.solve()
    assert (first.mode, first.warm, first.basis_valid) == ("simplex", False, True)
    assert -first.objective == pytest.approx(solve_packing_lp(c, a, b).value, rel=1e-12)
    rng = np.random.default_rng(4)
    idx = np.arange(c.size, dtype=np.int32)
    for _ in range(3):
        cost = c * rng.uniform(0.5, 1.5, size=c.size)
        lp.set_costs(idx, -cost)
        report = lp.solve()
        assert report.warm
        assert report.max_primal_infeasibility <= highs.MAX_INFEASIBILITY
        assert -report.objective == pytest.approx(
            solve_packing_lp(cost, a, b).value, rel=1e-9
        )
        x, row_dual = lp.solution()
        assert np.all(a @ x <= b + 1e-9)
        assert np.all(row_dual <= 1e-9)  # ≤-rows of a minimization


def test_failed_solve_clears_the_key():
    lp = ResidentLP()
    # x ≥ 2 and x ≤ 1: infeasible
    lp.load(
        sp.csc_matrix(np.ones((2, 1))),
        np.ones(1),
        np.array([2.0, -np.inf]),
        np.array([np.inf, 1.0]),
        key="model",
    )
    with pytest.raises(RuntimeError, match="LP solve failed"):
        lp.solve()
    assert lp.key is None


def test_vcg_model_runs_primal_simplex_at_every_size(monkeypatch):
    """The VCG model runs primal simplex whatever the LP's size: on the
    n=300 truthful LP, inside the engine's dual-simplex band, and on the
    n=500 metro LP (1837 kept rows, inside the primal band).  One cold base
    solve, then only warm probes, and the n=500 payments equal the
    reference rebuild's.  The reference is checked on a sample of the
    probed bidders (one rebuild per bidder; the full set takes about
    100 s)."""
    small = metro_truthful_auction(300, 4, seed=1)
    small_solution = CompiledAuction(small).solve_lp()
    assert highs.choose_solver(*CompiledAuction(small).matrices_csc()[0].shape) == "simplex"
    reports = record_reports(monkeypatch)
    vcg_payments(small, small_solution, small.approximation_bound())
    assert {r.mode for r in reports} == {"primal"}
    assert [r.warm for r in reports].count(False) == 1

    problem = metro_disk_auction(500, 6, seed=42)
    solution = CompiledAuction(problem).solve_lp()
    alpha = problem.approximation_bound()
    reports.clear()
    warm = vcg_payments(problem, solution, alpha)
    assert {r.mode for r in reports} == {"primal"}
    assert [r.warm for r in reports].count(False) == 1  # one load, then probes
    probed = [
        v
        for v in range(problem.n)
        if warm.contributions[v] > 0
        and warm.contributions[v] - solution.z[v] > 1e-9
    ]
    payers = sorted(probed, key=lambda v: -warm.payments[v])
    sample = payers[:4] + payers[4 :: max(1, len(payers) // 4)][:4]
    lp = AuctionLP(problem, columns=list(solution.columns))
    for v in sample:
        without = _lp_value_without(problem, lp, v)
        assert warm.lp_without[v] == pytest.approx(without, rel=1e-9)
        externality = without - (solution.value - warm.contributions[v])
        assert warm.payments[v] == pytest.approx(
            max(0.0, externality) / alpha, rel=1e-9, abs=1e-12
        )


def test_certificate_guards_every_trusted_solve(tight_case, monkeypatch):
    """With a certificate no solve can pass, every solve but a cold
    dual-simplex one raises: the VCG probes and a warm engine re-solve.
    The parity paths still succeed."""
    problem, solution, alpha = tight_case
    fleet = reauction_fleet(2, 12, 4, seed=5)
    monkeypatch.setattr(highs, "MAX_INFEASIBILITY", -1.0)
    with pytest.raises(RuntimeError, match="no certified optimal basis"):
        vcg_payments(problem, solution, alpha)
    with pytest.raises(RuntimeError, match="no certified optimal basis"):
        BatchAuctionEngine(lp_warm_start=True).solve_many(fleet, seed=1)

    approx = decompose_lp_solution(
        problem, solution, alpha=alpha, seed=5, pricing="approx"
    )
    assert approx.iterations >= 3
    fresh = metro_disk_auction(80, 4, seed=12)
    cold = CompiledAuction(fresh).solve_lp()
    assert cold.value == pytest.approx(AuctionLP(fresh).solve().value, rel=1e-12)


def test_restored_optimal_basis_resolves_in_zero_iterations():
    a, b, c = CompiledAuction(protocol_auction(12, 4, seed=3))._build_csc()
    lp = ResidentLP("primal")
    _load_packing(lp, a, b, c)
    first = lp.solve()
    base = lp.basis()
    x, _ = lp.solution()
    idx = np.flatnonzero(x > 0).astype(np.int32)
    lp.set_costs(idx, np.zeros(idx.size))  # move the model off the saved basis...
    assert lp.solve().simplex_iterations > 0
    lp.set_costs(idx, -c[idx])  # ...and back to the original costs
    lp.restore(base)
    again = lp.solve()
    assert again.warm
    assert again.simplex_iterations == 0
    assert again.objective == first.objective


def test_restore_then_cost_change_passes_the_certificate(monkeypatch):
    """A restored basis makes the next solve warm, so the certificate is
    checked even on a freshly loaded dual-simplex model."""
    a, b, c = CompiledAuction(protocol_auction(12, 4, seed=3))._build_csc()
    lp = ResidentLP()
    _load_packing(lp, a, b, c)
    lp.solve()
    base = lp.basis()
    idx = np.arange(3, dtype=np.int32)
    lp.restore(base)
    lp.set_costs(idx, np.zeros(3))
    report = lp.solve()
    assert report.warm and report.basis_valid
    assert report.max_primal_infeasibility <= highs.MAX_INFEASIBILITY
    assert report.max_dual_infeasibility <= highs.MAX_INFEASIBILITY
    zeroed = c.copy()
    zeroed[:3] = 0.0
    assert -report.objective == pytest.approx(solve_packing_lp(zeroed, a, b).value, rel=1e-9)

    fresh = ResidentLP()
    _load_packing(fresh, a, b, c)
    fresh.restore(base)
    monkeypatch.setattr(highs, "MAX_INFEASIBILITY", -1.0)
    with pytest.raises(RuntimeError, match="no certified optimal basis"):
        fresh.solve()


def test_restore_into_a_model_of_another_shape_raises():
    a, b, c = CompiledAuction(protocol_auction(12, 4, seed=3))._build_csc()
    lp = ResidentLP("primal")
    _load_packing(lp, a, b, c)
    lp.solve()
    base = lp.basis()
    other = ResidentLP("primal")
    other.load(sp.csc_matrix(np.eye(3)), -np.ones(3), np.full(3, -np.inf), np.ones(3))
    with pytest.raises(RuntimeError, match="rejected the basis"):
        other.restore(base)
    assert other.solve().objective == pytest.approx(-3.0)  # the model is untouched
