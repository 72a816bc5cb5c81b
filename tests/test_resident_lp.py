"""ResidentLP, the single owner of HiGHS models: its load/mutate/solve
cycle, saved and restored bases, the certificate check on every trusted
solve, the greedy start of every cold primal solve, and the VCG model's
solver mode."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.auction_lp import AuctionLP
from repro.core.lp import solve_packing_lp
from repro.core.solver import SpectrumAuctionSolver
from repro.engine import BatchAuctionEngine, highs
from repro.engine.compiled import CompiledAuction
from repro.engine.highs import ResidentLP, fast_backend_available, greedy_start
from repro.experiments.workloads import (
    metro_disk_auction,
    metro_protocol_auction,
    metro_truthful_auction,
    physical_auction,
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


PACKING_LPS = {
    "metro_disk_500": lambda: metro_disk_auction(500, 6, seed=42),
    # a weighted physical-model LP: fractional κ coefficients and ρ > 1
    "physical_40": lambda: physical_auction(40, 4, seed=4002),
}


@pytest.mark.parametrize("name", sorted(PACKING_LPS))
def test_greedy_start_is_a_feasible_triangular_basis(name):
    a, b, c = CompiledAuction(PACKING_LPS[name]()).matrices_csc()
    cols, rows = greedy_start(a, c, b)
    assert cols.size == rows.size > 0
    assert np.unique(rows).size == rows.size  # distinct pivot rows
    assert np.unique(cols).size == cols.size
    assert np.all(c[cols] > 0)
    block = a[:, cols].toarray()[rows]  # pivot rows x basic columns, in order
    assert np.all(np.diag(block) > 0)
    # no later basic column has an entry in an earlier pivot row
    assert not np.any(np.triu(block, k=1))
    x = np.zeros(a.shape[1])
    x[cols] = np.linalg.solve(block, b[rows])
    assert np.all(x >= -1e-12)
    assert np.all(a @ x <= b + 1e-9)
    assert np.allclose(a[rows] @ x, b[rows], rtol=1e-12, atol=1e-12)  # pivot rows tight


def test_greedy_start_skips_columns_without_value_or_room():
    # column 3 (key 5/sqrt(2)) goes first and fills row 1, column 0 (key 3)
    # fills row 0, column 1 then finds both tight, column 2 has no value
    a = sp.csc_matrix(
        np.array(
            [
                [1.0, 2.0, 0.0, 0.0],
                [0.0, 1.0, 1.0, 1.0],
                [0.0, 0.0, 0.0, 2.0],
            ]
        )
    )
    cols, rows = greedy_start(a, np.array([3.0, 3.0, 0.0, 5.0]), np.array([1.0, 1.0, 4.0]))
    assert cols.tolist() == [3, 0]
    assert rows.tolist() == [1, 0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: metro_disk_auction(1000, 6, seed=42),
        lambda: metro_protocol_auction(1000, 6, seed=42),
        lambda: physical_auction(40, 4, seed=4002),
    ],
    ids=["metro_disk_1000", "metro_protocol_1000", "physical_40"],
)
def test_primal_greedy_start_matches_linprog(build):
    """A cold primal solve from the greedy basis reaches linprog's optimum
    and passes the certificate."""
    a, b, c = CompiledAuction(build()).matrices_csc()
    lp = ResidentLP("primal")
    _load_packing(lp, a, b, c)
    report = lp.solve()
    assert (report.mode, report.warm, report.basis_valid) == ("primal", False, True)
    assert report.max_primal_infeasibility <= highs.MAX_INFEASIBILITY
    assert report.max_dual_infeasibility <= highs.MAX_INFEASIBILITY
    reference = solve_packing_lp(c, a, b).value
    assert -report.objective == pytest.approx(reference, rel=1e-9)
    x, _ = lp.solution()
    assert np.all(a @ x <= b + 1e-9)


def test_primal_load_rejects_a_non_packing_model():
    lp = ResidentLP("primal")
    a = sp.csc_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    negative = sp.csc_matrix(np.array([[1.0, -1.0], [0.0, 1.0]]))
    cost = -np.ones(2)
    with pytest.raises(ValueError, match="packing"):
        lp.load(negative, cost, np.full(2, -np.inf), np.ones(2))
    with pytest.raises(ValueError, match="packing"):
        lp.load(a, cost, np.array([0.5, -np.inf]), np.ones(2))
    with pytest.raises(ValueError, match="packing"):
        lp.load(a, cost, np.full(2, -np.inf), np.array([1.0, -1.0]))
    lp.load(a, cost, np.full(2, -np.inf), np.ones(2))  # the packing form loads
    assert lp.solve().objective == pytest.approx(-1.0)


def test_failed_load_clears_the_key(monkeypatch):
    """A load whose basis HiGHS rejects leaves no key behind, so the next
    keyed solve cannot warm-start the model that replaced the keyed one."""
    a, b, c = CompiledAuction(protocol_auction(12, 4, seed=3))._build_csc()
    small = (sp.csc_matrix(np.eye(3)), np.ones(3), np.ones(3))
    lp = ResidentLP("primal")
    lp.load(a, -c, np.full(a.shape[0], -np.inf), b, key="old")
    real = highs._greedy_basis
    monkeypatch.setattr(
        highs, "_greedy_basis", lambda m, n, cols, rows: real(m + 1, n, [], [])
    )
    with pytest.raises(RuntimeError, match="rejected the greedy basis"):
        lp.load(small[0], -small[2], np.full(3, -np.inf), small[1], key="new")
    assert lp.key is None

    # the same through the engine's keyed path: the failed load must not
    # leave the first LP's warm record on the second LP's model
    monkeypatch.setattr(highs, "_greedy_basis", real)
    highs.solve_packing_lp_fast(c, a, b, warm_key="k", solver="primal")
    monkeypatch.setattr(
        highs, "_greedy_basis", lambda m, n, cols, rows: real(m + 1, n, [], [])
    )
    with pytest.raises(RuntimeError, match="rejected the greedy basis"):
        highs.solve_packing_lp_fast(small[2], *small[:2], warm_key="other", solver="primal")
    monkeypatch.setattr(highs, "_greedy_basis", real)
    before = highs.warm_start_stats()
    again = highs.solve_packing_lp_fast(c, a, b, warm_key="k", solver="primal")
    after = highs.warm_start_stats()
    assert (after["warm"] - before["warm"], after["cold"] - before["cold"]) == (0, 1)
    assert again.value == pytest.approx(solve_packing_lp(c, a, b).value, rel=1e-9)


class _RunFails:
    """A ``Highs`` stand-in whose ``run`` raises; every other call goes
    through to the real instance."""

    def __init__(self, real) -> None:
        self.real = real

    def run(self):
        raise RuntimeError("run interrupted")

    def __getattr__(self, name):
        return getattr(self.real, name)


def test_add_rows_then_a_certified_dual_solve(monkeypatch):
    """Rows added to a solved primal model: the next solve is warm, runs
    dual simplex, passes the certificate and reaches the optimum of the
    model with every row; the primal strategy is back afterwards, also
    when that solve fails."""
    a, b, c = CompiledAuction(metro_disk_auction(500, 6, seed=42)).matrices_csc()
    first, _start = highs._seed_rows(a, c, b)
    rest = np.setdiff1d(np.arange(a.shape[0]), first)
    lp = ResidentLP("primal")
    _load_packing(lp, a[first], b[first], c)
    lp.solve()
    _status, primal_strategy = lp._highs.getOptionValue("simplex_strategy")
    lp.add_rows(a[rest].tocsr(), np.full(rest.size, -np.inf), b[rest])
    assert lp.rows.tolist() == list(range(a.shape[0]))  # the model's own positions
    report = lp.solve()
    assert report.warm and report.basis_valid
    assert report.max_primal_infeasibility <= highs.MAX_INFEASIBILITY
    assert report.max_dual_infeasibility <= highs.MAX_INFEASIBILITY
    assert -report.objective == pytest.approx(solve_packing_lp(c, a, b).value, rel=1e-9)
    x, _ = lp.solution()
    assert np.all(a @ x <= b + highs.MAX_INFEASIBILITY)
    assert lp._highs.getOptionValue("simplex_strategy")[1] == primal_strategy

    again = ResidentLP("primal")
    again.load(a[first], -c, np.full(first.size, -np.inf), b[first], rows=first)
    again.solve()
    again.add_rows(a[rest].tocsr(), np.full(rest.size, -np.inf), b[rest], rest)
    assert again.rows.tolist() == first.tolist() + rest.tolist()  # the caller's rows
    real = again._highs
    again._highs = _RunFails(real)
    with pytest.raises(RuntimeError, match="run interrupted"):
        again.solve()
    assert real.getOptionValue("simplex_strategy")[1] == primal_strategy
    with pytest.raises(ValueError, match="packing"):
        again.add_rows(sp.csr_matrix(-np.ones((1, c.size))), np.full(1, -np.inf), np.ones(1))
