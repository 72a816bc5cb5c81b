"""Tests for the Lavi–Swamy mechanism (Section 5)."""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

from repro.core.auction import AuctionProblem
from repro.core.solver import SpectrumAuctionSolver
from repro.engine import highs
from repro.engine.compiled import CompiledAuction
from repro.engine.highs import ResidentLP
from repro.experiments.workloads import metro_truthful_auction
from repro.geometry.links import random_links
from repro.interference.protocol import protocol_model
from repro.mechanism.lavi_swamy import decompose_lp_solution, default_alpha
from repro.mechanism.truthful import TruthfulMechanism
from repro.mechanism import vcg as vcg_module
from repro.mechanism.vcg import _warm_values_without, vcg_payments
from repro.valuations.explicit import XORValuation
from repro.valuations.generators import random_xor_valuations


@pytest.fixture(scope="module")
def small_setup():
    links = random_links(10, seed=81, length_range=(0.04, 0.12))
    structure = protocol_model(links, delta=1.0)
    vals = random_xor_valuations(10, 3, seed=82, bids_per_bidder=2)
    problem = AuctionProblem(structure, 3, vals)
    solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
    return problem, solution


class TestDecomposition:
    def test_exact_pair_masses(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=1)
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-7)

    def test_expected_welfare_is_scaled_lp(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=2)
        assert dec.expected_welfare() == pytest.approx(
            solution.value / dec.alpha, rel=1e-6
        )

    def test_all_pool_allocations_feasible(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=3)
        for alloc in dec.allocations:
            assert problem.is_feasible(alloc)

    def test_weights_form_subdistribution(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=4)
        assert (dec.weights >= -1e-12).all()
        assert dec.weights.sum() <= 1.0 + 1e-9
        assert dec.empty_weight >= -1e-9

    def test_sampling_unbiased(self, small_setup):
        problem, solution = small_setup
        dec = decompose_lp_solution(problem, solution, seed=5)
        rng = np.random.default_rng(6)
        trials = 3000
        counts: dict = {p: 0 for p in dec.target}
        for _ in range(trials):
            alloc = dec.sample(rng)
            for v, bundle in alloc.items():
                if (v, bundle) in counts:
                    counts[(v, bundle)] += 1
        for pair, target in dec.target.items():
            if target > 0.002:
                emp = counts[pair] / trials
                assert emp == pytest.approx(target, abs=4 * np.sqrt(target / trials))

    def test_tight_alpha_exercises_pricing(self, small_setup):
        """With α far below 8√kρ the seeded pool cannot cover x*/α, so the
        pricing loop must generate real allocations.  Exact pricing makes
        any α above the instance's *pointwise* decomposition gap work —
        here that gap is 3 (note it exceeds the scalar LP/OPT ratio 1.21:
        domination must hold coordinatewise, for every weighting w ≥ 0)."""
        problem, solution = small_setup
        dec = decompose_lp_solution(
            problem, solution, alpha=3.5, seed=7, pricing="exact"
        )
        assert dec.iterations >= 2
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-6)
        for alloc in dec.allocations:
            assert problem.is_feasible(alloc)

    def test_alpha_below_gap_detected(self, small_setup):
        """Exact pricing proves infeasibility when α is below the gap
        (this instance's LP/OPT ratio is ≈ 1.21)."""
        problem, solution = small_setup
        with pytest.raises(RuntimeError, match="integrality gap"):
            decompose_lp_solution(
                problem, solution, alpha=1.05, seed=8, pricing="exact"
            )

    def test_invalid_pricing_mode(self, small_setup):
        problem, solution = small_setup
        with pytest.raises(ValueError):
            decompose_lp_solution(problem, solution, pricing="magic")


class TestDecompositionWeighted:
    """Section 5 applies verbatim to weighted graphs via Algorithms 2+3."""

    @pytest.fixture(scope="class")
    def weighted_setup(self):
        from repro.interference.physical import linear_power, physical_model_structure

        links = random_links(8, seed=83, length_range=(0.03, 0.1))
        structure = physical_model_structure(links, linear_power(links, 3.0))
        vals = random_xor_valuations(8, 2, seed=84, bids_per_bidder=2)
        problem = AuctionProblem(structure, 2, vals)
        solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
        return problem, solution

    def test_weighted_decomposition_exact(self, weighted_setup):
        problem, solution = weighted_setup
        dec = decompose_lp_solution(problem, solution, seed=20)
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-7)
        for alloc in dec.allocations:
            assert problem.is_feasible(alloc)

    def test_weighted_mechanism_ir(self, weighted_setup):
        problem, _ = weighted_setup
        mech = TruthfulMechanism(problem.structure, problem.k)
        outcome = mech.run(problem.valuations, seed=21)
        assert problem.is_feasible(outcome.sampled_allocation)
        for v in range(problem.n):
            assert outcome.expected_utility(v, problem.valuations[v]) >= -1e-9


class TestDecompositionWithColumnGeneration:
    """Section 5's closing remark: arbitrary k via demand oracles; the
    decomposition never touches the original valuations."""

    def test_colgen_solution_decomposes(self):
        from repro.core.column_generation import solve_with_column_generation
        from repro.valuations.generators import random_additive_valuations

        links = random_links(10, seed=85, length_range=(0.04, 0.12))
        structure = protocol_model(links, delta=1.0)
        k = 12  # 4096 bundles: enumeration unattractive, oracles fine
        vals = random_additive_valuations(10, k, seed=86)
        problem = AuctionProblem(structure, k, vals)
        cg = solve_with_column_generation(problem)
        assert cg.converged
        dec = decompose_lp_solution(problem, cg.solution, seed=22)
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-7)

    def test_decomposes_beyond_int64_bundle_masks(self):
        """k = 64 channels: the adjusted bids fall back from the array
        profile to one explicit table per bidder."""
        from repro.core.column_generation import solve_with_column_generation
        from repro.valuations.generators import random_additive_valuations

        links = random_links(8, seed=85, length_range=(0.04, 0.12))
        problem = AuctionProblem(
            protocol_model(links, delta=1.0), 64, random_additive_valuations(8, 64, seed=86)
        )
        cg = solve_with_column_generation(problem)
        assert cg.converged
        dec = decompose_lp_solution(problem, cg.solution, seed=22)
        mass = dec.pair_mass()
        for pair, target in dec.target.items():
            assert mass[pair] == pytest.approx(target, abs=1e-7)
        for alloc in dec.allocations:
            assert problem.is_feasible(alloc)


class TestVCG:
    def test_payments_nonnegative_and_ir(self, small_setup):
        problem, solution = small_setup
        alpha = default_alpha(problem)
        vcg = vcg_payments(problem, solution, alpha)
        assert (vcg.payments >= 0).all()
        # Individual rationality: expected value ≥ payment.
        for v in range(problem.n):
            expected_value = vcg.contributions[v] / alpha
            assert vcg.payments[v] <= expected_value + 1e-7

    def test_removing_bidder_weakly_decreases_lp(self, small_setup):
        problem, solution = small_setup
        vcg = vcg_payments(problem, solution, default_alpha(problem))
        assert (vcg.lp_without <= solution.value + 1e-6).all()

    def test_zero_contribution_zero_payment(self, small_setup):
        problem, solution = small_setup
        vcg = vcg_payments(problem, solution, default_alpha(problem))
        for v in range(problem.n):
            if vcg.contributions[v] == 0:
                assert vcg.payments[v] == 0


class TestVCGProbes:
    """The warm probe loop: primal re-solves, each restarted from the full
    LP's optimal basis."""

    def test_probe_values_do_not_depend_on_probe_order(self):
        problem = metro_truthful_auction(300, 4, seed=1)
        solution = CompiledAuction(problem).solve_lp()
        probes = sorted({col.vertex for col, _ in solution.support()})
        assert len(probes) > 100
        shuffled = list(probes)
        np.random.default_rng(7).shuffle(shuffled)
        in_order = _warm_values_without(problem, solution, probes)
        for order in (probes[::-1], shuffled):
            values = _warm_values_without(problem, solution, order)
            assert all(values[v] == in_order[v] for v in probes)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "physical"])
    def test_payments_match_the_reference_rebuild(self, weighted):
        if weighted:
            from repro.interference.physical import linear_power, physical_model_structure

            links = random_links(30, seed=83, length_range=(0.05, 0.2))
            structure = physical_model_structure(links, linear_power(links, 3.0))
            vals = random_xor_valuations(30, 3, seed=84, bids_per_bidder=2)
            problem = AuctionProblem(structure, 3, vals)
        else:
            problem = metro_truthful_auction(120, 4, seed=3)
        solution = SpectrumAuctionSolver(problem).solve_lp("explicit")
        alpha = default_alpha(problem)
        warm = vcg_payments(problem, solution, alpha)
        reference = vcg_payments(problem, solution, alpha, method="reference")
        assert (reference.payments > 0).sum() >= 20
        np.testing.assert_allclose(
            warm.payments, reference.payments, rtol=1e-9, atol=1e-9 * solution.value / alpha
        )


def _physical_problem() -> AuctionProblem:
    from repro.interference.physical import linear_power, physical_model_structure

    links = random_links(30, seed=83, length_range=(0.05, 0.2))
    structure = physical_model_structure(links, linear_power(links, 3.0))
    vals = random_xor_valuations(30, 3, seed=84, bids_per_bidder=2)
    return AuctionProblem(structure, 3, vals)


@contextlib.contextmanager
def _solver_processes(count: int):
    """Record ``count`` solver processes on this thread for the block."""
    previous = highs.set_solver_processes(count)
    try:
        yield
    finally:
        highs.set_solver_processes(previous)


class TestVCGThreads:
    """The probes fanned out over threads (``zeroed_cost_optima``): the
    same floats on any number of threads, errors raised in the caller."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["metro_300", "physical"])
    def test_payments_equal_on_one_thread_and_at_the_budget(self, weighted, monkeypatch):
        problem = _physical_problem() if weighted else metro_truthful_auction(300, 4, seed=1)
        compiled = CompiledAuction(problem)
        solution = compiled.solve_lp()
        alpha = default_alpha(problem)
        # a budget above one thread on any host: four cores, few probes each
        monkeypatch.setattr(highs, "_cores", lambda: 4)
        monkeypatch.setattr(highs, "MIN_PROBES_PER_THREAD", 4)
        with _solver_processes(4):  # one thread: a solver process per core
            serial = vcg_payments(problem, solution, alpha, compiled=compiled)
        assert serial.threads == 1
        fanned = vcg_payments(problem, solution, alpha, compiled=compiled)
        assert fanned.threads == highs.probe_threads(fanned.probes) > 1
        assert fanned.probes == serial.probes >= 12
        assert fanned.screened == serial.screened
        assert (fanned.payments > 0).sum() >= 10
        assert np.array_equal(fanned.payments, serial.payments)
        assert np.array_equal(fanned.lp_without, serial.lp_without)

    def test_a_failed_certificate_on_another_thread_raises(self, monkeypatch):
        problem = metro_truthful_auction(300, 4, seed=1)
        solution = CompiledAuction(problem).solve_lp()
        caller = threading.current_thread()
        solve = ResidentLP.solve
        solved_elsewhere = threading.Event()

        def failing(self):
            if threading.current_thread() is caller:
                # leave probes for the other thread: it loads its own model first
                solved_elsewhere.wait(0.005)
                return solve(self)
            solved_elsewhere.set()
            report = solve(self)
            raise RuntimeError(
                f"LP solve ({report.mode}, warm) returned no certified optimal "
                "basis: injected on a probe thread"
            )

        monkeypatch.setattr(ResidentLP, "solve", failing)
        monkeypatch.setattr(highs, "_cores", lambda: 2)  # two threads on any host
        with pytest.raises(RuntimeError, match="injected on a probe thread"):
            vcg_payments(problem, solution, default_alpha(problem))
        assert solved_elsewhere.is_set()
        assert not any(t.name.startswith("vcg-probe") for t in threading.enumerate())

    def test_thread_budget(self):
        many = 100 * highs.MIN_PROBES_PER_THREAD
        few = 2 * highs.MIN_PROBES_PER_THREAD - 1
        assert highs.probe_threads(few, solver_processes=1, cores=8) == 1
        assert highs.probe_threads(2 * highs.MIN_PROBES_PER_THREAD, 1, 8) == 2
        assert highs.probe_threads(many, solver_processes=2, cores=2) == 1
        assert highs.probe_threads(many, solver_processes=4, cores=4) == 1
        assert highs.probe_threads(many, solver_processes=8, cores=2) == 1
        assert highs.probe_threads(many, solver_processes=1, cores=2) == 2
        assert highs.probe_threads(many, solver_processes=2, cores=8) == 4
        with _solver_processes(3):
            assert highs.probe_threads(many, cores=3) == 1
            # the count is this thread's backend state: another thread counts 1
            seen = []
            other = threading.Thread(target=lambda: seen.append(highs.probe_threads(many, cores=3)))
            other.start()
            other.join()
            assert seen == [3]
        assert highs.probe_threads(many, cores=3) == 3

    def test_the_solved_compiled_auction_is_reused(self, monkeypatch):
        problem = metro_truthful_auction(120, 4, seed=3)
        compiled = CompiledAuction(problem)
        solution = compiled.solve_lp()
        loaded = []
        fan_out = vcg_module.zeroed_cost_optima

        def recording(c, a, b, groups):
            loaded.append(a)
            return fan_out(c, a, b, groups)

        monkeypatch.setattr(vcg_module, "zeroed_cost_optima", recording)
        alpha = default_alpha(problem)
        reused = vcg_payments(problem, solution, alpha, compiled=compiled)
        assert loaded[-1] is compiled.matrices_csc()[0]
        # a compilation of other columns is ignored, not trusted
        other = CompiledAuction(metro_truthful_auction(120, 4, seed=4))
        rebuilt = vcg_payments(problem, solution, alpha, compiled=other)
        assert loaded[-1] is not compiled.matrices_csc()[0]
        assert loaded[-1] is not other.matrices_csc()[0]
        assert np.array_equal(reused.payments, rebuilt.payments)


class TestTruthfulMechanism:
    def test_outcome_consistency(self, small_setup):
        problem, _ = small_setup
        mech = TruthfulMechanism(problem.structure, problem.k)
        outcome = mech.run(problem.valuations, seed=8)
        assert problem.is_feasible(outcome.sampled_allocation)
        assert outcome.lp_value > 0
        for v in range(problem.n):
            assert outcome.expected_utility(v, problem.valuations[v]) >= -1e-9

    def test_truthfulness_in_expectation(self, small_setup):
        """E[u(truth)] ≥ E[u(misreport)] for sampled misreports (exact
        expected utilities, no sampling noise)."""
        problem, _ = small_setup
        mech = TruthfulMechanism(problem.structure, problem.k)
        truthful_outcome = mech.run(problem.valuations, seed=9, sample=False)
        rng = np.random.default_rng(10)
        bidder = 2
        true_val = problem.valuations[bidder]
        u_truth = truthful_outcome.expected_utility(bidder, true_val)
        for trial in range(4):
            lied = list(problem.valuations)
            bids = {
                bundle: float(rng.integers(1, 120))
                for bundle in true_val.support()
            }
            lied[bidder] = XORValuation(problem.k, bids)
            lied_outcome = mech.run(lied, seed=11 + trial, sample=False)
            u_lie = lied_outcome.expected_utility(bidder, true_val)
            assert u_truth >= u_lie - 1e-6

    def test_overbidding_not_profitable(self, small_setup):
        problem, _ = small_setup
        mech = TruthfulMechanism(problem.structure, problem.k)
        truthful_outcome = mech.run(problem.valuations, seed=12, sample=False)
        bidder = 0
        true_val = problem.valuations[bidder]
        u_truth = truthful_outcome.expected_utility(bidder, true_val)
        exaggerated = XORValuation(
            problem.k, {b: v * 10 for b, v in true_val.bids.items()}
        )
        lied = list(problem.valuations)
        lied[bidder] = exaggerated
        out = mech.run(lied, seed=13, sample=False)
        assert u_truth >= out.expected_utility(bidder, true_val) - 1e-6
