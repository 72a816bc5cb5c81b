"""Batch engine behavior: determinism, caching, fast LP backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.auction import AuctionProblem
from repro.core.lp import solve_packing_lp
from repro.core.solver import SpectrumAuctionSolver
from repro.engine import (
    BatchAuctionEngine,
    compile_auction,
    compile_structure,
    fast_backend_available,
    solve_packing_lp_fast,
    structure_cache_stats,
)
from repro.experiments.workloads import (
    physical_auction,
    protocol_auction,
    protocol_auction_fleet,
)
from repro.valuations.generators import random_xor_valuations


@pytest.fixture()
def small_fleet():
    """Six distinct problems over two shared structures, plus two repeats."""
    fleet = protocol_auction_fleet(2, 3, 12, 3, seed=6001)
    return fleet + [fleet[0], fleet[3]]


def _results_equal(a, b):
    return all(
        x.allocation == y.allocation
        and x.welfare == y.welfare
        and x.lp_value == y.lp_value
        and x.feasible == y.feasible
        for x, y in zip(a.results, b.results)
    )


class TestBatchEngine:
    def test_serial_deterministic(self, small_fleet):
        engine = BatchAuctionEngine()
        first = engine.solve_many(small_fleet, seed=17)
        second = engine.solve_many(small_fleet, seed=17)
        assert _results_equal(first, second)

    def test_repeated_problems_share_lp_solves(self, small_fleet):
        batch = BatchAuctionEngine().solve_many(small_fleet, seed=3)
        assert batch.n_instances == 8
        assert batch.unique_problems == 6
        assert batch.lp_solves == 6

    def test_matches_individual_solver(self, small_fleet):
        batch = BatchAuctionEngine().solve_many(small_fleet, seed=23)
        seeds = np.random.SeedSequence(23).spawn(len(small_fleet))
        for problem, child, result in zip(small_fleet, seeds, batch.results):
            solo = SpectrumAuctionSolver(problem).solve(seed=child)
            assert solo.allocation == result.allocation
            assert solo.welfare == result.welfare

    def test_spec_callables(self):
        specs = [lambda i=i: protocol_auction(10, 2, seed=7000 + i) for i in range(3)]
        batch = BatchAuctionEngine().solve_many(specs, seed=5)
        assert batch.n_instances == 3
        assert all(r.feasible for r in batch.results)

    def test_generator_input(self):
        batch = BatchAuctionEngine().solve_many(
            (protocol_auction(10, 2, seed=7100 + i) for i in range(3)), seed=5
        )
        assert batch.n_instances == 3

    def test_summary_fields(self, small_fleet):
        batch = BatchAuctionEngine().solve_many(small_fleet, seed=2)
        assert batch.summary["n_instances"] == 8
        assert batch.summary["total_welfare"] == pytest.approx(batch.total_welfare)
        assert 0.0 <= batch.guarantee_met_fraction <= 1.0
        assert batch.wall_time > 0

    def test_empty_batch(self):
        batch = BatchAuctionEngine().solve_many([], seed=1)
        assert batch.n_instances == 0

    def test_rejects_non_problem(self):
        with pytest.raises(TypeError):
            BatchAuctionEngine().solve_many([42], seed=1)

    def test_derandomized_batch(self, small_fleet):
        engine = BatchAuctionEngine(derandomize=True)
        a = engine.solve_many(small_fleet[:3], seed=None)
        b = engine.solve_many(small_fleet[:3], seed=None)
        assert _results_equal(a, b)  # deterministic even without a seed

    def test_weighted_batch(self):
        problems = [physical_auction(10, 2, seed=7200 + i) for i in range(3)]
        batch = BatchAuctionEngine().solve_many(problems, seed=8)
        assert all(r.feasible for r in batch.results)


class TestCompilationCache:
    def test_compile_auction_identity_cached(self):
        problem = protocol_auction(10, 2, seed=7300)
        assert compile_auction(problem) is compile_auction(problem)

    def test_structures_shared_across_problems(self):
        base = protocol_auction(10, 2, seed=7301)
        other = AuctionProblem(
            base.structure, 2, random_xor_valuations(10, 2, seed=7302)
        )
        assert compile_auction(base).structure is compile_auction(other).structure

    def test_structure_cache_stats_move(self):
        before = structure_cache_stats()
        problem = protocol_auction(10, 2, seed=7303)
        compile_structure(problem.structure)
        compile_structure(problem.structure)
        after = structure_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1

    def test_repeat_solves_consistent_and_single_lp(self):
        problem = protocol_auction(12, 3, seed=7304)
        compiled = compile_auction(problem)
        first = compiled.solve(seed=5)
        second = compiled.solve(seed=5)
        third = compiled.solve(seed=6)
        assert first.allocation == second.allocation
        assert first.welfare == second.welfare
        assert third.lp_value == first.lp_value
        assert compiled.lp_solve_count == 1

    def test_lp_solution_object_stable(self):
        compiled = compile_auction(protocol_auction(12, 3, seed=7305))
        assert compiled.solve_lp() is compiled.solve_lp()

    def test_concurrent_callers_share_one_lp_solve(self, monkeypatch):
        """A thread asking for the LP while another solves it waits for
        that solve instead of running HiGHS a second time."""
        import threading
        import time

        import repro.engine.compiled as compiled_module

        calls = []

        def slow_solve(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.2)  # the second caller arrives mid-solve
            return solve_packing_lp_fast(*args, **kwargs)

        monkeypatch.setattr(compiled_module, "solve_packing_lp_fast", slow_solve)
        compiled = compile_auction(protocol_auction(12, 3, seed=7306))
        solutions = []
        threads = [
            threading.Thread(target=lambda: solutions.append(compiled.solve_lp()))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(calls) == 1
        assert compiled.lp_solve_count == 1
        assert solutions[0] is solutions[1]


class TestLpSolutionArgument:
    def test_precomputed_lp_reused(self):
        problem = protocol_auction(12, 3, seed=7400)
        solver = SpectrumAuctionSolver(problem)
        lp = solver.solve_lp()
        with_precomputed = solver.solve(seed=9, lp_solution=lp)
        without = solver.solve(seed=9)
        assert with_precomputed.allocation == without.allocation
        assert with_precomputed.welfare == without.welfare
        assert solver.compiled.lp_solve_count == 1  # never re-solved

    def test_repeat_rounding_loop_single_lp(self):
        problem = protocol_auction(12, 3, seed=7401)
        solver = SpectrumAuctionSolver(problem)
        lp = solver.solve_lp()
        results = [solver.solve(seed=s, lp_solution=lp) for s in range(5)]
        assert solver.compiled.lp_solve_count == 1
        assert all(r.lp_value == lp.value for r in results)


class TestFastLPBackend:
    def test_backend_available_here(self):
        # scipy in this environment exposes the private HiGHS bindings;
        # if this ever fails the engine silently falls back to linprog
        assert fast_backend_available()

    def test_matches_reference_on_random_packing_lps(self):
        rng = np.random.default_rng(7500)
        import scipy.sparse as sp

        for _ in range(5):
            m, n = 30, 20
            a = sp.random(m, n, density=0.3, random_state=rng, format="csc")
            b = rng.uniform(1.0, 5.0, size=m)
            c = rng.uniform(0.1, 2.0, size=n)
            ref = solve_packing_lp(c, a.tocsr(), b)
            fast = solve_packing_lp_fast(c, a, b)
            assert fast.value == pytest.approx(ref.value, rel=1e-9)
            assert np.allclose(fast.x, ref.x, atol=1e-9)
            assert np.allclose(fast.duals, ref.duals, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError):
            solve_packing_lp_fast(
                np.ones(3), sp.csc_matrix(np.ones((2, 2))), np.ones(2)
            )


class TestMismatchedLpSolution:
    def test_foreign_solution_rejected(self):
        a = protocol_auction(10, 2, seed=7600)
        b = protocol_auction(12, 3, seed=7601)
        lp_b = SpectrumAuctionSolver(b).solve_lp()
        with pytest.raises(ValueError, match="does not belong"):
            SpectrumAuctionSolver(a).solve(seed=0, lp_solution=lp_b)


class TestOracleOnlyBidders:
    """Demand-oracle-only valuations (no finite support, large k) must still
    solve through column generation — compilation defers column enumeration."""

    def _oracle_problem(self, k=12):
        from repro.valuations.generators import random_additive_valuations

        problem = protocol_auction(6, 2, seed=7700)
        vals = random_additive_valuations(6, k, seed=7701)
        return AuctionProblem(problem.structure, k, vals)

    def test_solve_routes_through_column_generation(self):
        problem = self._oracle_problem()
        result = SpectrumAuctionSolver(problem).solve(seed=3)
        assert result.feasible
        assert result.lp_value > 0

    def test_explicit_method_still_rejected(self):
        problem = self._oracle_problem()
        with pytest.raises(ValueError, match="no finite support"):
            SpectrumAuctionSolver(problem).solve_lp("explicit")

    def test_bogus_lp_method_rejected_even_with_lp_solution(self):
        problem = protocol_auction(10, 2, seed=7702)
        solver = SpectrumAuctionSolver(problem)
        lp = solver.solve_lp()
        with pytest.raises(ValueError, match="unknown LP method"):
            solver.solve(seed=1, lp_method="colgen", lp_solution=lp)
