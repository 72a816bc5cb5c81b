"""Tests for the conditional-expectation derandomization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.auction_lp import AuctionLP
from repro.core.conflict_resolution import check_condition5, make_fully_feasible
from repro.core.derandomize import derandomize_rounding
from repro.core.rounding import default_scale


class TestDerandomizeUnweighted:
    def test_deterministic(self, protocol_problem):
        lp = AuctionLP(protocol_problem).solve()
        a = derandomize_rounding(protocol_problem, lp)
        b = derandomize_rounding(protocol_problem, lp)
        assert a.allocation == b.allocation

    def test_feasible(self, protocol_problem):
        lp = AuctionLP(protocol_problem).solve()
        result = derandomize_rounding(protocol_problem, lp)
        assert protocol_problem.is_feasible(result.allocation)

    def test_meets_theorem3_bound_deterministically(self, protocol_problem):
        """welfare ≥ b*/(8√k ρ) with certainty, not just in expectation."""
        lp = AuctionLP(protocol_problem).solve()
        result = derandomize_rounding(protocol_problem, lp)
        k, rho = protocol_problem.k, protocol_problem.rho
        bound = lp.value / (8.0 * math.sqrt(k) * rho)
        assert protocol_problem.welfare(result.allocation) >= bound - 1e-9

    def test_estimator_lower_bounds_welfare(self, protocol_problem):
        lp = AuctionLP(protocol_problem).solve()
        result = derandomize_rounding(protocol_problem, lp)
        welfare = protocol_problem.welfare(result.allocation)
        # The chosen class's estimator value lower-bounds the final welfare.
        assert welfare >= max(result.estimator_values) - 1e-9

    def test_estimator_at_least_expectation(self, protocol_problem):
        # F after fixing all vertices ≥ E[F] = initial estimator value.
        lp = AuctionLP(protocol_problem).solve()
        from repro.core.derandomize import _Estimator

        entries = [
            (col.vertex, col.bundle, col.value, x) for col, x in lp.support()
        ]
        est = _Estimator(protocol_problem, entries, default_scale(protocol_problem))
        initial = est.value(est.q.copy())
        q = est.q.copy()
        for v in sorted(est.vertex_cols):
            est.fix_best_choice(v, q)
        assert est.value(q) >= initial - 1e-9

    def test_beats_expected_randomized(self, protocol_problem):
        """Derandomized tentative F ≥ E[F]: compare against the sampled mean."""
        from repro.core.rounding import round_unweighted

        lp = AuctionLP(protocol_problem).solve()
        det = derandomize_rounding(protocol_problem, lp)
        det_welfare = protocol_problem.welfare(det.allocation)
        rng = np.random.default_rng(7)
        rand_mean = np.mean(
            [
                protocol_problem.welfare(
                    round_unweighted(protocol_problem, lp, rng)[0]
                )
                for _ in range(40)
            ]
        )
        # Not a theorem (best-of-two classes differ), but holds comfortably
        # on these instances and guards against estimator regressions.
        assert det_welfare >= 0.5 * rand_mean


class SeedEstimator:
    """The seed-era estimator, kept verbatim as the parity anchor: O(m²)
    Python penalty construction and full-F re-evaluation per choice."""

    def __init__(self, problem, entries, scale):
        import scipy.sparse as sp

        self.values = np.array([e[2] for e in entries])
        self.q = np.array([e[3] / scale for e in entries])
        self.vertex_cols = {}
        for i, (v, _b, _val, _x) in enumerate(entries):
            self.vertex_cols.setdefault(v, []).append(i)
        pen = 2.0 if problem.is_weighted else 1.0
        pos = problem.ordering.pos
        if problem.is_weighted:
            kappa = problem.graph.wbar_matrix
        else:
            kappa = problem.graph.adjacency.astype(float)
        rows, cols, data = [], [], []
        for a, (v, bundle_a, val_a, _xa) in enumerate(entries):
            for b, (u, bundle_b, _vb, _xb) in enumerate(entries):
                if u == v or pos[u] >= pos[v]:
                    continue
                if kappa[u, v] <= 0 or not (bundle_a & bundle_b):
                    continue
                rows.append(a)
                cols.append(b)
                data.append(pen * val_a * kappa[u, v])
        m = len(entries)
        self.penalty = sp.coo_matrix((data, (rows, cols)), shape=(m, m)).tocsr()

    def value(self, q):
        return float(self.values @ q - q @ (self.penalty @ q))

    def fix_best_choice(self, vertex, q):
        cols = self.vertex_cols.get(vertex, [])
        if not cols:
            return
        best_cols, best_val = [], -math.inf
        for choice in [None, *cols]:
            for c in cols:
                q[c] = 0.0
            if choice is not None:
                q[choice] = 1.0
            val = self.value(q)
            if val > best_val:
                best_val = val
                best_cols = [] if choice is None else [choice]
        for c in cols:
            q[c] = 0.0
        for c in best_cols:
            q[c] = 1.0


class TestVectorizedEstimatorParity:
    """The PR 5 vectorized estimator must reproduce the seed estimator:
    bit-equal penalty matrices, the same fix order, and the same
    allocation (sub-ulp gain ties aside — none occur on these anchors)."""

    def _run(self, est_cls, problem, lp):
        from repro.core.derandomize import _Estimator  # noqa: F401

        entries = [
            (col.vertex, col.bundle, col.value, x) for col, x in lp.support()
        ]
        est = est_cls(problem, entries, default_scale(problem))
        q = est.q.copy()
        for v in sorted(est.vertex_cols):
            est.fix_best_choice(v, q)
        tentative = {
            v: b for i, (v, b, _val, _x) in enumerate(entries) if q[i] > 0.5
        }
        return est, tentative

    @pytest.mark.parametrize("fixture", ["protocol_problem", "weighted_problem"])
    def test_matches_seed_estimator(self, fixture, request):
        from repro.core.derandomize import _Estimator

        problem = request.getfixturevalue(fixture)
        lp = AuctionLP(problem).solve()
        ref_est, ref_alloc = self._run(SeedEstimator, problem, lp)
        new_est, new_alloc = self._run(_Estimator, problem, lp)
        diff = ref_est.penalty - new_est.penalty
        assert diff.nnz == 0 or abs(diff).max() == 0.0
        assert ref_alloc == new_alloc

    def test_matches_on_sparse_backed_metro_scene(self):
        from repro.core.derandomize import _Estimator
        from repro.experiments.workloads import metro_disk_auction

        problem = metro_disk_auction(60, 4, seed=404, method="spatial")
        assert problem.graph.is_sparse
        lp = AuctionLP(problem).solve()
        _, ref_alloc = self._run(SeedEstimator, problem, lp)
        _, new_alloc = self._run(_Estimator, problem, lp)
        assert ref_alloc == new_alloc


class TestDerandomizeWeighted:
    def test_partly_feasible_and_bound(self, weighted_problem):
        lp = AuctionLP(weighted_problem).solve()
        result = derandomize_rounding(weighted_problem, lp)
        assert check_condition5(weighted_problem, result.allocation)
        k, rho = weighted_problem.k, weighted_problem.rho
        bound = lp.value / (16.0 * math.sqrt(k) * rho)
        assert weighted_problem.welfare(result.allocation) >= bound - 1e-9

    def test_full_pipeline_meets_combined_bound(self, weighted_problem):
        lp = AuctionLP(weighted_problem).solve()
        partly = derandomize_rounding(weighted_problem, lp).allocation
        result = make_fully_feasible(weighted_problem, partly)
        assert weighted_problem.is_feasible(result.allocation)
        n = max(2, weighted_problem.n)
        k, rho = weighted_problem.k, weighted_problem.rho
        bound = lp.value / (
            16.0 * math.sqrt(k) * rho * math.ceil(math.log2(n))
        )
        assert weighted_problem.welfare(result.allocation) >= bound - 1e-9

    def test_no_split_variant(self, weighted_problem):
        lp = AuctionLP(weighted_problem).solve()
        result = derandomize_rounding(weighted_problem, lp, split=False)
        assert len(result.estimator_values) == 1
        assert check_condition5(weighted_problem, result.allocation)


class TestEarlierKappaCache:
    """The earlier-κ matrix is built once per structure and held by it."""

    @staticmethod
    def _same_bits(a, b) -> bool:
        return (
            a.shape == b.shape
            and a.indptr.tobytes() == b.indptr.tobytes()
            and a.indices.tobytes() == b.indices.tobytes()
            and a.data.tobytes() == b.data.tobytes()
        )

    def test_cached_equals_fresh_build(self, protocol_structure, physical_structure):
        from repro.core.derandomize import _build_earlier_kappa, _earlier_kappa

        for structure in (protocol_structure, physical_structure):
            cached = _earlier_kappa(structure)
            assert _earlier_kappa(structure) is cached
            assert self._same_bits(cached, _build_earlier_kappa(structure))

    def test_no_entry_is_shared(self, links12):
        import dataclasses

        from repro.core.derandomize import _build_earlier_kappa, _earlier_kappa
        from repro.interference.physical import linear_power, physical_model_structure
        from repro.interference.protocol import protocol_model

        unweighted = protocol_model(links12, delta=1.0)
        weighted = physical_model_structure(links12, linear_power(links12, 3.0))
        twin = dataclasses.replace(unweighted)  # equal content, another object
        other = protocol_model(links12, delta=2.0)
        structures = [unweighted, weighted, twin, other]
        matrices = [_earlier_kappa(s) for s in structures]
        assert len({id(m) for m in matrices}) == len(structures)
        for structure, matrix in zip(structures, matrices):
            assert self._same_bits(matrix, _build_earlier_kappa(structure))
        assert set(matrices[0].data.tolist()) == {1.0}  # κ = 1 unweighted
        assert set(matrices[1].data.tolist()) != {1.0}  # κ = w̄ weighted
        assert matrices[3].nnz > matrices[0].nnz  # a larger δ, more conflicts

    def test_entry_goes_with_its_structure(self, links12):
        import gc
        import weakref

        from repro.core.derandomize import _earlier_kappa
        from repro.interference.protocol import protocol_model

        structure = protocol_model(links12, delta=1.0)
        matrix = weakref.ref(_earlier_kappa(structure))
        assert matrix() is not None
        del structure
        gc.collect()
        assert matrix() is None
