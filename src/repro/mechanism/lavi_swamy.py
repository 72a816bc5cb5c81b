"""Lavi–Swamy decomposition (Section 5).

Writes the scaled LP optimum ``x*/α`` as a convex combination of feasible
*integral* allocations.  Column generation over the decomposition LP:

* master (covering form):  min Σ_l λ_l  s.t.  Σ_l λ_l·𝟙[S_l gives v bundle T]
  ≥ x*_{v,T}/α for every support pair, λ ≥ 0;
* pricing: the master's duals ``w ≥ 0`` act as *adjusted valuations*; the
  approximation algorithm (LP re-solve under w + derandomized rounding,
  + Algorithm 3 for weighted graphs) returns an integral allocation of
  w-value ≥ LPopt_w/α ≥ w·x*/α = α·μ/α = μ, so whenever the master optimum
  μ exceeds 1 a violated dual constraint — a new pool allocation — is found.
  This is exactly how the paper "verifies the integrality gap";
* termination: μ ≤ 1.  The deficit 1 − μ goes to the empty allocation, and
  per-pair *keep probabilities* shave the ≥ down to exact equality, so the
  sampled allocation satisfies  E[𝟙(v gets T)] = x*_{v,T}/α  exactly —
  the property the truthfulness proof needs.

The paper's "slight extension" of Lavi–Swamy is reproduced faithfully: the
ILP behind LP (1)/(4) is *infeasible* (integer LP points may violate actual
channel feasibility); what the decomposition uses is only that the
algorithm outputs **feasible** allocations whose value is within α of the
*fractional* optimum, which our rounding algorithms provide.

Two implementations of the column-generation loop coexist:

* ``pricing="approx"`` (default) — the engine-compiled hot path.  Every
  round prices against the same support columns, so everything but the
  master's duals is built once per decomposition (:class:`_CompiledPricer`):
  the pricing LP's matrix through a
  :class:`~repro.engine.compiled.CompiledAuction`, the derandomizer's
  penalty pairs over all support columns, and the resolver's backward
  lists; the master keeps its CSC arrays and grows one column per new
  pool allocation (:class:`_GrowingMaster`).  Each round then only
  slices arrays.  Solves are *cold* (model re-passed, no basis reuse),
  which is what keeps every pricing vertex — and therefore the whole
  decomposition: pool, weights, keep probabilities, samples —
  bit-identical to ``"reference"`` (pinned by
  ``tests/test_mechanism_parity.py`` and
  ``tests/test_compiled_pricing_round.py``).
* ``pricing="reference"`` — the seed-era loop kept verbatim (fresh
  ``AuctionLP`` build + ``linprog`` per iteration): the baseline
  ``BENCH_mechanism.json`` measures against, and the parity anchor.

``pricing="exact"`` prices with the MILP as before (small instances at any
α above their true gap).

Every oracle but the MILP rounds under the round's adjusted valuations —
one bid per support pair, valued by the master's duals.  The reference
oracle holds them as one explicit-table
:class:`~repro.valuations.profile.Profile` built from the support
columns' (vertex, mask) arrays (:class:`_AdjustedBids`) and runs
:func:`~repro.core.derandomize.derandomize_rounding` on that problem.
The compiled oracle runs the same rounding on arrays: each class slices
the decomposition's penalty pairs to its entries and hands them to the
reference estimator (``_Estimator.from_arrays``), and an unweighted
round builds no ``Column``, ``AuctionLPSolution`` or problem at all.
Weighted rounds still resolve and run Algorithm 3 on the adjusted
problem.  The earlier-κ matrix both oracles start from is built once
per conflict structure and held by it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.core.auction import Allocation, AuctionProblem
from repro.core.auction_lp import AuctionLP, AuctionLPSolution, Column, scatter_duals
from repro.core.conflict_resolution import make_fully_feasible
from repro.core.derandomize import _Estimator, _kappa_pairs, derandomize_rounding
from repro.core.rounding import default_scale, resolve_weighted_partial
from repro.engine.highs import solve_packing_lp_fast
from repro.util.rng import ensure_rng
from repro.valuations.base import Valuation
from repro.valuations.explicit import MASK_CHANNELS, ExplicitValuation
from repro.valuations.profile import KIND_EXPLICIT, Profile

__all__ = ["DecompositionResult", "decompose_lp_solution", "default_alpha"]

PRICING_MODES = ("approx", "exact", "reference")


def default_alpha(problem: AuctionProblem) -> float:
    """The verified integrality gap: 8√kρ, ×2⌈log₂ n⌉ for weighted graphs."""
    return problem.approximation_bound()


@dataclass
class DecompositionResult:
    """A convex combination of feasible allocations matching x*/α exactly."""

    # None only while a process-pool reply carries the outcome: the
    # parent re-attaches the problem from its own scene and request
    problem: AuctionProblem | None
    allocations: list[Allocation]
    weights: np.ndarray  # convex weights over `allocations` (sum ≤ 1;
    # the remainder is the empty allocation)
    target: dict[tuple[int, frozenset[int]], float]  # x*_{v,T}/α
    keep_probability: dict[tuple[int, int, frozenset[int]], float]
    alpha: float
    iterations: int
    master_value: float

    @property
    def empty_weight(self) -> float:
        return float(max(0.0, 1.0 - self.weights.sum()))

    def pair_mass(self) -> dict[tuple[int, frozenset[int]], float]:
        """E[𝟙(v gets T)] after keep-probabilities — must equal `target`."""
        mass: dict[tuple[int, frozenset[int]], float] = {k: 0.0 for k in self.target}
        for li, (alloc, lam) in enumerate(zip(self.allocations, self.weights)):
            for v, bundle in alloc.items():
                key = (v, bundle)
                keep = self.keep_probability.get((li, v, bundle), 1.0)
                if key in mass:
                    mass[key] += float(lam) * keep
        return mass

    def expected_welfare(self) -> float:
        """Σ target·b — equals b(x*)/α by construction."""
        return float(
            sum(
                self.problem.valuations[v].value(bundle) * m
                for (v, bundle), m in self.target.items()
            )
        )

    def sample(self, rng=None) -> Allocation:
        """Draw an allocation: pick a pool member by weight, then apply the
        per-pair keep probabilities (dropping a bundle keeps feasibility)."""
        rng = ensure_rng(rng)
        u = rng.random()
        acc = 0.0
        chosen = -1
        for li, lam in enumerate(self.weights):
            acc += float(lam)
            if u < acc:
                chosen = li
                break
        if chosen < 0:
            return {}
        out: Allocation = {}
        for v, bundle in self.allocations[chosen].items():
            keep = self.keep_probability.get((chosen, v, bundle), 1.0)
            if keep >= 1.0 or rng.random() < keep:
                out[v] = bundle
        return out


class _AdjustedBids:
    """The pricing columns as (vertex, mask) arrays, built once per
    decomposition; each pricing round values them by the master's duals.

    :meth:`problem` is the problem under the adjusted valuations (one bid
    per support pair, duplicates keep the max) — what the derandomized
    rounding maximizes.  Its bids are an explicit-table :class:`Profile`
    built from the arrays, with no per-bidder object; a ``k`` beyond int64
    masks falls back to one :class:`ExplicitValuation` per bidder.
    """

    def __init__(self, problem: AuctionProblem, columns: list[Column]) -> None:
        self.base = problem
        self.columns = columns
        m = len(columns)
        self.vertex = np.fromiter((col.vertex for col in columns), np.int64, m)
        self.masks = (
            np.fromiter((sum(1 << j for j in col.bundle) for col in columns), np.int64, m)
            if problem.k <= MASK_CHANNELS
            else None
        )

    def problem(self, values: np.ndarray) -> AuctionProblem:
        n, k = self.base.n, self.base.k
        valuations: Sequence[Valuation]
        if self.masks is None:
            bids: list[dict[frozenset[int], float]] = [dict() for _ in range(n)]
            for col, value in zip(self.columns, values.tolist()):
                if value > 0:
                    prev = bids[col.vertex].get(col.bundle, 0.0)
                    bids[col.vertex][col.bundle] = max(prev, value)
            valuations = [ExplicitValuation(k, b) for b in bids]
        else:
            keep = values > 0
            vertex, masks, values = self.vertex[keep], self.masks[keep], values[keep]
            # by vertex, then mask, largest value first: the first of each
            # (vertex, mask) run is the bid kept
            order = np.lexsort((-values, masks, vertex))
            vertex, masks, values = vertex[order], masks[order], values[order]
            first = np.ones(vertex.size, dtype=bool)
            first[1:] = (vertex[1:] != vertex[:-1]) | (masks[1:] != masks[:-1])
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(vertex[first], minlength=n), out=offsets[1:])
            kinds = np.full(n, KIND_EXPLICIT, dtype=np.int8)
            valuations = Profile(k, offsets, kinds, masks[first], values[first])
        return AuctionProblem(structure=self.base.structure, k=k, valuations=valuations)

    def round(
        self,
        objective: np.ndarray,
        x: np.ndarray,
        value: float,
        y: np.ndarray,
        z: np.ndarray,
    ) -> Allocation:
        """Derandomized rounding (+ Algorithm 3) of an LP solution under the
        adjusted valuations ``objective`` (one per column) — the reference
        oracle's back half, which :meth:`_CompiledPricer.round` matches."""
        adjusted_cols = [
            Column(col.vertex, col.bundle, obj)
            for col, obj in zip(self.columns, objective.tolist())
        ]
        solution = AuctionLPSolution(columns=adjusted_cols, x=x, value=value, y=y, z=z)
        adj_problem = self.problem(objective)
        allocation = derandomize_rounding(adj_problem, solution).allocation
        if self.base.is_weighted:
            allocation = make_fully_feasible(adj_problem, allocation).allocation
        return dict(allocation)


def _integral_allocation_for(
    lp: AuctionLP, bids: _AdjustedBids, objective: np.ndarray
) -> Allocation:
    """The reference pricing oracle: rebuild LP (1)/(4) on its binding
    rows and cold-solve it under the adjusted valuations `objective` (one
    value per LP column)."""
    a, b, _, rows = lp.build_binding()
    from repro.core.lp import solve_packing_lp

    sol = solve_packing_lp(objective, a, b)
    y, z = scatter_duals(sol.duals, rows, bids.base.n, bids.base.k)
    return bids.round(objective, sol.x, sol.value, y, z)


@dataclass
class _Round:
    """One derandomized rounding of a pricing LP solution."""

    allocation: Allocation  # the oracle's answer: feasible
    resolved: Allocation  # the chosen class's, before Algorithm 3
    estimator_values: list[float]  # each class's, after fixing
    class_values: list[float]  # each class's adjusted welfare
    chosen_class: int


class _CompiledPricer:
    """The pricing oracle on the engine: build once per decomposition,
    then run each round on array slices.

    Nothing but the objective (the master's duals ``w``) changes across
    pricing rounds, so everything else is built here, once:

    * the LP's constraint matrix on its binding rows, through
      :class:`CompiledAuction` (shared structure compilation, vectorized
      CSC assembly — the rows the reference oracle keeps).  Each solve
      re-passes the model cold through
      :func:`~repro.engine.highs.solve_packing_lp_fast`, bit-identical to
      the reference oracle's ``linprog``;
    * the derandomizer's penalty pairs over *all* support columns — κ(u, v)
      for every pair of columns whose vertices are earlier-π adjacent and
      whose bundles intersect (:func:`~repro.core.derandomize._kappa_pairs`)
      — as one canonical CSR matrix and its transpose.  A round's class
      keeps the rows and columns of its own entries with NumPy masks (an
      order-preserving subsequence, so still canonical) and scales each
      kept row by ``pen · w_row``: the same floats, in the same CSR order,
      as the reference estimator builds from scratch;
    * on unweighted structures, the support vertices' backward lists
      (:attr:`CompiledStructure.backward`) and the columns' channel masks
      for Algorithm 1's conflict scan, which visits only the tentative
      vertices, in π order.

    :meth:`round` is :func:`~repro.core.derandomize.derandomize_rounding`
    on the adjusted problem (pinned equal by
    ``tests/test_compiled_pricing_round.py``); on unweighted structures it
    builds no ``Column``, ``AuctionLPSolution`` or ``AuctionProblem`` and
    compares the same welfare floats as ``problem.welfare``.  Weighted
    structures resolve with ``resolve_weighted_partial`` and finish with
    Algorithm 3 on the adjusted problem, as the reference does: the
    vectorized Condition (5) sum could differ from it by an ulp.
    """

    def __init__(
        self,
        problem: AuctionProblem,
        columns: list[Column],
        compiled_structure=None,
    ) -> None:
        from repro.engine.compiled import CompiledAuction, compile_structure

        # weighted rounds finish on the adjusted problem (Algorithm 3)
        self._bids = _AdjustedBids(problem, columns) if problem.is_weighted else None
        compiled = CompiledAuction(
            problem,
            structure=compiled_structure or compile_structure(problem.structure),
            columns=columns,
        )
        self._a, self._b, _ = compiled.matrices_csc()
        cols = compiled.cols
        self._vertex = cols.vertex
        self._vertex_list: list[int] = cols.vertex.tolist()
        self._bundles = cols.bundles
        self._pos = compiled.structure.pos
        self._n = problem.n
        # Algorithm 1's scan runs on Python ints: each column's channel
        # mask, and the backward lists Γ_π(v) of the support's vertices
        self._masks = [sum(1 << j for j in bundle) for bundle in cols.bundles]
        backward = compiled.structure.backward
        self._backward = {v: backward[v].tolist() for v in dict.fromkeys(self._vertex_list)}
        self._large = cols.ch_counts > math.sqrt(problem.k)
        self._scale = default_scale(problem)
        self._pen = 2.0 if problem.is_weighted else 1.0
        m = cols.vertex.size
        rows, pair_cols, kappa = _kappa_pairs(problem.structure, cols.vertex, cols.chan_mask)
        pairs = sp.coo_matrix((kappa, (rows, pair_cols)), shape=(m, m)).tocsr()
        pairs.sort_indices()
        pairs_t = pairs.T.tocsr()
        pairs_t.sort_indices()
        self._pairs = _PairSlicer(pairs)
        self._pairs_t = _PairSlicer(pairs_t)
        # support columns sharing a (vertex, bundle) are one adjusted bid,
        # valued at the group's largest positive dual (as _AdjustedBids)
        keys = list(zip(self._vertex_list, self._masks))
        groups: dict[tuple[int, int], int] = {}
        group = [groups.setdefault(key, len(groups)) for key in keys]
        self._group = np.array(group) if len(groups) < m else None

    def price(self, objective: np.ndarray) -> Allocation:
        sol = solve_packing_lp_fast(objective, self._a, self._b, solver="simplex")
        return self.round(objective, sol.x).allocation

    def round(self, objective: np.ndarray, x: np.ndarray) -> _Round:
        """Derandomized Algorithm 1/2 of the pricing LP solution ``x``
        under the adjusted valuations ``objective`` (one per column)."""
        support = x > 1e-9  # AuctionLPSolution.support()'s tolerance
        adjusted = None if self._bids is None else self._bids.problem(objective)
        bid_values = self._bid_values(objective)
        estimator_values: list[float] = []
        class_values: list[float] = []
        best: Allocation = {}
        best_value = -1.0
        chosen_class = -1
        for cls, in_class in enumerate((support & ~self._large, support & self._large)):
            entries = np.flatnonzero(in_class)
            estimator = self._estimator(entries, objective, x)
            q = estimator.q.copy()
            for v in sorted(estimator.vertex_cols):
                estimator.fix_best_choice(v, q)
            estimator_values.append(estimator.value(q))
            tentative = entries[q > 0.5]
            if adjusted is None:
                survivors = self._resolve_unweighted(tentative)
                allocation = {self._vertex_list[c]: self._bundles[c] for c in survivors}
                # problem.welfare's terms, summed in the same order
                value = float(sum(bid_values[survivors].tolist()))
            else:
                allocation, _ = resolve_weighted_partial(
                    adjusted,
                    {self._vertex_list[c]: self._bundles[c] for c in tentative.tolist()},
                )
                value = adjusted.welfare(allocation)
            class_values.append(value)
            if value > best_value:
                best, best_value, chosen_class = allocation, value, cls
        feasible = best if adjusted is None else make_fully_feasible(adjusted, best).allocation
        return _Round(dict(feasible), best, estimator_values, class_values, chosen_class)

    def _bid_values(self, objective: np.ndarray) -> np.ndarray:
        """Each column's adjusted bid ``b_v(T)``: its dual when positive
        (no bid otherwise), the largest over columns of one (v, T)."""
        values = np.where(objective > 0, objective, 0.0)
        if self._group is not None:
            best = np.zeros(self._group.max() + 1)
            np.maximum.at(best, self._group, values)
            values = best[self._group]
        return values

    def _estimator(
        self, entries: np.ndarray, objective: np.ndarray, x: np.ndarray
    ) -> _Estimator:
        """The class estimator over ``entries`` (ascending column indices)."""
        m = self._vertex.size
        keep = np.zeros(m, dtype=bool)
        keep[entries] = True
        local = np.full(m, -1, dtype=np.int32)
        local[entries] = np.arange(entries.size, dtype=np.int32)
        values = objective[entries]
        size = entries.size
        penalty = self._pairs.slice(keep, local, size, self._pen, values, by_row=True)
        penalty_t = self._pairs_t.slice(keep, local, size, self._pen, values, by_row=False)
        return _Estimator.from_arrays(
            values, x[entries] / self._scale, self._vertex[entries], penalty, penalty_t
        )

    def _resolve_unweighted(self, tentative: np.ndarray) -> list[int]:
        """Algorithm 1's survivors rule over the tentative columns (one per
        vertex), scanned in π order: a column survives unless a surviving
        backward neighbor's channel mask meets its own — what
        :func:`~repro.core.rounding.resolve_unweighted` decides."""
        order = tentative[np.argsort(self._pos[self._vertex[tentative]])].tolist()
        backward, masks = self._backward, self._masks
        occupied = [0] * self._n  # surviving vertices' channel masks
        survivors: list[int] = []
        for c in order:
            v, mask = self._vertex_list[c], masks[c]
            if any(occupied[u] & mask for u in backward[v]):
                continue
            occupied[v] = mask
            survivors.append(c)
        return survivors


class _PairSlicer:
    """A canonical CSR pair matrix over all support columns, sliced per
    round to the entries of one class."""

    def __init__(self, pairs: sp.csr_matrix) -> None:
        self.kappa = pairs.data
        self.cols = pairs.indices
        self.rows = np.repeat(
            np.arange(pairs.shape[0], dtype=np.int32), np.diff(pairs.indptr)
        )

    def slice(
        self,
        keep: np.ndarray,
        local: np.ndarray,
        size: int,
        pen: float,
        values: np.ndarray,
        by_row: bool,
    ) -> sp.csr_matrix:
        """The rows and columns in ``keep``, renumbered by ``local``, each
        entry scaled to ``pen · values[a] · κ`` where ``a`` is its row
        (``by_row``) or its column: the penalty matrix, or its transpose."""
        kept = keep[self.rows] & keep[self.cols]
        rows = local[self.rows[kept]]
        cols = local[self.cols[kept]]
        indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
        data = pen * values[rows if by_row else cols] * self.kappa[kept]
        matrix = sp.csr_matrix((data, cols, indptr), shape=(size, size))
        matrix.has_sorted_indices = True
        return matrix


def _solve_master(
    pool: list[Allocation],
    pairs: list[tuple[int, frozenset[int]]],
    r: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray]:
    """min Σλ s.t. Σ_l λ_l 𝟙[pair ∈ l] ≥ r; returns (λ, μ, duals w ≥ 0).

    The reference master: rebuilt from the whole pool and cold-solved with
    ``linprog`` every iteration.
    """
    a = _master_matrix(pool, pairs)
    res = linprog(
        np.ones(len(pool)),
        A_ub=-a,
        b_ub=-r,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"decomposition master failed: {res.message}")
    duals = np.asarray(res.ineqlin.marginals, dtype=float)
    w = np.maximum(-duals, 0.0)  # duals of ≥-rows in min problem are ≤ 0
    return np.asarray(res.x, dtype=float), float(res.fun), w


def _master_matrix(
    pool: list[Allocation], pairs: list[tuple[int, frozenset[int]]]
) -> sp.csr_matrix:
    pair_index = {p: i for i, p in enumerate(pairs)}
    rows, cols, data = [], [], []
    for li, alloc in enumerate(pool):
        for v, bundle in alloc.items():
            idx = pair_index.get((v, bundle))
            if idx is not None:
                rows.append(idx)
                cols.append(li)
                data.append(1.0)
    return sp.coo_matrix((data, (rows, cols)), shape=(len(pairs), len(pool))).tocsr()


class _GrowingMaster:
    """The master of the compiled path, grown in place.

    The pool only ever gains allocations, so the master keeps its CSC
    arrays and appends one column per new pool allocation (its support
    pairs' rows, ascending) instead of rebuilding :func:`_master_matrix`
    from the whole pool.  Each solve is still the cold
    :func:`~repro.engine.highs.solve_packing_lp_fast` of the identical
    matrix ``linprog`` would get (min Σλ as max −Σλ over −Aλ ≤ −r), so
    primal, value and duals are bit-identical to :func:`_solve_master`.
    """

    def __init__(self, pairs: list[tuple[int, frozenset[int]]], r: np.ndarray) -> None:
        self._pair_index = {p: i for i, p in enumerate(pairs)}
        self._r = r
        self._indptr = [0]
        self._indices: list[int] = []

    def solve(self, pool: list[Allocation]) -> tuple[np.ndarray, float, np.ndarray]:
        index = self._pair_index
        for alloc in pool[len(self._indptr) - 1 :]:
            rows = (index.get(item) for item in alloc.items())
            self._indices.extend(sorted(i for i in rows if i is not None))
            self._indptr.append(len(self._indices))
        size = len(pool)
        a = sp.csc_matrix(
            (
                np.full(len(self._indices), -1.0),
                np.array(self._indices, dtype=np.int32),
                np.array(self._indptr, dtype=np.int32),
            ),
            shape=(self._r.size, size),
        )
        sol = solve_packing_lp_fast(-np.ones(size), a, -self._r, solver="simplex")
        return sol.x, float(-sol.value), sol.duals


def decompose_lp_solution(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    alpha: float | None = None,
    max_iterations: int = 400,
    tolerance: float = 1e-7,
    seed=None,
    pricing: str = "approx",
    compiled_structure=None,
) -> DecompositionResult:
    """Decompose ``x*/α`` into a convex combination of feasible allocations.

    ``pricing`` selects the oracle that searches for violated dual
    constraints: ``"approx"`` is the paper's route (the α-approximation
    itself, valid whenever α is the verified gap 8√kρ / 16√kρ⌈log n⌉) on
    the engine-compiled fast path, bit-identical to ``"reference"`` — the
    same oracle on the seed-era rebuild-per-iteration pipeline (the
    benchmark baseline; parity is pinned by
    ``tests/test_mechanism_parity.py``).
    ``"exact"`` prices with the MILP of :mod:`repro.core.exact`, letting
    small instances decompose at *any* α down to their true integrality
    gap (used by experiment E8 to run the mechanism at practical scales).

    ``compiled_structure`` forwards an existing engine compilation of the
    problem's structure to the compiled pricer (the mechanism and the
    auction service pass their cached ones).
    """
    if pricing not in PRICING_MODES:
        raise ValueError(f"unknown pricing mode {pricing!r}")
    rng = ensure_rng(seed)
    alpha_val = default_alpha(problem) if alpha is None else float(alpha)
    support = solution.support()
    pairs = [(col.vertex, col.bundle) for col, _ in support]
    support_x = np.array([x for _, x in support])
    r = support_x / alpha_val
    target = {p: float(ri) for p, ri in zip(pairs, r)}
    support_cols = [col for col, _ in support]

    if pricing == "reference":
        lp = AuctionLP(problem, columns=support_cols)
        columns = lp.columns
        bids = _AdjustedBids(problem, columns)
        price = lambda objective: _integral_allocation_for(lp, bids, objective)  # noqa: E731
        master = lambda pool: _solve_master(pool, pairs, r)  # noqa: E731
    else:
        columns = support_cols
        price = _CompiledPricer(
            problem, support_cols, compiled_structure=compiled_structure
        ).price
        master = _GrowingMaster(pairs, r).solve

    # Seed pool: the true-valuation allocation plus per-pair singletons
    # (every single (v, T) is feasible on its own), guaranteeing the master
    # is feasible from the first iteration.
    pool: list[Allocation] = []
    seen: set[tuple[tuple[int, frozenset[int]], ...]] = set()

    def add(alloc: Allocation) -> bool:
        key = tuple(sorted(((v, b) for v, b in alloc.items() if b)))
        if key in seen:
            return False
        seen.add(key)
        pool.append({v: b for v, b in alloc.items() if b})
        return True

    add(price(np.array([c.value for c in columns])))
    for v, bundle in pairs:
        add({v: bundle})

    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        lam, mu, w = master(pool)
        if mu <= 1.0 + tolerance:
            break
        # columns and pairs share the same order by construction
        objective = np.asarray(w, dtype=float).copy()
        if pricing == "exact":
            from repro.core.exact import solve_exact

            adjusted_cols = [
                Column(c.vertex, c.bundle, float(o))
                for c, o in zip(columns, objective)
                if o > 0
            ]
            exact = solve_exact(problem, columns=adjusted_cols)
            if exact.value <= 1.0 + tolerance:
                raise RuntimeError(
                    f"decomposition infeasible: α={alpha_val} is below this "
                    "instance's integrality gap (exact pricing found no "
                    "violated constraint while the master optimum is "
                    f"{mu:.4f} > 1)"
                )
            new_alloc = exact.allocation
        else:
            new_alloc = price(objective)
        if not add(new_alloc):
            # Pricing returned a known allocation: numerically stuck.  Try a
            # randomized escape before giving up (theory says w-value ≥ μ).
            escaped = False
            from repro.core.rounding import round_unweighted, round_weighted

            adjusted = AuctionLPSolution(
                columns=[
                    Column(c.vertex, c.bundle, float(o))
                    for c, o in zip(columns, objective)
                ],
                x=support_x,
                value=solution.value,
                y=solution.y,
                z=solution.z,
            )
            for _ in range(10):
                if problem.is_weighted:
                    alloc, _ = round_weighted(problem, adjusted, rng)
                else:
                    alloc, _ = round_unweighted(problem, adjusted, rng)
                if add(alloc):
                    escaped = True
                    break
            if not escaped:
                raise RuntimeError(
                    "decomposition pricing stalled; the verified integrality "
                    f"gap α={alpha_val} may be too small for this instance"
                )
    else:
        raise RuntimeError("decomposition did not converge")

    # Exact equality via keep probabilities: achieved mass may exceed r.
    achieved = {p: 0.0 for p in pairs}
    for li, alloc in enumerate(pool):
        if lam[li] <= 0:
            continue
        for v, bundle in alloc.items():
            key = (v, bundle)
            if key in achieved:
                achieved[key] += lam[li]
    keep: dict[tuple[int, int, frozenset[int]], float] = {}
    for li, alloc in enumerate(pool):
        if lam[li] <= 0:
            continue
        for v, bundle in alloc.items():
            key = (v, bundle)
            if key not in achieved:
                keep[(li, v, bundle)] = 0.0  # outside support: always drop
            elif achieved[key] > target[key]:
                keep[(li, v, bundle)] = target[key] / achieved[key]

    used = [li for li in range(len(pool)) if lam[li] > tolerance]
    allocations = [pool[li] for li in used]
    weights = np.array([lam[li] for li in used])
    keep_remap = {
        (used.index(li), v, b): q for (li, v, b), q in keep.items() if li in used
    }
    total = float(weights.sum())
    if total > 1.0:  # normalize tiny numerical overshoot
        weights = weights / total
    return DecompositionResult(
        problem=problem,
        allocations=allocations,
        weights=weights,
        target=target,
        keep_probability=keep_remap,
        alpha=alpha_val,
        iterations=iterations,
        master_value=float(mu),
    )
