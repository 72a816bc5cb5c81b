"""Deterministic rounding via the method of conditional expectations.

Section 5 notes the rounding algorithms "can be derandomized using the
technique of pairwise independence" — the Lavi–Swamy pricing oracle needs a
*deterministic* algorithm with the integrality-gap guarantee.  We implement
the equivalent conditional-expectations derandomization on the proofs' own
pessimistic estimator.

For one bundle-size class with rounding probabilities ``q_{v,T} = x_{v,T}/scale``:

    F(q) = Σ_{(v,T)} b_{v,T} q_{v,T} (1 − pen · Σ_{u ∈ Γ_π(v)} Σ_{T'∩T≠∅} κ(u,v) q_{u,T'})

with (κ, pen) = (1, 1) unweighted and (w̄(u,v), 2) weighted.  F is
multilinear across vertices (different vertices round independently; no
same-vertex cross terms appear because Γ_π(v) excludes v), so fixing one
vertex's choice to the argmax of the conditional expectation never
decreases F.  The realized F lower-bounds the post-conflict-resolution
welfare: a vertex removed by Algorithm 1 has penalty sum ≥ 1, and one
removed by Algorithm 2 has w̄-sum ≥ 1/2 ⇒ pen·sum ≥ 1.  Since
E[F] ≥ (1/2)·Σ b x / scale (the Lemma 4 computation), the deterministic
output meets the same 8√kρ / 16√kρ bounds as the randomized rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.auction import Allocation, AuctionProblem, Structure
from repro.core.auction_lp import AuctionLPSolution
from repro.core.rounding import (
    RoundingReport,
    default_scale,
    resolve_unweighted,
    resolve_weighted_partial,
)
from repro.interference.base import WeightedConflictStructure

__all__ = ["DerandomizedResult", "derandomize_rounding"]

# the attribute a structure holds its cached earlier-κ matrix under
_KAPPA_ATTR = "_earlier_kappa_csr"


@dataclass
class DerandomizedResult:
    """Tentative allocations per class, their estimator values, and the
    resolved allocation chosen (best class by true welfare)."""

    allocation: Allocation
    estimator_values: list[float]
    tentative: list[Allocation]
    report: RoundingReport


def _build_earlier_kappa(structure: Structure) -> sp.csr_matrix:
    """Sparse ``B[v, u] = κ(u, v) · [π(u) < π(v)]`` over the conflict graph.

    Built from the CSR backend when the graph is sparse (no n×n densify);
    entries are identical either way, so the penalty matrix below is
    bit-equal across backends.
    """
    is_weighted = isinstance(structure, WeightedConflictStructure)
    pos = structure.ordering.pos
    graph = structure.graph
    if graph.is_sparse:
        src = graph.wbar_csr if is_weighted else graph.csr
        coo = src.tocoo()
        mask = pos[coo.col] < pos[coo.row]
        data = coo.data[mask].astype(float) if is_weighted else np.ones(int(mask.sum()))
        b = sp.csr_matrix(
            (data, (coo.row[mask], coo.col[mask])), shape=(graph.n, graph.n)
        )
    else:
        kappa = graph.wbar_matrix if is_weighted else graph.adjacency.astype(float)
        earlier = pos[None, :] < pos[:, None]  # earlier[v, u]: π(u) < π(v)
        b = sp.csr_matrix(np.where(earlier & (kappa > 0), kappa, 0.0))
    b.sort_indices()
    return b


def _earlier_kappa(structure: Structure) -> sp.csr_matrix:
    """:func:`_build_earlier_kappa`, built once per structure and held by
    the structure object itself: every pricing round of a decomposition,
    and every auction on one scene, reuse it, and it goes when the
    structure goes.  The weighted flag is the structure's type, so the
    two kinds never share a matrix.  Callers must not mutate it."""
    cached = vars(structure).get(_KAPPA_ATTR)
    if cached is None:
        cached = _build_earlier_kappa(structure)
        setattr(structure, _KAPPA_ATTR, cached)
    return cached


def _kappa_pairs(
    structure: Structure, verts: np.ndarray, chan: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of entries ``(a, b)`` whose vertices are graph-adjacent
    with π(v_b) < π(v_a) and whose bundles (rows of the ``chan``
    incidence) intersect, as COO ``(rows, cols, κ(v_b, v_a))`` in
    row-major order.

    Entry-level vertex adjacency comes from sparse incidence products over
    the structure's earlier-κ matrix, in O(nnz) — the same entries the
    seed implementation found with an O(m²) Python double loop.
    """
    m = verts.size
    if not m:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0)
    incidence = sp.csr_matrix(
        (np.ones(m), (np.arange(m), verts)), shape=(m, structure.n)
    )
    pairs = (incidence @ _earlier_kappa(structure) @ incidence.T).tocoo()
    keep = (chan[pairs.row] & chan[pairs.col]).any(axis=1)
    return pairs.row[keep], pairs.col[keep], pairs.data[keep]


class _Estimator:
    """F(q) = b·q − qᵀ M q over one class's columns.

    ``penalty[a, b] = pen · val_a · κ(u_b, v_a)`` for entries whose vertices
    are graph-adjacent with π(u_b) < π(v_a) and whose bundles intersect —
    the same matrix the seed implementation assembled with an O(m²) Python
    double loop, built here from :func:`_kappa_pairs` in O(nnz).
    Different vertices round independently and Γ_π(v) excludes v, so the
    matrix never couples two entries of one vertex — which is what makes
    the O(degree) incremental update in :meth:`fix_best_choice` exact.
    """

    def __init__(
        self,
        problem: AuctionProblem,
        entries: list[tuple[int, frozenset[int], float, float]],
        scale: float,
    ) -> None:
        m = len(entries)
        values = np.array([e[2] for e in entries])
        q = np.array([e[3] / scale for e in entries])
        verts = np.fromiter((e[0] for e in entries), dtype=np.intp, count=m)
        pen = 2.0 if problem.is_weighted else 1.0
        chan = np.zeros((m, problem.k), dtype=bool)
        for i, (_v, bundle, _val, _x) in enumerate(entries):
            chan[i, list(bundle)] = True
        # rows scaled by pen·val_a — same entries (and canonical CSR
        # order) as the seed's double loop
        rows, cols, kappa = _kappa_pairs(problem.structure, verts, chan)
        data = pen * values[rows] * kappa
        penalty = sp.coo_matrix((data, (rows, cols)), shape=(m, m)).tocsr()
        penalty.sort_indices()
        penalty_t = penalty.T.tocsr()
        penalty_t.sort_indices()
        self._setup(values, q, verts, penalty, penalty_t)

    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        q: np.ndarray,
        verts: np.ndarray,
        penalty: sp.csr_matrix,
        penalty_t: sp.csr_matrix,
    ) -> _Estimator:
        """An estimator over entries given as arrays — values, initial
        marginals, vertices — with a prebuilt canonical (sorted) penalty
        matrix and its transpose, as the constructor would build them."""
        estimator = cls.__new__(cls)
        estimator._setup(values, q, verts, penalty, penalty_t)
        return estimator

    def _setup(
        self,
        values: np.ndarray,
        q: np.ndarray,
        verts: np.ndarray,
        penalty: sp.csr_matrix,
        penalty_t: sp.csr_matrix,
    ) -> None:
        self.values = values
        self.q = q
        self.vertex_cols: dict[int, list[int]] = {}
        for i, v in enumerate(verts.tolist()):
            self.vertex_cols.setdefault(v, []).append(i)
        self.penalty = penalty
        self._penalty_t = penalty_t

    def value(self, q: np.ndarray) -> float:
        return float(self.values @ q - q @ (self.penalty @ q))

    def _gain(self, c: int, q: np.ndarray) -> float:
        """ΔF of setting ``q[c] = 1`` from a state where the entry (and its
        vertex siblings) are zeroed: ``values[c] − P[c,:]·q − qᵀ·P[:,c]``."""
        p, pt = self.penalty, self._penalty_t
        s, e = p.indptr[c], p.indptr[c + 1]
        row_term = p.data[s:e] @ q[p.indices[s:e]] if e > s else 0.0
        s, e = pt.indptr[c], pt.indptr[c + 1]
        col_term = pt.data[s:e] @ q[pt.indices[s:e]] if e > s else 0.0
        return float(self.values[c] - row_term - col_term)

    def fix_best_choice(self, vertex: int, q: np.ndarray) -> None:  # repro: mutates[q] -- fixes the marginals in place
        """Replace ``vertex``'s marginals with its best deterministic choice
        (one of its bundles, or the empty bundle).

        F is multilinear with no same-vertex cross terms, so each choice's
        conditional expectation is the zeroed-vertex baseline plus that
        entry's gain — comparing gains (the empty bundle's is 0) selects
        the same argmax as the seed's full F re-evaluations in O(degree)
        per choice instead of O(m + nnz).

        One float caveat (mirroring the vectorized-rounding kernels): when
        a choice's gain is *exactly* zero — a mathematical tie with the
        empty bundle — the seed's full re-evaluations could break the tie
        either way depending on dot-product rounding, while the gain
        comparison deterministically keeps the empty bundle (the strict-
        improvement rule applied to the exact difference).  Both outcomes
        are estimator-neutral and carry the same guarantee.
        """
        cols = self.vertex_cols.get(vertex, [])
        if not cols:
            return
        for c in cols:
            q[c] = 0.0
        best_col = -1
        best_gain = 0.0  # the empty bundle, considered first
        for c in cols:
            gain = self._gain(c, q)
            if gain > best_gain:
                best_gain = gain
                best_col = c
        if best_col >= 0:
            q[best_col] = 1.0


def derandomize_rounding(
    problem: AuctionProblem,
    solution: AuctionLPSolution,
    scale: float | None = None,
    split: bool = True,
    resolve: str = "survivors",
) -> DerandomizedResult:
    """Deterministic Algorithm 1/2 with the conditional-expectation rule."""
    eff_scale = default_scale(problem) if scale is None else float(scale)
    threshold = math.sqrt(problem.k)
    classes: list[list[tuple[int, frozenset[int], float, float]]] = (
        [[], []] if split else [[]]
    )
    for col, x in solution.support():
        entry = (col.vertex, col.bundle, col.value, x)
        if split:
            classes[0 if len(col.bundle) <= threshold else 1].append(entry)
        else:
            classes[0].append(entry)

    resolver = (
        resolve_weighted_partial if problem.is_weighted else resolve_unweighted
    )
    report = RoundingReport(scale=eff_scale, split=split)
    tentatives: list[Allocation] = []
    estimator_values: list[float] = []
    best_alloc: Allocation = {}
    best_value = -1.0
    for cls, entries in enumerate(classes):
        estimator = _Estimator(problem, entries, eff_scale)
        q = estimator.q.copy()
        for v in sorted(estimator.vertex_cols):
            estimator.fix_best_choice(v, q)
        tentative: Allocation = {}
        for i, (v, bundle, _val, _x) in enumerate(entries):
            if q[i] > 0.5:
                tentative[v] = bundle
        estimator_values.append(estimator.value(q))
        tentatives.append(tentative)
        allocation, removed = resolver(problem, tentative, resolve)
        value = problem.welfare(allocation)
        report.class_values.append(value)
        report.tentative_sizes.append(len(tentative))
        report.removed_counts.append(removed)
        if value > best_value:
            best_alloc, best_value = allocation, value
            report.chosen_class = cls
    return DerandomizedResult(
        allocation=best_alloc,
        estimator_values=estimator_values,
        tentative=tentatives,
        report=report,
    )
