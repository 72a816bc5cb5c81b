"""The paper's LP relaxations — LP (1) (unweighted) and LP (4) (weighted).

Variables are indexed by *columns* ``(v, T)``: vertex ``v`` receiving
bundle ``T``.  Rows:

* one packing row per (vertex v, channel j):
    Σ_{u ∈ Γ_π(v)} Σ_{T ∋ j} κ(u, v) · x_{u,T} ≤ ρ
  with κ = 1 on backward edges (LP 1b) or κ = w̄(u, v) over all earlier
  vertices (LP 4b);
* one row per vertex: Σ_T x_{v,T} ≤ 1 (LP 1c/4c).

:meth:`AuctionLP.build` returns exactly these rows.  Solves use only the
rows that can bind (:func:`binding_rows`): the vertex rows cap each
bidder's total mass at 1, so packing row (v, j) can never be violated
when the κ(u, v) of the distinct vertices u holding a column on channel
j sum to at most ρ.  Dropping such a row leaves the feasible set, and so
the optimum, unchanged; :func:`scatter_duals` puts the solved duals back
on the full row set, with zeros on the dropped rows.

The builder enumerates columns from each valuation's finite support (or all
bundles when k is small); bidders available only through demand oracles are
handled by :mod:`repro.core.column_generation`, which grows the column set
of this same object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.auction import AuctionProblem
from repro.core.lp import LPSolution, solve_packing_lp
from repro.valuations.base import enumerate_bundles

__all__ = [
    "Column",
    "AuctionLP",
    "AuctionLPSolution",
    "allocation_to_lp_vector",
    "binding_rows",
    "iter_default_columns",
    "scatter_duals",
]


def iter_default_columns(problem: AuctionProblem, enumeration_limit: int = 2048):
    """Yield ``(vertex, bundle, value)`` for the default column set.

    Single source of truth for column enumeration — both
    :meth:`AuctionLP.default_columns` and the engine's compiled arrays
    consume this, so they cannot drift.  Columns come from valuation
    supports (full enumeration for small ``k``); bidders with neither
    raise ``ValueError`` — use column generation for those.
    """
    for v, valuation in enumerate(problem.valuations):
        items = valuation.support_items()
        if items is None:
            if 2**problem.k > enumeration_limit:
                raise ValueError(
                    f"bidder {v} has no finite support and k={problem.k} is "
                    "too large to enumerate; use solve_with_column_generation"
                )
            items = [
                (b, valuation.value(b)) for b in enumerate_bundles(problem.k) if b
            ]
        for bundle, value in items:
            if bundle and value > 0:
                yield v, frozenset(bundle), float(value)


def binding_rows(
    kappa_ptr: np.ndarray,
    kappa_idx: np.ndarray,
    kappa_val: np.ndarray,
    col_vertex: np.ndarray,
    chan_mask: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Indices of the rows of LP (1)/(4) that can bind for a column set.

    ``(kappa_ptr, kappa_idx, kappa_val)`` is κ in CSR form: row ``u``
    lists the later vertices ``v`` that ``u`` interferes with and the
    coefficient κ(u, v) it puts in packing row ``(v, j)``.  ``col_vertex``
    and the ``(m, k)`` bool ``chan_mask`` give each column's vertex and
    bundle.  Packing row ``v·k + j`` is kept iff the κ(u, v) of the
    distinct vertices ``u`` owning a column with ``j ∈ T`` sum to more than
    ``rho``: the vertex rows bound each bidder's mass on channel j by 1,
    so a row whose worst-case load is at most ``rho`` is implied.  The
    ``n`` vertex rows are always kept.  The rule reads the column set
    only, never the values, and the load sums run in one fixed order
    (κ's CSR order), so every caller with the same columns keeps the
    same rows.  The engine and the reference both call this.
    """
    n = kappa_ptr.size - 1
    k = chan_mask.shape[1]
    owns = np.zeros(n * k, dtype=bool)
    col, chan = np.nonzero(chan_mask)
    owns[col_vertex[col] * k + chan] = True
    owner = np.repeat(np.arange(n), np.diff(kappa_ptr))
    target = (kappa_idx[:, None] * k + np.arange(k)).ravel()
    weight = (kappa_val[:, None] * owns.reshape(n, k)[owner]).ravel()
    load = np.bincount(target, weights=weight, minlength=n * k)
    return np.concatenate([np.flatnonzero(load > rho), n * k + np.arange(n)])


def scatter_duals(
    duals: np.ndarray, rows: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Duals of the kept ``rows`` back on the full row set, as ``(y, z)``
    of shapes ``(n, k)`` and ``(n,)``; dropped rows get 0.  Dropped rows
    are slack at every feasible point, so the scattered vector is an
    optimal dual of the full LP with the same objective."""
    full = np.zeros(n * k + n)
    full[rows] = duals
    return full[: n * k].reshape(n, k), full[n * k :]


@dataclass(frozen=True)
class Column:
    """One LP variable: vertex ``v`` gets bundle ``T`` at value b_v(T)."""

    vertex: int
    bundle: frozenset[int]
    value: float


@dataclass
class AuctionLPSolution:
    """Fractional LP solution plus the duals the paper's Section 2.2 uses."""

    columns: list[Column]
    x: np.ndarray
    value: float
    y: np.ndarray  # shape (n, k): duals of the packing rows (v, j)
    z: np.ndarray  # shape (n,):  duals of the one-bundle-per-vertex rows
    iterations: int = 1

    def support(self, tolerance: float = 1e-9) -> list[tuple[Column, float]]:
        """Columns with positive mass."""
        return [
            (col, float(xv))
            for col, xv in zip(self.columns, self.x)
            if xv > tolerance
        ]

    def per_vertex(self, tolerance: float = 1e-9) -> dict[int, list[tuple[frozenset[int], float, float]]]:
        """Group the support by vertex: v → [(bundle, x, value), ...]."""
        out: dict[int, list[tuple[frozenset[int], float, float]]] = {}
        for col, xv in self.support(tolerance):
            out.setdefault(col.vertex, []).append((col.bundle, xv, col.value))
        return out


class AuctionLP:
    """LP (1)/(4) over an explicit, growable column set."""

    def __init__(self, problem: AuctionProblem, columns: list[Column] | None = None) -> None:
        self.problem = problem
        self.columns: list[Column] = []
        self._column_keys: set[tuple[int, frozenset[int]]] = set()
        self._kappa: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        if columns is None:
            columns = self.default_columns(problem)
        for col in columns:
            self.add_column(col)

    # ------------------------------------------------------------------
    # column management
    # ------------------------------------------------------------------
    @staticmethod
    def default_columns(problem: AuctionProblem, enumeration_limit: int = 2048) -> list[Column]:
        """Columns from valuation supports; full enumeration for small k.

        Raises ``ValueError`` when a bidder has no finite support and k is
        too large to enumerate — use column generation for those.
        """
        return [
            Column(v, bundle, value)
            for v, bundle, value in iter_default_columns(problem, enumeration_limit)
        ]

    def has_column(self, vertex: int, bundle: frozenset[int]) -> bool:
        return (vertex, frozenset(bundle)) in self._column_keys

    def add_column(self, col: Column) -> bool:
        """Add a column if absent; returns True when actually added."""
        key = (col.vertex, frozenset(col.bundle))
        if not col.bundle:
            raise ValueError("the empty bundle is never an LP column")
        if key in self._column_keys:
            return False
        if not 0 <= col.vertex < self.problem.n:
            raise ValueError(f"vertex {col.vertex} out of range")
        self._column_keys.add(key)
        self.columns.append(col)
        return True

    # ------------------------------------------------------------------
    # matrix assembly
    # ------------------------------------------------------------------
    def _interference_coefficients(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Vertices v with π(v) > π(u) affected by u, and the coefficient
        κ(u, v) each contributes to row (v, j)."""
        problem = self.problem
        ordering = problem.ordering
        later = ~ordering.earlier_mask(u)
        later[u] = False
        if problem.is_weighted:
            wbar = problem.graph.wbar_matrix[u]
            affected = np.flatnonzero(later & (wbar > 0))
            return affected, wbar[affected]
        adj = problem.graph.adjacency[u]
        affected = np.flatnonzero(later & adj)
        return affected, np.ones(affected.size)

    def build(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Assemble (A, b, c) for the current column set."""
        n, k = self.problem.n, self.problem.k
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for ci, col in enumerate(self.columns):
            affected, coeff = self._interference_coefficients(col.vertex)
            for j in col.bundle:
                for v, w in zip(affected.tolist(), coeff.tolist()):
                    rows.append(v * k + j)
                    cols.append(ci)
                    data.append(w)
            rows.append(n * k + col.vertex)
            cols.append(ci)
            data.append(1.0)
        a = sp.coo_matrix(
            (data, (rows, cols)), shape=(n * k + n, len(self.columns))
        ).tocsr()
        b = np.concatenate([np.full(n * k, float(self.problem.rho)), np.ones(n)])
        c = np.array([col.value for col in self.columns])
        return a, b, c

    def _kappa_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """κ as CSR arrays (row u: affected later vertices, coefficients)."""
        if self._kappa is None:
            parts = [self._interference_coefficients(u) for u in range(self.problem.n)]
            ptr = np.zeros(self.problem.n + 1, dtype=np.intp)
            np.cumsum([p[0].size for p in parts], out=ptr[1:])
            idx = np.concatenate([p[0] for p in parts]).astype(np.intp)
            val = np.concatenate([p[1] for p in parts]).astype(float)
            self._kappa = (ptr, idx, val)
        return self._kappa

    def binding_rows(self) -> np.ndarray:
        """The rows of :meth:`build` that can bind for the current columns
        (:func:`binding_rows`); recomputed on every call, since adding a
        column can bring a row back."""
        chan_mask = np.zeros((len(self.columns), self.problem.k), dtype=bool)
        for ci, col in enumerate(self.columns):
            chan_mask[ci, list(col.bundle)] = True
        verts = np.fromiter(
            (col.vertex for col in self.columns), dtype=np.intp, count=len(self.columns)
        )
        return binding_rows(*self._kappa_csr(), verts, chan_mask, float(self.problem.rho))

    def build_binding(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`build` restricted to :meth:`binding_rows` — the LP every
        solve runs — plus the kept row indices."""
        a, b, c = self.build()
        rows = self.binding_rows()
        return a[rows], b[rows], c, rows

    def solve(self) -> AuctionLPSolution:
        """Solve the LP over the current columns (on the rows that can bind)."""
        n, k = self.problem.n, self.problem.k
        if not self.columns:
            return AuctionLPSolution(
                columns=[], x=np.zeros(0), value=0.0, y=np.zeros((n, k)), z=np.zeros(n)
            )
        a, b, c, rows = self.build_binding()
        sol: LPSolution = solve_packing_lp(c, a, b)
        y, z = scatter_duals(sol.duals, rows, n, k)
        return AuctionLPSolution(
            columns=list(self.columns), x=sol.x, value=sol.value, y=y, z=z
        )


def allocation_to_lp_vector(
    lp: AuctionLP, allocation: dict[int, frozenset[int]]
) -> np.ndarray:
    """Lemma 1's embedding: the 0/1 LP vector of a feasible allocation
    (columns must already exist for every allocated bundle)."""
    x = np.zeros(len(lp.columns))
    index = {(c.vertex, c.bundle): i for i, c in enumerate(lp.columns)}
    for v, bundle in allocation.items():
        if not bundle:
            continue
        key = (v, frozenset(bundle))
        if key not in index:
            raise KeyError(f"no LP column for vertex {v}, bundle {sorted(bundle)}")
        x[index[key]] = 1.0
    return x
