"""Compiled auction instances — the compile-once half of the engine.

The seed pipeline rebuilt everything per ``solve()`` call: LP columns, the
sparse ``(A, b, c)`` of LP (1)/(4) row by row in Python, and the backward
neighborhoods Γ_π(v) on every rounding pass.  This module splits that work
into two cacheable layers:

* :class:`CompiledStructure` — everything derived from the conflict
  structure alone (interference-coefficient lists, backward-neighbor
  lists, backward symmetric weights).  Instances sharing a conflict graph —
  mechanism misreport probes, ablation sweeps, per-epoch re-auctions of one
  region — share one compilation via :func:`compile_structure`'s keyed
  cache.
* :class:`CompiledAuction` — the per-problem layer: LP columns flattened
  into bundle/channel incidence arrays, the vectorized ``(A, b, c)``
  assembly restricted to the rows that can bind
  (:func:`~repro.core.auction_lp.binding_rows`, shared with the
  reference), and the cached LP solution.  The rich
  :class:`~repro.core.auction_lp.Column` objects and
  :class:`AuctionLPSolution` are materialized lazily — the engine's own
  solve path runs entirely on the arrays.

``CompiledAuction.solve`` reproduces the seed
:class:`SpectrumAuctionSolver`'s results bit-for-bit (same RNG draw order,
same tie-breaking); the facade in :mod:`repro.core.solver` delegates here.
Problems are treated as immutable once compiled — mutating a problem after
its first solve is undefined behavior (recompile instead).
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import (
    AuctionLPSolution,
    Column,
    binding_rows,
    iter_default_columns,
    scatter_duals,
)
from repro.core.conflict_resolution import make_fully_feasible
from repro.core.derandomize import derandomize_rounding
from repro.core.result import SolverResult
from repro.engine.highs import solve_packing_lp_fast
from repro.util.lru import LRUCache
from repro.util.rng import SeedLike, ensure_rng
from repro.valuations.profile import as_profile, bundles_of

if TYPE_CHECKING:
    from repro.engine.vectorized import RoundingPlan
    from repro.interference.base import ConflictStructure, WeightedConflictStructure

    AnyStructure = ConflictStructure | WeightedConflictStructure

__all__ = [
    "CompiledStructure",
    "CompiledAuction",
    "compile_structure",
    "compile_auction",
    "structure_cache_stats",
    "auction_cache_stats",
    "clear_structure_cache",
    "clear_auction_cache",
]


# ----------------------------------------------------------------------
# structure-level compilation (shared across problems)
# ----------------------------------------------------------------------
@dataclass
class CompiledStructure:
    """Per-structure precomputations shared by every auction on it.

    The flattened arrays encode ``κ(u, v)`` for π(u) < π(v) — the
    coefficient vertex ``u``'s columns contribute to packing row ``(v, j)``
    (1 on backward edges for LP (1b), w̄(u, v) for LP (4b)): vertex ``u``
    affects the later vertices ``affected_flat[affected_off[u] :
    affected_off[u+1]]`` with coefficients ``coeff_flat[...]`` (both sorted
    by vertex id).  ``backward`` lists Γ_π(v) per vertex for the rounding
    kernels.

    Weighted structures keep the backward symmetric weights in one of two
    shapes: ``backward_wbar`` is the dense n×n matrix (row ``v`` holds
    w̄(·, v) masked to earlier vertices) for dense-backed graphs, and
    ``backward_w`` is the per-vertex weight list aligned with ``backward``
    for CSR-backed graphs — the sparse compile never materializes an n×n
    array.  Exactly one of the two is set for weighted structures; the
    rounding kernels dispatch on which.
    """

    structure: object
    n: int
    is_weighted: bool
    rho: float
    pos: np.ndarray
    perm: np.ndarray
    affected_flat: np.ndarray  # concat of affected-vertex lists per vertex
    affected_off: np.ndarray  # (n + 1,)
    coeff_flat: np.ndarray  # κ(u, v) aligned with affected_flat
    affected_deg: np.ndarray  # (n,)
    backward: list[np.ndarray]
    backward_wbar: np.ndarray | None
    backward_w: list[np.ndarray] | None = None
    sparse: bool = False


def _build_structure(structure: AnyStructure) -> CompiledStructure:
    from repro.interference.base import WeightedConflictStructure

    is_weighted = isinstance(structure, WeightedConflictStructure)
    if structure.graph.is_sparse:
        return _build_structure_sparse(structure, is_weighted)
    n = structure.n
    pos = structure.ordering.pos
    earlier = pos[None, :] < pos[:, None]  # earlier[v, u]: π(u) < π(v)
    if is_weighted:
        dense = np.where(earlier, structure.graph.wbar_matrix, 0.0)
        backward_wbar = dense
    else:
        dense = np.where(earlier & structure.graph.adjacency, 1.0, 0.0)
        backward_wbar = None
    backward = [np.flatnonzero(dense[v]) for v in range(n)]
    # affected[u] = later vertices u interferes with = nonzeros of column u
    affected = [np.flatnonzero(dense[:, u]) for u in range(n)]
    affected_deg = np.fromiter((a.size for a in affected), dtype=np.intp, count=n)
    affected_off = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(affected_deg, out=affected_off[1:])
    affected_flat = (
        np.concatenate(affected) if n else np.empty(0, dtype=np.intp)
    )
    coeff_flat = (
        np.concatenate([dense[rows, u] for u, rows in enumerate(affected)])
        if n
        else np.empty(0)
    )
    return CompiledStructure(
        structure=structure,
        n=n,
        is_weighted=is_weighted,
        rho=float(structure.rho),
        pos=pos,
        perm=structure.ordering.perm,
        affected_flat=affected_flat,
        affected_off=affected_off,
        coeff_flat=coeff_flat,
        affected_deg=affected_deg,
        backward=backward,
        backward_wbar=backward_wbar,
    )


def _build_structure_sparse(
    structure: AnyStructure, is_weighted: bool
) -> CompiledStructure:
    """CSR-backed compile: same flat arrays and per-vertex lists as the dense
    build (bit-identical — both sort neighbor ids ascending), but O(m)
    memory instead of several n×n intermediates.

    The directed earlier-edge matrix ``B[v, u] = κ(u, v) · [π(u) < π(v)]``
    yields the backward lists as its CSR rows and the affected lists as its
    CSC columns.
    """
    n = structure.n
    pos = structure.ordering.pos
    src = structure.graph.wbar_csr if is_weighted else structure.graph.csr
    coo = src.tocoo()
    mask = pos[coo.col] < pos[coo.row]
    data = coo.data[mask].astype(float) if is_weighted else np.ones(int(mask.sum()))
    b = sp.csr_matrix((data, (coo.row[mask], coo.col[mask])), shape=(n, n))
    b.sort_indices()
    backward = np.split(b.indices.astype(np.intp), b.indptr[1:-1])
    backward_w = np.split(b.data, b.indptr[1:-1]) if is_weighted else None
    bc = b.tocsc()
    bc.sort_indices()
    return CompiledStructure(
        structure=structure,
        n=n,
        is_weighted=is_weighted,
        rho=float(structure.rho),
        pos=pos,
        perm=structure.ordering.perm,
        affected_flat=bc.indices.astype(np.intp),
        affected_off=bc.indptr.astype(np.intp),
        coeff_flat=bc.data,
        affected_deg=np.diff(bc.indptr).astype(np.intp),
        backward=backward,
        backward_wbar=None,
        backward_w=backward_w,
        sparse=True,
    )


_structure_cache = LRUCache(64, name="compiled-structures")


def compile_structure(
    structure: AnyStructure, cache: LRUCache | None = None
) -> CompiledStructure:
    """Compile (or fetch from cache) the structure-level precomputations.

    The cache is keyed by object identity, so two problems built on the
    *same* structure object — the sharing pattern of mechanism probes and
    epoch re-auctions — compile once.  Cached compilations strongly
    reference their structure (which both keeps the memory bounded-but-
    pinned to the cache capacity, LRU-evicted, and makes ``id()`` reuse
    impossible while an entry lives); call :func:`clear_structure_cache`
    to release them eagerly.

    ``cache`` swaps in a caller-owned :class:`~repro.util.lru.LRUCache`
    (the :class:`~repro.service.AuctionService` injects per-service caches
    so its capacity and eviction accounting are isolated); ``None`` uses
    the process-wide default.
    """
    cache = _structure_cache if cache is None else cache
    return cache.get_or_create(id(structure), lambda: _build_structure(structure))


def structure_cache_stats() -> dict[str, int]:
    """Copy of the default structure-cache counters (for tests/benches)."""
    return _structure_cache.stats()


def clear_structure_cache() -> None:
    _structure_cache.clear()


# ----------------------------------------------------------------------
# problem-level compilation
# ----------------------------------------------------------------------
@dataclass
class _ColumnArrays:
    """Column set flattened to NumPy: the engine's working representation."""

    vertex: np.ndarray  # (m,) column → vertex
    value: np.ndarray  # (m,) column → b_v(T)
    ch_flat: np.ndarray  # concatenated sorted channel lists
    ch_off: np.ndarray  # (m+1,) offsets into ch_flat
    ch_counts: np.ndarray  # (m,) bundle sizes
    chan_mask: np.ndarray  # (m, k) bool bundle/channel incidence
    bundles: list[frozenset[int]] = field(default_factory=list)


@dataclass
class _RawLP:
    """Slim LP result the internal solve path runs on (no Column objects)."""

    x: np.ndarray
    value: float
    y: np.ndarray
    z: np.ndarray


class CompiledAuction:
    """One auction problem, compiled for repeated solving.

    Construction enumerates the LP columns (identically to
    :meth:`AuctionLP.default_columns`) straight into incidence arrays; the
    ``(A, b, c)`` assembly and the LP solution are lazy and cached, so
    repeat solves — extra rounding attempts, mechanism sampling, E7-style
    repetitions — pay for the LP exactly once.  ``Column`` objects and the
    public :class:`AuctionLPSolution` are only materialized when a caller
    asks for them.
    """

    def __init__(
        self,
        problem: AuctionProblem,
        structure: CompiledStructure | None = None,
        columns: list[Column] | None = None,
    ) -> None:
        self.problem = problem
        self.structure = structure or compile_structure(problem.structure)
        self.k = problem.k
        if columns is None:
            # deferred: oracle-only bidders have no enumerable columns, and a
            # compiled instance rounding an external (column-generation) LP
            # solution never needs them
            self._columns: list[Column] | None = None
            self._cols: _ColumnArrays | None = None
        else:
            self._columns = list(columns)
            self._cols = self._flatten_columns(self._columns, self.k)
        self._rows: np.ndarray | None = None
        self._csc: sp.csc_matrix | None = None
        self._b: np.ndarray | None = None
        self._c: np.ndarray | None = None
        self._matrices: tuple[sp.csr_matrix, np.ndarray, np.ndarray] | None = None
        self._raw: _RawLP | None = None
        self._lp_solution: AuctionLPSolution | None = None
        self._internal_plan = None
        self._plan_cache: dict[tuple, tuple[weakref.ref, object]] = {}
        self._lock = threading.RLock()
        self._solve_lock = threading.Lock()  # held for the one LP solve
        self.lp_solve_count = 0

    # ------------------------------------------------------------------
    # column enumeration
    # ------------------------------------------------------------------
    @staticmethod
    def _enumerate_columns(problem: AuctionProblem) -> _ColumnArrays:
        """Default column set flattened to arrays.

        Bid-list bidders — a :class:`~repro.valuations.profile.Profile`,
        or a list of XOR / explicit / single-minded valuations packed into
        one — yield their columns as vectorized ``(vertex, value, mask)``
        arrays with no per-bidder work (the enumeration sits on the
        cold-path budget of BENCH_engine.json).  Any other bidder routes
        the problem through the shared enumerator ``iter_default_columns``,
        the reference the profile path is pinned against.
        """
        k = problem.k
        profile = as_profile(problem.valuations, k)
        if profile is not None:
            vertex, value, masks = profile.column_arrays()
            return CompiledAuction._arrays_from_masks(vertex, value, masks, k)
        verts: list[int] = []
        vals: list[float] = []
        bundles: list[frozenset[int]] = []
        for u, bundle, v_value in iter_default_columns(problem):
            verts.append(u)
            bundles.append(bundle)
            vals.append(v_value)
        return CompiledAuction._arrays_from_lists(verts, vals, bundles, k)

    @staticmethod
    def _arrays_from_masks(
        vertex: np.ndarray, value: np.ndarray, masks: np.ndarray, k: int
    ) -> _ColumnArrays:
        """Assemble :class:`_ColumnArrays` from per-column channel bitmasks;
        bundles come from the shared ``2^k`` mask table."""
        chan_mask = ((masks[:, None] >> np.arange(k)) & 1) == 1
        sizes = chan_mask.sum(axis=1).astype(np.intp)
        ch_off = np.zeros(masks.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=ch_off[1:])
        ch_flat = np.nonzero(chan_mask)[1]
        return _ColumnArrays(
            vertex, value, ch_flat, ch_off, sizes, chan_mask, bundles_of(masks, k)
        )

    @staticmethod
    def _flatten_columns(columns: list[Column], k: int) -> _ColumnArrays:
        return CompiledAuction._arrays_from_lists(
            [c.vertex for c in columns],
            [c.value for c in columns],
            [c.bundle for c in columns],
            k,
        )

    @staticmethod
    def _arrays_from_lists(
        verts: Sequence[int],
        vals: Sequence[float],
        bundles: list[frozenset[int]],
        k: int,
    ) -> _ColumnArrays:
        m = len(bundles)
        sizes = np.fromiter((len(b) for b in bundles), dtype=np.intp, count=m)
        ch_off = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(sizes, out=ch_off[1:])
        chan_mask = np.zeros((m, k), dtype=bool)
        if m:
            chan_mask[
                np.repeat(np.arange(m), sizes),
                np.fromiter((j for b in bundles for j in b), dtype=np.intp),
            ] = True
        # row-major nonzero yields each bundle's channels in ascending order
        ch_flat = np.nonzero(chan_mask)[1] if m else np.empty(0, dtype=np.intp)
        return _ColumnArrays(
            np.asarray(verts, dtype=np.intp),
            np.asarray(vals, dtype=float),
            ch_flat,
            ch_off,
            sizes,
            chan_mask,
            bundles,
        )

    @property
    def cols(self) -> _ColumnArrays:
        """The flattened column arrays (enumerated on first use).

        Raises ``ValueError`` for oracle-only bidders with large ``k`` —
        exactly when ``AuctionLP.default_columns`` would; use column
        generation and pass its solution via ``solve(lp_solution=...)``.
        """
        with self._lock:
            if self._cols is None:
                self._cols = self._enumerate_columns(self.problem)
            return self._cols

    @property
    def columns(self) -> list[Column]:
        """The LP columns as :class:`Column` objects (built on demand)."""
        cols = self.cols
        with self._lock:
            if self._columns is None:
                self._columns = [
                    Column(int(v), bundle, float(value))
                    for v, bundle, value in zip(cols.vertex, cols.bundles, cols.value)
                ]
            return self._columns

    # ------------------------------------------------------------------
    # LP assembly + solve
    # ------------------------------------------------------------------
    def build(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """The paper's full ``(A, b, c)`` of LP (1)/(4), every row;
        equals ``AuctionLP.build``.  Solves run on :meth:`matrices_csc`."""
        with self._lock:
            if self._matrices is not None:
                return self._matrices
        a, b, c = self._assemble()
        with self._lock:
            if self._matrices is None:
                self._matrices = (a.tocsr(), b, c)
            return self._matrices

    def binding_rows(self) -> np.ndarray:
        """Indices of the rows of :meth:`build` that can bind for this
        column set (:func:`~repro.core.auction_lp.binding_rows`)."""
        with self._lock:
            if self._rows is not None:
                return self._rows
        cs, cols = self.structure, self.cols
        rows = binding_rows(
            cs.affected_off,
            cs.affected_flat,
            cs.coeff_flat,
            cols.vertex,
            cols.chan_mask,
            cs.rho,
        )
        with self._lock:
            if self._rows is None:
                self._rows = rows
            return self._rows

    def matrices_csc(self) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
        """The cached column-major ``(A, b, c)`` on :meth:`binding_rows` —
        the LP every solve of this instance runs, in the form the
        persistent HiGHS backend ingests without a conversion copy.
        Re-solve loops that only mutate the objective (Lavi–Swamy pricing,
        VCG externality probes) hold onto these arrays for the model's
        lifetime."""
        return self._build_csc()

    def _build_csc(self) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
        with self._lock:
            if self._csc is not None:
                return self._csc, self._b, self._c
        a, b, c = self._assemble(self.binding_rows())
        with self._lock:
            if self._csc is None:
                self._csc, self._b, self._c = a, b, c
            return self._csc, self._b, self._c

    def _assemble(
        self, rows: np.ndarray | None = None
    ) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
        """Vectorized CSC assembly over the precompiled interference lists.

        Column ``ci`` (vertex ``u``, bundle ``T``) holds entry ``κ(u, v)``
        at row ``v·k + j`` for every affected later vertex ``v`` and every
        ``j ∈ T`` — the Khatri–Rao expansion of the structure's affected
        lists with the column's channel incidence — plus a 1 in its
        one-bundle-per-vertex row ``n·k + u``.  Affected lists and channel
        lists are ascending, so each CSC column comes out sorted and the
        matrix is canonical without a sort pass.  ``rows`` (ascending)
        keeps only those rows, renumbered in order; the entries of the
        other rows are dropped, which keeps every column sorted.
        """
        n, k = self.structure.n, self.k
        cs = self.structure
        cols = self.cols
        m = cols.vertex.size
        b = np.concatenate([np.full(n * k, cs.rho), np.ones(n)])
        if rows is not None:
            b = b[rows]
        if m == 0:
            return sp.csc_matrix((b.size, 0)), b, cols.value.copy()
        deg = cs.affected_deg[cols.vertex]
        ch_counts = cols.ch_counts
        pack_cnt = deg * ch_counts
        # int32 index arrays: HiGHS's native HighsInt, so the solver binding
        # ingests them without a conversion copy
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(pack_cnt + 1, out=indptr[1:])
        total_pack = int(pack_cnt.sum())
        indices = np.empty(total_pack + m, dtype=np.int32)
        data = np.empty(total_pack + m)
        col_of = np.repeat(np.arange(m), pack_cnt)
        ends = np.cumsum(pack_cnt)
        within = np.arange(total_pack) - np.repeat(ends - pack_cnt, pack_cnt)
        nbr_rank = within // ch_counts[col_of]
        ch_rank = within - nbr_rank * ch_counts[col_of]
        flat_at = cs.affected_off[cols.vertex[col_of]] + nbr_rank
        pack_pos = indptr[col_of] + within
        indices[pack_pos] = cs.affected_flat[flat_at] * k + cols.ch_flat[
            cols.ch_off[col_of] + ch_rank
        ]
        data[pack_pos] = cs.coeff_flat[flat_at]
        vertex_pos = indptr[1:] - 1
        indices[vertex_pos] = n * k + cols.vertex
        data[vertex_pos] = 1.0
        if rows is not None:
            renumber = np.full(n * k + n, -1, dtype=np.int32)
            renumber[rows] = np.arange(rows.size, dtype=np.int32)
            indices = renumber[indices]
            kept = np.flatnonzero(indices >= 0)
            # a column's new start: the kept entries before its old start
            indptr = np.searchsorted(kept, indptr).astype(np.int32)
            indices, data = indices[kept], data[kept]
        a = sp.csc_matrix((data, indices, indptr), shape=(b.size, m))
        a.has_sorted_indices = True
        return a, b, cols.value.copy()

    def _solve_raw(self, warm_start: bool = False, solver: str = "auto") -> _RawLP:
        """Solve LP (1)/(4) once into the slim internal record.

        ``warm_start`` passes the structure-keyed warm key to the LP
        backend: consecutive solves of auctions sharing this compiled
        structure (and bundle pattern) mutate the loaded model's objective
        and restart from the previous basis.  Warm solves are optimal but
        not vertex-pinned — callers opt in via the engine flag.  ``solver``
        forwards the backend mode (``"auto"`` applies the row-count policy
        of :func:`repro.engine.highs.choose_solver`: seed-parity simplex,
        then primal simplex as the LP grows).
        """
        with self._lock:
            if self._raw is not None:
                return self._raw
        # single flight: a second thread asking meanwhile (another lane of
        # a pool worker on the same cached profile) waits for this solve
        with self._solve_lock:
            with self._lock:
                if self._raw is not None:
                    return self._raw
            n, k = self.structure.n, self.k
            if self.cols.vertex.size == 0:
                raw = _RawLP(np.zeros(0), 0.0, np.zeros((n, k)), np.zeros(n))
            else:
                a, b, c = self._build_csc()
                warm_key = (id(self.structure), n, self.k) if warm_start else None
                sol = solve_packing_lp_fast(c, a, b, warm_key=warm_key, solver=solver)
                y, z = scatter_duals(sol.duals, self.binding_rows(), n, k)
                raw = _RawLP(sol.x, sol.value, y, z)
            with self._lock:
                self._raw = raw
                self.lp_solve_count += 1
            return raw

    def solve_lp(self) -> AuctionLPSolution:
        """The cached LP solution in its public form."""
        with self._lock:
            if self._lp_solution is not None:
                return self._lp_solution
        raw = self._solve_raw()
        solution = AuctionLPSolution(
            columns=list(self.columns), x=raw.x, value=raw.value, y=raw.y, z=raw.z
        )
        with self._lock:
            if self._lp_solution is None:
                self._lp_solution = solution
            return self._lp_solution

    @property
    def lp_solution(self) -> AuctionLPSolution:
        return self.solve_lp()

    # ------------------------------------------------------------------
    # rounding plans (cached per LP solution + knobs)
    # ------------------------------------------------------------------
    def rounding_plan(
        self,
        solution: AuctionLPSolution,
        scale: float | None = None,
        split: bool = True,
    ) -> RoundingPlan:
        """Fetch (or build) the vectorized rounding plan for a solution."""
        from repro.engine.vectorized import build_rounding_plan

        key = (id(solution), scale, split)
        with self._lock:
            hit = self._plan_cache.get(key)
            if hit is not None and hit[0]() is solution:
                return hit[1]
            # array fast path only when the solution is backed by our columns
            # (_cols directly: external solutions must not trigger enumeration)
            cols = self._cols if solution is self._lp_solution else None
        plan = build_rounding_plan(
            self.problem, solution, scale=scale, split=split, cols=cols
        )
        with self._lock:
            if len(self._plan_cache) >= 8:
                self._plan_cache.pop(next(iter(self._plan_cache)))
            self._plan_cache[key] = (weakref.ref(solution), plan)
        return plan

    def _default_plan(self) -> RoundingPlan:
        """Default-knob plan over the internal LP solution (array-built)."""
        from repro.engine.vectorized import build_plan_from_arrays

        with self._lock:
            if self._internal_plan is not None:
                return self._internal_plan
        raw = self._solve_raw()
        plan = build_plan_from_arrays(self.problem, raw.x, self.cols)
        if plan is None:  # column order not vertex-grouped: generic path
            plan = self.rounding_plan(self.solve_lp())
        with self._lock:
            if self._internal_plan is None:
                self._internal_plan = plan
            return self._internal_plan

    # ------------------------------------------------------------------
    # full pipeline (bit-equal to the seed SpectrumAuctionSolver.solve)
    # ------------------------------------------------------------------
    def solve(
        self,
        seed: SeedLike = None,
        derandomize: bool | str = False,
        rounding_attempts: int = 1,
        verify_power_control: bool = True,
        lp_solution: AuctionLPSolution | None = None,
        lp_warm_start: bool = False,
        lp_solver: str = "auto",
    ) -> SolverResult:
        """LP → rounding → (Algorithm 3) → validation, on the compiled instance.

        ``lp_solution`` short-circuits the LP stage with a precomputed
        solution (repeat-rounding loops solve the LP once and pass it in).
        ``lp_warm_start`` opts the LP stage into the shared-structure
        warm-start path (optimal value guaranteed, vertex not pinned);
        ``lp_solver`` forces a backend mode — ``"simplex"``, ``"primal"``
        or ``"ipm"`` (benchmarks pin ``"simplex"`` to reproduce the
        pre-fast-path behavior).
        """
        from repro.engine.vectorized import round_batch

        if derandomize not in (False, True, "conditional", "pairwise"):
            raise ValueError(f"unknown derandomize mode {derandomize!r}")
        rng = ensure_rng(seed)
        problem = self.problem

        rounds_alg3 = 0
        if derandomize:
            solution = self.solve_lp() if lp_solution is None else lp_solution
            lp_value, lp_iterations = solution.value, solution.iterations
            if derandomize == "pairwise":
                from repro.core.pairwise import pairwise_derandomize

                tentative = pairwise_derandomize(problem, solution).allocation
            else:
                tentative = derandomize_rounding(problem, solution).allocation
            if problem.is_weighted:
                resolution = make_fully_feasible(problem, tentative)
                best_alloc = resolution.allocation
                rounds_alg3 = resolution.rounds
            else:
                best_alloc = tentative
            best_welfare = problem.welfare(best_alloc)
        else:
            if lp_solution is None:
                raw = self._solve_raw(warm_start=lp_warm_start, solver=lp_solver)
                lp_value, lp_iterations = raw.value, 1
                plan = self._default_plan()
            else:
                lp_value, lp_iterations = lp_solution.value, lp_solution.iterations
                plan = self.rounding_plan(lp_solution)
            attempts = max(1, rounding_attempts)
            draws = rng.random((attempts, plan.width))
            outcome = round_batch(self, plan, draws)
            if problem.is_weighted:
                best_alloc, best_welfare = {}, -1.0
                for partly in outcome.allocations:
                    resolution = make_fully_feasible(problem, partly)
                    welfare = problem.welfare(resolution.allocation)
                    if welfare > best_welfare:
                        best_alloc, best_welfare = resolution.allocation, welfare
                        rounds_alg3 = resolution.rounds
            else:
                best_idx = int(np.argmax(outcome.welfares))
                best_alloc = outcome.allocations[best_idx]
                # re-sum through problem.welfare: the kernel's NumPy pairwise
                # total can differ by an ulp on non-integer valuations
                best_welfare = problem.welfare(best_alloc)

        result = SolverResult(
            allocation=best_alloc,
            welfare=max(best_welfare, 0.0),
            lp_value=lp_value,
            feasible=problem.is_feasible(best_alloc),
            guarantee=problem.approximation_bound(),
            rounds_algorithm3=rounds_alg3,
            lp_iterations=lp_iterations,
        )
        if (
            verify_power_control
            and problem.is_weighted
            and problem.structure.metadata.get("model") == "power-control"
        ):
            attach_power_assignment(problem, result)
        return result


def attach_power_assignment(problem: AuctionProblem, result: SolverResult) -> None:  # repro: mutates[result]
    """Kesselheim power assignment per channel + SINR verification."""
    from repro.interference.physical import PhysicalModel
    from repro.interference.power_control import kesselheim_power_assignment

    meta = problem.structure.metadata
    links = meta["links"]
    alpha, beta, noise = meta["alpha"], meta["beta"], meta["noise"]
    physical = PhysicalModel(links, alpha, beta, noise)
    all_ok = True
    for j in range(problem.k):
        members = [v for v, s in result.allocation.items() if j in s]
        if not members:
            continue
        powers = kesselheim_power_assignment(links, members, alpha, beta, noise)
        result.channel_powers[j] = powers
        if not physical.is_feasible(members, powers):
            all_ok = False
    result.sinr_feasible = all_ok


_auction_cache = LRUCache(128, name="compiled-auctions")


def compile_auction(
    problem: AuctionProblem,
    structure: CompiledStructure | None = None,
    cache: LRUCache | None = None,
) -> CompiledAuction:
    """Compile (or fetch from cache) one problem.

    Keyed by problem object identity like the structure cache (same
    bounded-but-pinned LRU semantics; :func:`clear_auction_cache` releases
    the default cache eagerly), so every layer asking for the same problem
    — harness helpers, the batch engine, the solver facade — shares one
    compiled instance and therefore one LP solve.  ``cache`` injects a
    caller-owned :class:`~repro.util.lru.LRUCache` in place of the
    process-wide default.
    """
    cache = _auction_cache if cache is None else cache
    return cache.get_or_create(
        id(problem), lambda: CompiledAuction(problem, structure=structure)
    )


def auction_cache_stats() -> dict[str, int]:
    """Copy of the default auction-cache counters (for tests/benches)."""
    return _auction_cache.stats()


def clear_auction_cache() -> None:
    _auction_cache.clear()
