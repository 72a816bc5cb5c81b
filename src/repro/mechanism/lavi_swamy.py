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

Three implementations of the column-generation loop coexist:

* ``pricing="approx"`` (default) — the engine-compiled hot path.  The
  support columns are compiled once into a
  :class:`~repro.engine.compiled.CompiledAuction` (shared structure
  compilation, vectorized CSC assembly); each pricing iteration re-solves
  that matrix on the persistent HiGHS backend with a new objective and
  rounds with the vectorized derandomization kernels.  Solves are *cold*
  (model re-passed, no basis reuse), which is what keeps every pricing
  vertex — and therefore the whole decomposition: pool, weights, keep
  probabilities, samples — bit-identical to ``"reference"``
  (pinned by ``tests/test_mechanism_parity.py``).
* ``pricing="warm"`` — maximum throughput: pricing re-solves mutate only
  the objective of the loaded model (``changeColsCost`` + previous-basis
  simplex restart) and the master runs on a persistent incremental-column
  HiGHS instance (:class:`_IncrementalMaster`).  Both return optimal
  solutions, but on the degenerate LPs of the decomposition possibly a
  different optimal vertex / dual than a cold solve — so the pool can
  legitimately differ from the reference while carrying the *same* exact
  marginals.  Like the engine's ``lp_warm_start``, this profile is opt-in
  and never used where bit-parity is pinned.
* ``pricing="reference"`` — the seed-era loop kept verbatim (fresh
  ``AuctionLP`` build + ``linprog`` per iteration): the baseline
  ``BENCH_mechanism.json`` measures against, and the parity anchor.

``pricing="exact"`` prices with the MILP as before (small instances at any
α above their true gap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.core.auction import Allocation, AuctionProblem
from repro.core.auction_lp import AuctionLP, AuctionLPSolution, Column, scatter_duals
from repro.core.conflict_resolution import make_fully_feasible
from repro.core.derandomize import derandomize_rounding
from repro.util.rng import ensure_rng

__all__ = ["DecompositionResult", "decompose_lp_solution", "default_alpha"]

PRICING_MODES = ("approx", "warm", "exact", "reference")


def default_alpha(problem: AuctionProblem) -> float:
    """The verified integrality gap: 8√kρ, ×2⌈log₂ n⌉ for weighted graphs."""
    return problem.approximation_bound()


@dataclass
class DecompositionResult:
    """A convex combination of feasible allocations matching x*/α exactly."""

    problem: AuctionProblem
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


def _adjusted_problem(
    problem: AuctionProblem, adjusted_cols: list[Column]
) -> AuctionProblem:
    """The problem under the adjusted valuations (one bid per support pair,
    duplicates keep the max) — what the derandomized rounding maximizes."""
    from repro.valuations.explicit import ExplicitValuation

    n = problem.n
    bids: list[dict[frozenset[int], float]] = [dict() for _ in range(n)]
    for col in adjusted_cols:
        if col.value > 0:
            prev = bids[col.vertex].get(col.bundle, 0.0)
            bids[col.vertex][col.bundle] = max(prev, col.value)
    return AuctionProblem(
        structure=problem.structure,
        k=problem.k,
        valuations=[ExplicitValuation(problem.k, b) for b in bids],
    )


def _round_adjusted(
    problem: AuctionProblem,
    adjusted_cols: list[Column],
    x: np.ndarray,
    value: float,
    y: np.ndarray,
    z: np.ndarray,
) -> Allocation:
    """Derandomized rounding (+ Algorithm 3) under adjusted valuations —
    the shared back half of both pricing oracles."""
    solution = AuctionLPSolution(
        columns=adjusted_cols, x=x, value=value, y=y, z=z
    )
    adj_problem = _adjusted_problem(problem, adjusted_cols)
    result = derandomize_rounding(adj_problem, solution)
    allocation = result.allocation
    if problem.is_weighted:
        resolution = make_fully_feasible(adj_problem, allocation)
        allocation = resolution.allocation
    return dict(allocation)


def _integral_allocation_for(
    problem: AuctionProblem,
    lp: AuctionLP,
    objective: np.ndarray,
) -> Allocation:
    """The reference pricing oracle: rebuild LP (1)/(4) on its binding
    rows and cold-solve it under the adjusted valuations `objective` (one
    value per LP column)."""
    a, b, _, rows = lp.build_binding()
    from repro.core.lp import solve_packing_lp

    sol = solve_packing_lp(objective, a, b)
    adjusted_cols = [
        Column(col.vertex, col.bundle, float(obj))
        for col, obj in zip(lp.columns, objective)
    ]
    y, z = scatter_duals(sol.duals, rows, problem.n, problem.k)
    return _round_adjusted(problem, adjusted_cols, sol.x, sol.value, y, z)


class _CompiledPricer:
    """The pricing oracle on the engine: compile once, re-price many times.

    The support columns' constraint matrix never changes across pricing
    iterations — only the objective (the master's duals ``w``) does — so
    the matrix is assembled once through :class:`CompiledAuction` (shared
    structure compilation, vectorized CSC assembly, the rows that can
    bind — the same rows the reference oracle keeps).  With ``warm=True``
    every solve after the first goes through the warm-start path of
    :func:`~repro.engine.highs.solve_packing_lp_fast`: ``changeColsCost``
    on the loaded model plus a previous-basis simplex restart.  With
    ``warm=False`` each solve re-passes the model cold — bit-identical to
    the reference oracle's ``linprog`` (only the scipy/AuctionLP rebuild
    overhead is gone).
    """

    def __init__(
        self,
        problem: AuctionProblem,
        columns: list[Column],
        warm: bool = False,
        compiled_structure=None,
    ) -> None:
        from repro.engine.compiled import CompiledAuction, compile_structure

        self._problem = problem
        self._columns = columns
        compiled = CompiledAuction(
            problem,
            structure=compiled_structure or compile_structure(problem.structure),
            columns=columns,
        )
        self._a, self._b, _ = compiled.matrices_csc()
        self._rows = compiled.binding_rows()
        self._warm_key = ("lavi-swamy-pricing", id(self)) if warm else None

    def price(self, objective: np.ndarray) -> Allocation:
        from repro.engine.highs import solve_packing_lp_fast

        sol = solve_packing_lp_fast(
            objective,
            self._a,
            self._b,
            warm_key=self._warm_key,
            solver="simplex",
        )
        adjusted_cols = [
            Column(col.vertex, col.bundle, float(obj))
            for col, obj in zip(self._columns, objective)
        ]
        y, z = scatter_duals(sol.duals, self._rows, self._problem.n, self._problem.k)
        return _round_adjusted(self._problem, adjusted_cols, sol.x, sol.value, y, z)


def _solve_master(
    pool: list[Allocation],
    pairs: list[tuple[int, frozenset[int]]],
    r: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray]:
    """min Σλ s.t. Σ_l λ_l 𝟙[pair ∈ l] ≥ r; returns (λ, μ, duals w ≥ 0).

    The reference master: rebuilt from the whole pool and cold-solved with
    ``linprog`` every iteration (also the fallback when the private HiGHS
    bindings are unavailable).
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


def _solve_master_fast(
    pool: list[Allocation],
    pairs: list[tuple[int, frozenset[int]]],
    r: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray]:
    """The reference master on the persistent HiGHS backend.

    Same model ``linprog`` would pass (min Σλ as max −Σλ over −Aλ ≤ −r),
    cold-solved — primal, value, and duals are bit-identical to
    :func:`_solve_master`; only the scipy call overhead is gone.
    """
    from repro.engine.highs import fast_backend_available, solve_packing_lp_fast

    if not fast_backend_available():  # pragma: no cover - binding-dependent
        return _solve_master(pool, pairs, r)
    a = _master_matrix(pool, pairs)
    sol = solve_packing_lp_fast(
        -np.ones(len(pool)), sp.csc_matrix(-a), -r, solver="simplex"
    )
    return sol.x, float(-sol.value), sol.duals


class _IncrementalMaster:
    """The decomposition master on a persistent incremental-column HiGHS.

    Rows (one ≥-covering constraint per support pair) are fixed at
    construction; each iteration only *appends* the pricing oracle's new
    allocations via ``addCols`` and re-solves from the previous basis —
    the classic column-generation warm start — instead of rebuilding the
    LP from the whole pool and cold-solving it.  Falls back to the
    ``linprog`` rebuild when the private bindings are missing.
    """

    def __init__(
        self, pairs: list[tuple[int, frozenset[int]]], r: np.ndarray
    ) -> None:
        from repro.engine.highs import (
            highs_core,
            new_highs_instance,
            pass_colwise_model,
        )

        self._pairs = pairs
        self._pair_index = {p: i for i, p in enumerate(pairs)}
        self._r = np.asarray(r, dtype=float)
        self._added = 0
        self._core = highs_core()
        self._highs = new_highs_instance()
        if self._highs is None:
            return
        m = len(pairs)
        empty = sp.csc_matrix(
            (np.empty(0), np.empty(0, np.int32), np.zeros(1, np.int32)),
            shape=(m, 0),
        )
        pass_colwise_model(
            self._highs,
            empty,
            np.empty(0),
            np.empty(0),
            np.empty(0),
            self._r,
            np.full(m, np.inf),
        )

    def _append(self, allocs: list[Allocation]) -> None:
        starts: list[int] = []
        indices: list[int] = []
        for alloc in allocs:
            starts.append(len(indices))
            covered = sorted(
                self._pair_index[key]
                for key in ((v, bundle) for v, bundle in alloc.items())
                if key in self._pair_index
            )
            indices.extend(covered)
        num = len(allocs)
        self._highs.addCols(
            num,
            np.ones(num),
            np.zeros(num),
            np.full(num, np.inf),
            len(indices),
            np.asarray(starts, dtype=np.int32),
            np.asarray(indices, dtype=np.int32),
            np.ones(len(indices)),
        )

    def solve(
        self, pool: list[Allocation]
    ) -> tuple[np.ndarray, float, np.ndarray]:
        if self._highs is None:  # pragma: no cover - binding-dependent
            return _solve_master(pool, self._pairs, self._r)
        if len(pool) > self._added:
            self._append(pool[self._added :])
            self._added = len(pool)
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != self._core.HighsModelStatus.kOptimal:
            raise RuntimeError(
                "decomposition master failed: "
                f"{self._highs.modelStatusToString(status)}"
            )
        solution = self._highs.getSolution()
        lam = np.asarray(solution.col_value, dtype=float)
        w = np.maximum(np.asarray(solution.row_dual, dtype=float), 0.0)
        mu = float(self._highs.getInfo().objective_function_value)
        return lam, mu, w


class _FastMaster:
    """Reference master semantics on the persistent backend: rebuilt from
    the pool each iteration and cold-solved — bit-identical results,
    without the scipy call overhead."""

    def __init__(
        self, pairs: list[tuple[int, frozenset[int]]], r: np.ndarray
    ) -> None:
        self._pairs = pairs
        self._r = np.asarray(r, dtype=float)

    def solve(
        self, pool: list[Allocation]
    ) -> tuple[np.ndarray, float, np.ndarray]:
        return _solve_master_fast(pool, self._pairs, self._r)


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
    ``tests/test_mechanism_parity.py``).  ``"warm"`` trades that parity
    for warm-started pricing re-solves and an incremental-column master
    (optimal but not vertex-pinned — see the module docstring).
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
        price = lambda objective: _integral_allocation_for(problem, lp, objective)  # noqa: E731
        master = None
    else:
        columns = support_cols
        pricer = _CompiledPricer(
            problem,
            support_cols,
            warm=pricing == "warm",
            compiled_structure=compiled_structure,
        )
        price = pricer.price
        master = _IncrementalMaster(pairs, r) if pricing == "warm" else None
        if master is None:
            master = _FastMaster(pairs, r)

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
        if master is None:
            lam, mu, w = _solve_master(pool, pairs, r)
        else:
            lam, mu, w = master.solve(pool)
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
