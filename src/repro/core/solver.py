"""End-to-end solver facade: LP → rounding → (Algorithm 3) → validation.

:class:`SpectrumAuctionSolver` wires the whole pipeline of the paper
together for a given :class:`~repro.core.auction.AuctionProblem`.  Since
the engine refactor it is a thin facade over a
:class:`~repro.engine.compiled.CompiledAuction`: the LP columns, matrices,
and solution are compiled once per solver (structures shared across
solvers via the engine's keyed cache) and the randomized rounding runs on
the engine's vectorized kernels — results are bit-identical to the
original per-attempt loop (see ``tests/test_engine_equivalence.py``).

* solve LP (1)/(4) — explicitly over valuation supports, or with
  demand-oracle column generation;
* round with Algorithm 1 (unweighted) or Algorithm 2 + Algorithm 3
  (weighted), optionally derandomized;
* for power-control structures, run Kesselheim's power assignment per
  channel and verify the SINR constraints of every channel;
* re-validate feasibility of the final allocation against the conflict
  graph (never trusting the algorithms' own bookkeeping).

For fleets of auctions, use :class:`repro.engine.BatchAuctionEngine`
instead of looping over solvers — it shares compilation and LP solutions
across instances.
"""

from __future__ import annotations

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import AuctionLPSolution
from repro.core.column_generation import solve_with_column_generation
from repro.core.result import SolverResult
from repro.engine.compiled import CompiledAuction, compile_auction
from repro.valuations.profile import Profile

__all__ = ["SolverResult", "SpectrumAuctionSolver"]


class SpectrumAuctionSolver:
    """Pipeline driver for one auction problem (facade over the engine).

    ``compiled`` lets a caller supply an existing
    :class:`~repro.engine.compiled.CompiledAuction` (e.g. one built on a
    pinned structure compilation) instead of going through the engine's
    keyed cache.
    """

    def __init__(
        self, problem: AuctionProblem, compiled: CompiledAuction | None = None
    ) -> None:
        if compiled is not None and compiled.problem is not problem:
            raise ValueError("compiled instance belongs to a different problem")
        self.problem = problem
        self._compiled = compiled

    @property
    def compiled(self) -> CompiledAuction:
        """The engine-compiled instance (built lazily, then reused)."""
        if self._compiled is None:
            self._compiled = compile_auction(self.problem)
        return self._compiled

    # ------------------------------------------------------------------
    def solve_lp(self, method: str = "auto") -> AuctionLPSolution:
        """Solve the LP relaxation.

        ``method``: "explicit" (enumerate supports), "column_generation"
        (demand oracles only), or "auto" (explicit when supports exist,
        otherwise column generation).  The explicit path is compiled and
        cached — repeat calls return the same solution object.
        """
        if method not in ("auto", "explicit", "column_generation"):
            raise ValueError(f"unknown LP method {method!r}")
        if method == "column_generation":
            return solve_with_column_generation(self.problem).solution
        if method == "auto":
            valuations = self.problem.valuations
            have_supports = isinstance(valuations, Profile) or all(
                v.support() is not None for v in valuations
            )
            if not have_supports and 2**self.problem.k > 2048:
                return solve_with_column_generation(self.problem).solution
        return self.compiled.solve_lp()

    # ------------------------------------------------------------------
    def solve(
        self,
        seed=None,
        lp_method: str = "auto",
        derandomize: bool | str = False,
        rounding_attempts: int = 1,
        verify_power_control: bool = True,
        lp_solution: AuctionLPSolution | None = None,
    ) -> SolverResult:
        """Run the full pipeline.

        ``derandomize`` selects the rounding: ``False`` — randomized
        Algorithm 1/2 (best of ``rounding_attempts`` independent runs);
        ``True`` or ``"conditional"`` — method of conditional expectations;
        ``"pairwise"`` — exhaustive pairwise-independent seed space.

        ``lp_solution`` supplies a precomputed LP solution, skipping the LP
        stage entirely — repeat-rounding loops (E7, mechanism sampling)
        solve the LP once via :meth:`solve_lp` and pass it back in.
        """
        if derandomize not in (False, True, "conditional", "pairwise"):
            raise ValueError(f"unknown derandomize mode {derandomize!r}")
        if lp_method not in ("auto", "explicit", "column_generation"):
            raise ValueError(f"unknown LP method {lp_method!r}")
        if lp_solution is None and lp_method != "explicit":
            lp_solution = self.solve_lp(lp_method)
        return self.compiled.solve(
            seed=seed,
            derandomize=derandomize,
            rounding_attempts=rounding_attempts,
            verify_power_control=verify_power_control,
            lp_solution=lp_solution,
        )
