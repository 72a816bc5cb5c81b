"""Parity-safety rule family.

Bit-identical parity between the seed pipeline and every fast path is
the repo's acceptance bar.  Exact float comparisons and hidden in-place
mutation of kernel inputs are the two ways a "refactor" silently changes
results; a HiGHS model driven outside the one owner module is the way a
solve escapes the status and certificate checks.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.rules.base import Finding, Rule
from repro.analysis.rules.determinism import dotted_name

if TYPE_CHECKING:
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import FileContext

__all__ = ["FloatEqRule", "HighsOwnerRule", "KernelMutationRule"]


class FloatEqRule(Rule):
    rule_id = "float-eq"
    family = "parity"
    invariant = (
        "no `==`/`!=` against float literals outside tests: a comparison "
        "that holds on one code path can flip under reordered arithmetic; "
        "compare integers, use tolerances, or annotate exact sentinels"
    )

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        if config.matches(ctx.rel, config.float_eq_allowed):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            exprs = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, exprs, exprs[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (lhs, rhs):
                    if isinstance(side, ast.Constant) and isinstance(side.value, float):
                        yield self.finding(
                            ctx,
                            node,
                            f"exact float comparison against {side.value!r}; "
                            "compare integer counts or use an explicit "
                            "tolerance",
                        )
                        break


# in-place mutators on ndarray / sparse / dict / list / set receivers
_MUTATORS = {
    "sort",
    "sort_indices",
    "sum_duplicates",
    "eliminate_zeros",
    "prune",
    "setdiag",
    "resize",
    "setflags",
    "fill",
    "partition",
    "shuffle",
    "update",
    "clear",
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "setdefault",
    "add",
    "discard",
}


def _root_name(node: ast.expr) -> str | None:
    """Base Name of an attribute/subscript chain: ``a.b[c].d`` -> ``a``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_tainted(node: ast.expr, tainted: set[str]) -> bool:
    """Could ``node`` alias memory reachable from a tainted parameter?
    Calls break taint (``x.copy()``), views and conditionals keep it."""
    if isinstance(node, (ast.Attribute, ast.Subscript, ast.Name)):
        root = _root_name(node)
        return root is not None and root in tainted
    if isinstance(node, ast.IfExp):
        return _is_tainted(node.body, tainted) or _is_tainted(node.orelse, tainted)
    return False


def _expr_children(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Direct expression fields of a statement (bodies of compound
    statements are recursed separately to keep taint tracking ordered)."""
    for _, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item


class KernelMutationRule(Rule):
    rule_id = "kernel-mutation"
    family = "parity"
    invariant = (
        "kernel functions must not mutate their array/sparse parameters in "
        "place: callers reuse compiled structures across runs, so hidden "
        "mutation leaks state between auctions; declare intentional "
        "mutation with `# repro: mutates[name]` on the def line"
    )

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        if not config.matches(ctx.rel, config.kernel_modules):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        args = fn.args
        params = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.arg not in ("self", "cls")
        ]
        header_end = fn.body[0].lineno if fn.body else fn.lineno + 1
        declared = ctx.pragmas.mutated_params(
            range(fn.lineno, max(header_end, fn.lineno + 1))
        )
        tainted = {p for p in params if p not in declared}
        if not tainted:
            return
        yield from self._scan(ctx, fn.body, tainted)

    def _check_calls(
        self, ctx: FileContext, expr: ast.expr, tainted: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and _is_tainted(func.value, tainted)
            ):
                root = _root_name(func.value)
                yield self.finding(
                    ctx,
                    node,
                    f"call to in-place mutator '.{func.attr}()' on "
                    f"parameter-reachable '{root}'",
                )
            for kw in node.keywords:
                if kw.arg == "out" and _is_tainted(kw.value, tainted):
                    root = _root_name(kw.value)
                    name = dotted_name(func) or "<call>"
                    yield self.finding(
                        ctx,
                        node,
                        f"'{name}(out={root})' writes into a "
                        "parameter-reachable array",
                    )

    def _scan(
        self, ctx: FileContext, body: list[ast.stmt], tainted: set[str]
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # nested defs get their own parameter taint pass
                continue
            for expr in _expr_children(stmt):
                yield from self._check_calls(ctx, expr, tainted)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    yield from self._check_calls(ctx, item.context_expr, tainted)
            if isinstance(stmt, ast.Assign):
                value_tainted = _is_tainted(stmt.value, tainted)
                for target in stmt.targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = _root_name(target)
                        if root is not None and root in tainted:
                            yield self.finding(
                                ctx,
                                target,
                                f"in-place store into parameter-reachable "
                                f"'{root}' in a kernel function",
                            )
                    elif isinstance(target, ast.Name):
                        # rebinding propagates or clears taint
                        if value_tainted:
                            tainted.add(target.id)
                        else:
                            tainted.discard(target.id)
            elif isinstance(stmt, ast.AugAssign):
                root = _root_name(stmt.target)
                if root is not None and root in tainted:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"augmented assignment mutates parameter-reachable "
                        f"'{root}' in place",
                    )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                # loop variable bound from a tainted iterable stays tainted
                if _is_tainted(stmt.iter, tainted) and isinstance(
                    stmt.target, ast.Name
                ):
                    tainted.add(stmt.target.id)
            # recurse into compound statement bodies in order
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                    yield from self._scan(ctx, sub, tainted)
            for handler in getattr(stmt, "handlers", []):
                yield from self._scan(ctx, handler.body, tainted)


class HighsOwnerRule(Rule):
    rule_id = "highs-owner"
    family = "parity"
    invariant = (
        "only engine/highs.py imports scipy's private HiGHS bindings or the "
        "raw-instance helpers; every other module solves through ResidentLP "
        "or solve_packing_lp_fast, so every solve passes one status and "
        "certificate check"
    )

    OWNER = "engine/highs.py"
    _BINDINGS = "scipy.optimize._highspy"
    _MODULE = "repro.engine.highs"
    _HELPERS = {"highs_core", "new_highs_instance", "pass_colwise_model"}

    def _is_bindings(self, module: str) -> bool:
        return module == self._BINDINGS or module.startswith(self._BINDINGS + ".")

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        if ctx.rel == self.OWNER:
            return
        modules = {self._MODULE}  # names bound to repro.engine.highs
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._is_bindings(alias.name):
                        yield self.finding(ctx, node, "imports scipy's private HiGHS bindings")
                    elif alias.name == self._MODULE and alias.asname:
                        modules.add(alias.asname)
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                names = {alias.name for alias in node.names}
                if self._is_bindings(node.module) or (
                    node.module == "scipy.optimize" and "_highspy" in names
                ):
                    yield self.finding(ctx, node, "imports scipy's private HiGHS bindings")
                elif node.module == self._MODULE and names & self._HELPERS:
                    yield self.finding(
                        ctx,
                        node,
                        f"imports raw HiGHS helper(s) {sorted(names & self._HELPERS)}; "
                        "use repro.engine.highs.ResidentLP",
                    )
                elif node.module == "repro.engine":
                    modules.update(a.asname or a.name for a in node.names if a.name == "highs")
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._HELPERS
                and dotted_name(node.value) in modules
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"calls raw HiGHS helper '{node.attr}'; use repro.engine.highs.ResidentLP",
                )
