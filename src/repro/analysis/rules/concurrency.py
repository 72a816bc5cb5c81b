"""Concurrency & fork-safety rule family.

The service layer shares compiled scenes, worker handles, and metrics
across threads, and the shard pool forks/spawns workers holding native
HiGHS handles.  These rules make the locking and fork-reset conventions
machine-checkable.
"""

from __future__ import annotations

import ast
import re
import tokenize
import io as _io
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.analysis.rules.base import Finding, Rule
from repro.analysis.rules.determinism import dotted_name

if TYPE_CHECKING:
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import FileContext

__all__ = [
    "GuardedByRule",
    "ModuleStateRule",
    "MpContextRule",
    "PoolOwnerRule",
    "ForkResetRule",
]

_GUARD_COMMENT = re.compile(r"#:\s*guarded-by:\s*([\w.,\s]+)")


def _guard_comment_lines(source: str) -> dict[int, tuple[str, ...]]:
    """Map line number -> guard names declared via ``#: guarded-by: ...``."""
    out: dict[int, tuple[str, ...]] = {}
    try:
        tokens = tokenize.generate_tokens(_io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - defensive
        return out
    for token in comments:
        match = _GUARD_COMMENT.search(token.string)
        if match is None:
            continue
        names = tuple(
            part.strip().removeprefix("self.")
            for part in match.group(1).split(",")
            if part.strip()
        )
        if names:
            out[token.start[0]] = names
    return out


def _assigned_attr_names(stmt: ast.stmt) -> list[str]:
    """Names declared by an assignment: ``self.x`` targets and bare-name
    class fields, covering Assign and AnnAssign."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    names: list[str] = []
    for target in targets:
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id == "self":
                names.append(target.attr)
        elif isinstance(target, ast.Name):
            names.append(target.id)
    return names


@dataclass
class _ClassGuards:
    """Guard declarations collected for one class."""

    self_guards: dict[str, tuple[str, ...]] = field(default_factory=dict)
    field_guards: dict[str, tuple[str, ...]] = field(default_factory=dict)
    decl_lines: set[int] = field(default_factory=set)


def _is_exempt_function(name: str) -> bool:
    # __init__/__new__ run before the object is shared; *_locked is the
    # repo convention for "caller holds the lock"
    return name in ("__init__", "__new__") or name.endswith("_locked")


def _with_guard_names(stmt: ast.With | ast.AsyncWith) -> set[str]:
    names: set[str] = set()
    for item in stmt.items:
        expr = item.context_expr
        # unwrap guard-acquiring calls like `with self._lock:` vs
        # `with self._cond:` — both are Attribute/Name expressions;
        # `with lock_of(x):` style calls are not recognised as guards
        if isinstance(expr, ast.Attribute):
            names.add(expr.attr)
        elif isinstance(expr, ast.Name):
            names.add(expr.id)
    return names


class GuardedByRule(Rule):
    rule_id = "guarded-by"
    family = "concurrency"
    invariant = (
        "attributes declared `#: guarded-by: <lock>` (or listed in a class "
        "`_guarded_by` registry) are only touched inside `with <lock>:` "
        "blocks, except in __init__/__new__ and *_locked helpers"
    )

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        comment_guards = _guard_comment_lines(ctx.source)
        classes = [n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)]
        module_field_guards: dict[str, tuple[str, ...]] = {}
        per_class: list[tuple[ast.ClassDef, _ClassGuards]] = []

        for cls in classes:
            guards = _ClassGuards()
            for stmt in cls.body:
                # class-level registry: _guarded_by = {"attr": "_lock", ...}
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "_guarded_by"
                    and isinstance(stmt.value, ast.Dict)
                ):
                    for key, value in zip(stmt.value.keys, stmt.value.values):
                        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                            continue
                        if isinstance(value, ast.Constant) and isinstance(value.value, str):
                            guards.self_guards[key.value] = (value.value,)
                        elif isinstance(value, (ast.Tuple, ast.List)):
                            names = tuple(
                                e.value
                                for e in value.elts
                                if isinstance(e, ast.Constant) and isinstance(e.value, str)
                            )
                            if names:
                                guards.self_guards[key.value] = names
                    guards.decl_lines.add(stmt.lineno)
                    continue
                # annotated class fields (dataclass style): module-wide check
                declared = comment_guards.get(stmt.lineno)
                if declared:
                    for name in _assigned_attr_names(stmt):
                        guards.field_guards[name] = declared
                        guards.decl_lines.add(stmt.lineno)
            # annotated self.attr assignments inside methods
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for stmt in ast.walk(fn):
                    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        continue
                    declared = comment_guards.get(stmt.lineno)
                    if not declared:
                        continue
                    for name in _assigned_attr_names(stmt):
                        guards.self_guards[name] = declared
                        guards.decl_lines.add(stmt.lineno)
            module_field_guards.update(guards.field_guards)
            per_class.append((cls, guards))

        findings: list[Finding] = []
        for cls, guards in per_class:
            if not guards.self_guards:
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _is_exempt_function(fn.name):
                    continue
                self._scan(
                    ctx,
                    fn,
                    frozenset(),
                    guards.self_guards,
                    guards.decl_lines,
                    self_only=True,
                    out=findings,
                )
        if module_field_guards:
            decl_lines = {
                line for _, guards in per_class for line in guards.decl_lines
            }
            for node in ctx.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _is_exempt_function(node.name):
                        continue
                    self._scan(
                        ctx,
                        node,
                        frozenset(),
                        module_field_guards,
                        decl_lines,
                        self_only=False,
                        out=findings,
                    )
                elif isinstance(node, ast.ClassDef):
                    for fn in node.body:
                        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            continue
                        if _is_exempt_function(fn.name):
                            continue
                        self._scan(
                            ctx,
                            fn,
                            frozenset(),
                            module_field_guards,
                            decl_lines,
                            self_only=False,
                            out=findings,
                        )
        seen: set[tuple[int, int, str]] = set()
        for finding in sorted(findings):
            marker = (finding.line, finding.col, finding.message)
            if marker not in seen:
                seen.add(marker)
                yield finding

    def _scan(
        self,
        ctx: FileContext,
        root: ast.FunctionDef | ast.AsyncFunctionDef,
        held: frozenset[str],
        guarded: dict[str, tuple[str, ...]],
        decl_lines: set[int],
        *,
        self_only: bool,
        out: list[Finding],
    ) -> None:
        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = _with_guard_names(node)
                for item in node.items:
                    visit(item.context_expr, held)
                for stmt in node.body:
                    visit(stmt, held | acquired)
                return
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not root
            ):
                if _is_exempt_function(node.name):
                    return
                # nested defs may run on another thread: guards do not
                # carry over (lambdas do — they stay lexical)
                held = frozenset()
            elif isinstance(node, ast.Attribute) and node.attr in guarded:
                receiver_ok = (
                    isinstance(node.value, ast.Name) and node.value.id == "self"
                    if self_only
                    else True
                )
                if (
                    receiver_ok
                    and node.lineno not in decl_lines
                    and not (held & set(guarded[node.attr]))
                ):
                    locks = ", ".join(guarded[node.attr])
                    out.append(
                        self.finding(
                            ctx,
                            node,
                            f"attribute '{node.attr}' is guarded by "
                            f"'{locks}' but accessed outside a "
                            f"'with ... {guarded[node.attr][0]}' block",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        visit(root, held)


class ModuleStateRule(Rule):
    rule_id = "module-state"
    family = "concurrency"
    invariant = (
        "module-level mutable state is shared by every thread and survives "
        "forks; only UPPER_CASE constants and internally-locked factories "
        "(LRUCache, threading primitives, thread-locals) are allowed, and no "
        "function rebinds a module-level name through 'global'"
    )

    _MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    ctx,
                    node,
                    f"rebinds module-level '{node.names[0]}' through 'global'; "
                    "keep the state in a class, a thread-local or a locked "
                    "container",
                )
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            names = [
                n
                for n in names
                if n != n.upper() and not (n.startswith("__") and n.endswith("__"))
            ]
            if not names:
                continue
            if isinstance(value, self._MUTABLE_LITERALS):
                yield self.finding(
                    ctx,
                    stmt,
                    f"mutable module-level state '{names[0]}'; hoist into a "
                    "class, make it an UPPER_CASE constant, or use a locked "
                    "container",
                )
            elif isinstance(value, ast.Call):
                func = dotted_name(value.func)
                base = func.rsplit(".", 1)[-1] if func else None
                if base is not None and base not in config.module_state_factories:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"module-level state '{names[0]}' from factory "
                        f"'{base}' is not on the thread-safe allowlist",
                    )


class MpContextRule(Rule):
    rule_id = "mp-context"
    family = "concurrency"
    invariant = (
        "multiprocessing contexts are created only through repro.util.mp, "
        "which pins the start method and fork-safety policy per platform"
    )

    _FACTORIES = {
        "get_context",
        "get_start_method",
        "set_start_method",
        "Pool",
        "Process",
        "Manager",
        "Queue",
        "SimpleQueue",
        "JoinableQueue",
        "Pipe",
    }

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        if config.matches(ctx.rel, config.mp_allowed):
            return
        aliases: set[str] = set()
        direct: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "multiprocessing":
                        aliases.add(alias.asname or "multiprocessing")
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                if node.module.split(".")[0] == "multiprocessing":
                    for alias in node.names:
                        if alias.name in self._FACTORIES:
                            direct.add(alias.asname or alias.name)
        if not aliases and not direct:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
                and func.attr in self._FACTORIES
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"direct multiprocessing factory "
                    f"'{func.value.id}.{func.attr}'; use repro.util.mp.mp_context",
                )
            elif isinstance(func, ast.Name) and func.id in direct:
                yield self.finding(
                    ctx,
                    node,
                    f"direct multiprocessing factory '{func.id}'; "
                    "use repro.util.mp.mp_context",
                )


class PoolOwnerRule(Rule):
    rule_id = "pool-owner"
    family = "concurrency"
    invariant = (
        "the only process pool is service/pool.py's ProcessShardPool, the "
        "only mp_context() caller beside util/mp.py; its workers add "
        "threads as plain lanes (HiGHS's run() releases the GIL: two lanes "
        "served 1.55-1.85x the n=1000 requests of one), engine/highs.py, "
        "the owner of every HiGHS model, may fan solves out over a "
        "ThreadPoolExecutor (VCG probes: 1.7-1.9x on 2 threads at n=300 and "
        "n=1000), and no other module builds an executor"
    )

    OWNERS = ("service/pool.py", "util/mp.py")
    THREAD_OWNER = "engine/highs.py"
    _EXECUTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor"}

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        executors = set(self._EXECUTORS)  # plus local aliases
        threads = {"ThreadPoolExecutor"}  # the names of the thread executor
        contexts = {"mp_context"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                for alias in node.names:
                    if node.module == "concurrent.futures" and alias.name in self._EXECUTORS:
                        executors.add(alias.asname or alias.name)
                        if alias.name == "ThreadPoolExecutor":
                            threads.add(alias.asname or alias.name)
                    elif node.module == "repro.util.mp" and alias.name == "mp_context":
                        contexts.add(alias.asname or alias.name)
        owner = ctx.rel in self.OWNERS
        thread_owner = ctx.rel == self.THREAD_OWNER
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            if name in executors and not (thread_owner and name in threads):
                yield self.finding(
                    ctx,
                    node,
                    f"constructs '{name}'; request-level work holds the GIL, serve "
                    "in parallel through service.pool.ProcessShardPool (only "
                    "engine/highs.py may fan HiGHS solves out over threads)",
                )
            elif name in contexts and not owner:
                yield self.finding(
                    ctx,
                    node,
                    "calls mp_context() outside service/pool.py; spawn workers "
                    "through ProcessShardPool",
                )


class ForkResetRule(Rule):
    rule_id = "fork-reset"
    family = "concurrency"
    invariant = (
        "a module owning a threading.local() (native handles: solver "
        "instances, warm-start state) must call repro.util.mp."
        "register_fork_reset so spawned workers start from a clean handle "
        "(PR 6: fork-inherited HiGHS warm-start state)"
    )

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        registers = any(
            isinstance(node, ast.Call)
            and (dotted_name(node.func) or "").rsplit(".", 1)[-1]
            == "register_fork_reset"
            for node in ast.walk(ctx.tree)
        )
        if registers:
            return
        bodies: list[list[ast.stmt]] = [ctx.tree.body]
        bodies.extend(n.body for n in ctx.tree.body if isinstance(n, ast.ClassDef))
        for body in bodies:
            for stmt in body:
                if isinstance(stmt, ast.Assign):
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value = stmt.value
                else:
                    continue
                if not isinstance(value, ast.Call):
                    continue
                func = dotted_name(value.func)
                if func is not None and func.rsplit(".", 1)[-1] == "local":
                    yield self.finding(
                        ctx,
                        stmt,
                        "threading.local() without a fork-reset hook; call "
                        "repro.util.mp.register_fork_reset(name, reset_fn) "
                        "in this module",
                    )
