"""Rule and Finding primitives shared by every reprolint rule family."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import FileContext

__all__ = ["Finding", "Rule"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a concrete source location.

    ``context`` is the stripped source line: baselines key on
    ``(rule, path, context)`` plus an occurrence index, so findings stay
    pinned across unrelated edits that only shift line numbers.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    context: str

    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.context)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class Rule:
    """Base class: subclasses set the id/family/invariant and implement
    :meth:`check` yielding findings (pragma filtering happens in the
    engine, not per-rule)."""

    rule_id: str = ""
    family: str = ""
    invariant: str = ""

    def check(self, ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=ctx.rel,
            line=line,
            col=col + 1,
            rule=self.rule_id,
            message=message,
            context=ctx.line(line),
        )
