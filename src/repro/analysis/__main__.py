"""reprolint CLI: ``python -m repro.analysis`` (installed as ``reprolint``).

Exit codes: 0 clean against the baseline, 1 new findings (or stale
baseline entries), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import Baseline, split_findings
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import analyze_paths
from repro.analysis.rules import ALL_RULES

__all__ = ["main"]

_BASELINE_NAME = "reprolint-baseline.json"


def _default_target() -> Path | None:
    """Scan root when none is given: the ``repro`` package, preferring a
    ``src`` checkout under the current directory."""
    for candidate in (Path("src") / "repro", Path("repro")):
        if (candidate / "__init__.py").exists():
            return candidate
    here = Path(__file__).resolve().parent.parent  # .../repro
    if (here / "__init__.py").exists():
        return here
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "determinism/concurrency/parity static analysis for the repro "
            "codebase"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (default: the repro package)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: ./{_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--baseline-update",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id:16s} [{rule.family}] {rule.invariant}")
        return 0

    paths = list(args.paths)
    if not paths:
        target = _default_target()
        if target is None:
            print(
                "reprolint: no paths given and no repro package found",
                file=sys.stderr,
            )
            return 2
        paths = [target]
    for path in paths:
        if not path.exists():
            print(f"reprolint: no such path: {path}", file=sys.stderr)
            return 2

    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = Path(_BASELINE_NAME)

    findings = analyze_paths(paths, DEFAULT_CONFIG)

    if args.baseline_update:
        Baseline.from_findings(findings).save(baseline_path)
        print(
            f"reprolint: baseline updated ({len(findings)} finding(s) -> "
            f"{baseline_path})"
        )
        return 0

    baseline = Baseline.load(baseline_path)
    new, stale = split_findings(findings, baseline)

    if args.json:
        payload = {
            "findings": [f.to_dict() for f in new],
            "baselined": len(findings) - len(new),
            "stale_baseline": [
                {"rule": rule, "path": rel, "context": context}
                for rule, rel, context in stale
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in new:
            print(finding.render())
        for rule, rel, context in stale:
            print(
                f"{rel}: stale baseline entry for {rule} ({context!r}); "
                "run --baseline-update"
            )
        summary = (
            f"reprolint: {len(new)} new finding(s), "
            f"{len(findings) - len(new)} baselined, {len(stale)} stale"
        )
        print(summary)

    return 1 if new or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
