"""Steadiness mode: is a workload's metric steady enough to gate on?

``python3 perfbench/run.py --steady N --workload NAME`` runs the workload
once for each of N seeds, each in its own process, then prints for every
metric the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and (Q3 - Q1) / median against the metric's bound in
BENCHMARK.json.  A spread over the bound is flagged; one over a third of
it is marked wide.  ``--save FILE`` keeps the values; ``--against FILE``
then checks that no median got worse than a saved set's by more than the
bound, and says so when the two sets ran on different environments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import stats
from perfbench.harness import COMPARABLE_ENV


def _run(script: Path, root: Path, args: argparse.Namespace, seed: int) -> tuple[dict, dict] | None:
    cmd = [sys.executable, str(script), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}")
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def steady(args: argparse.Namespace, script: Path, root: Path) -> int:
    entries = {e["name"]: e for e in stats.SPEC["per_layer" if args.trace else "end_to_end"]}
    values: dict[str, list[float]] = {}
    envs: list[dict] = []
    failures = 0
    for seed in range(args.seed, args.seed + args.steady):
        started = time.perf_counter()
        run = _run(script, root, args, seed)
        if run is None:
            failures += 1
            continue
        summary, result = run
        env = summary["env"]
        envs.append({key: env.get(key) for key in COMPARABLE_ENV})
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        shown = " ".join(f"{key}={m['value']:.4g}" for key, m in result["metrics"].items()
                         if "bound" in entries.get(key, {}))
        print(f"seed {seed}: {time.perf_counter() - started:.0f}s "
              f"load {env['loadavg_before'][0]}->{env['loadavg_after'][0]} "
              f"probe {env['cpu_probe_ms_before']}->{env['cpu_probe_ms_after']}ms {shown}",
              flush=True)
    if any(env != envs[0] for env in envs):
        print("FLAG runs differ in environment: " + json.dumps(envs))
    print(f"{'metric':34s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    flagged = 0
    for key, vals in values.items():
        if len(vals) < 2 or None in vals:
            print(f"{key:34s} no spread from {vals}")
            continue
        sp = stats.spread(vals)
        bound = entries.get(key, {}).get("bound")
        note = ""
        if bound is not None and sp.relative > bound:
            note, flagged = "  FLAG over its bound", flagged + 1
        elif bound is not None and sp.relative > bound / 3:
            note = "  wide: over a third of its bound"
        print(f"{key:34s} {sp.median:10.4g} {sp.q1:10.4g} {sp.q3:10.4g} {sp.relative:7.3f} "
              f"{'' if bound is None else bound:>6}{note}")
    if args.against:
        flagged += _compare(Path(args.against), envs, values, entries)
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "env": envs[0] if envs else None, "values": values}, indent=1))
    print(f"{args.steady - failures}/{args.steady} runs succeeded, {flagged} flag(s)")
    return 1 if failures else 0


def _compare(path: Path, envs: list[dict], values: dict, entries: dict) -> int:
    """Flag every metric whose median got worse than the saved set's by
    more than its bound."""
    previous = json.loads(path.read_text())
    flagged = 0
    if envs and previous["env"] != envs[0]:
        flagged += 1
        print(f"FLAG the saved set ran on another environment: {previous['env']}")
    for key, vals in values.items():
        old = previous["values"].get(key)
        bound = entries.get(key, {}).get("bound")
        if bound is None or not old or None in old or None in vals:
            continue
        before, after = statistics.median(old), statistics.median(vals)
        change = stats.worsening(before, after, entries[key]["better"])
        verdict = "ok"
        if change > bound:
            verdict, flagged = "FLAG worse than its bound", flagged + 1
        print(f"against {key:26s} {before:10.4g} -> {after:10.4g} worse by {change:+.3f} "
              f"({verdict})")
    return flagged
