"""The perf-regression gate must pass on faithful measurements and fail on
injected slowdowns — without re-running any benchmark (pure comparison)."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

_MODULE_PATH = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_regression"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baselines(gate):
    return gate.load_baselines()


def _as_measured(gate, baselines):
    """A perfect measurement: exactly the committed baseline values."""
    measured = {name: {} for name in gate.BASELINE_FILES}
    for chk in gate.CHECKS:
        gate._assign(
            measured[chk.source],
            chk.path,
            gate._lookup(baselines[chk.source], chk.path),
        )
        if chk.guard is not None:
            gate._assign(
                measured[chk.source],
                chk.guard,
                gate._lookup(baselines[chk.source], chk.guard),
            )
    return measured


def _slowed(gate, baselines, factor):
    """Every gated metric degraded by ``factor``."""
    measured = _as_measured(gate, baselines)
    for chk in gate.CHECKS:
        value = gate._lookup(measured[chk.source], chk.path)
        worse = value * factor if chk.kind in gate.LOWER_IS_BETTER else value / factor
        gate._assign(measured[chk.source], chk.path, worse)
    return measured


class TestCompare:
    def test_baseline_vs_itself_passes(self, gate, baselines):
        rows = gate.compare(_as_measured(gate, baselines), baselines)
        assert len(rows) == len(gate.CHECKS)
        assert all(row["ok"] for row in rows)

    def test_injected_slowdown_fails(self, gate, baselines):
        rows = gate.compare(_slowed(gate, baselines, 3.0), baselines)
        assert all(not row["ok"] for row in rows)
        assert all(row["slowdown"] == pytest.approx(3.0) for row in rows)

    def test_slowdown_within_tolerance_passes(self, gate, baselines):
        """1.2x degradation passes the noise-tolerant perf checks — but
        the exact pins (tol 1.0x: chaos rates, LP kept rows) fail on any
        drop at all, while the greedy-start iteration ratio's 1.25x pin
        still holds."""
        rows = gate.compare(_slowed(gate, baselines, 1.2), baselines)
        by_kind = {row["kind"]: row["ok"] for row in rows}
        by_name = {row["check"]: row["ok"] for row in rows}
        assert all(row["ok"] for row in rows if row["kind"] not in ("rate", "count"))
        assert by_kind["rate"] is False
        assert by_name["lp:policy_n1000.kept_rows"] is False
        assert by_name["lp:policy_n1000.greedy_iteration_ratio"] is True

    def test_speedup_tolerance_tighter_than_time_tolerance(self, gate, baselines):
        rows = gate.compare(_slowed(gate, baselines, 2.0), baselines)
        by_kind = {row["kind"]: row["ok"] for row in rows}
        assert by_kind["speedup"] is False  # 2.0 > 1.5
        assert by_kind["seconds"] is True  # 2.0 < 2.5

    def test_rate_checks_pin_exact_values(self, gate, baselines):
        """The chaos invariants are booleans recorded as rates: equality
        passes, and even a 1% drop (one lost request in a hundred) fails."""
        rate_checks = [chk for chk in gate.CHECKS if chk.kind == "rate"]
        assert rate_checks, "expected chaos rate checks in CHECKS"
        assert all(chk.tol == 1.0 for chk in rate_checks)
        measured = _as_measured(gate, baselines)
        rows = {row["check"]: row for row in gate.compare(measured, baselines)}
        assert all(rows[chk.name]["ok"] for chk in rate_checks)
        victim = rate_checks[0]
        gate._assign(
            measured[victim.source],
            victim.path,
            gate._lookup(baselines[victim.source], victim.path) * 0.99,
        )
        rows = {row["check"]: row for row in gate.compare(measured, baselines)}
        assert not rows[victim.name]["ok"]
        assert rows[victim.name]["tolerance"] == 1.0

    def test_ipc_bytes_check_is_pinned_and_lower_is_better(self, gate, baselines):
        """The pool smoke's IPC bytes per request: more bytes is worse,
        fewer is better, and the pinned 1.25x is the bound."""
        [ipc] = [chk for chk in gate.CHECKS if chk.kind == "bytes"]
        assert ipc.path == "pool_smoke_n300.ipc_bytes_sent_per_request"
        assert ipc.guard is None  # a size, not a host-dependent rate
        assert ipc.tol == gate.IPC_BYTES_TOLERANCE == 1.25
        base = gate._lookup(baselines[ipc.source], ipc.path)
        for factor, ok in ((0.2, True), (1.2, True), (1.3, False), (6.0, False)):
            measured = _as_measured(gate, baselines)
            gate._assign(measured[ipc.source], ipc.path, base * factor)
            rows = {row["check"]: row for row in gate.compare(measured, baselines)}
            assert rows[ipc.name]["ok"] is ok, factor
            assert rows[ipc.name]["slowdown"] == pytest.approx(factor)

    def test_lp_kept_rows_pinned_exactly(self, gate, baselines):
        """The n=1000 metro LP's kept-row count: one more row fails, fewer
        rows pass, and the pin is 1.0x."""
        [rows_check] = [chk for chk in gate.CHECKS if chk.path == "policy_n1000.kept_rows"]
        assert rows_check.name == "lp:policy_n1000.kept_rows"
        assert rows_check.kind == "count"
        assert rows_check.guard is None
        assert rows_check.tol == gate.LP_ROWS_TOLERANCE == 1.0
        base = gate._lookup(baselines["lp"], "policy_n1000.kept_rows")
        full = gate._lookup(baselines["lp"], "policy_n1000.full_rows")
        assert base < full  # the baseline was recorded with pruning on
        for got, ok in ((base, True), (base - 50, True), (base + 1, False), (full, False)):
            measured = _as_measured(gate, baselines)
            gate._assign(measured["lp"], rows_check.path, got)
            rows = {row["check"]: row for row in gate.compare(measured, baselines)}
            assert rows[rows_check.name]["ok"] is ok, got

    def test_greedy_iteration_ratio_is_pinned_and_lower_is_better(self, gate, baselines):
        """Greedy-start over all-slack primal iterations at n=1000: a
        lower ratio passes, and 1.25x the baseline is the bound."""
        [ratio] = [
            chk for chk in gate.CHECKS if chk.path == "policy_n1000.greedy_iteration_ratio"
        ]
        assert (ratio.source, ratio.kind, ratio.guard) == ("lp", "count", None)
        assert ratio.tol == gate.GREEDY_ITERATION_TOLERANCE == 1.25
        base = gate._lookup(baselines["lp"], ratio.path)
        assert base < 1.0  # the baseline was recorded with the greedy start on
        for factor, ok in ((0.5, True), (1.2, True), (1.3, False), (1.0 / base, False)):
            measured = _as_measured(gate, baselines)
            gate._assign(measured["lp"], ratio.path, base * factor)
            rows = {row["check"]: row for row in gate.compare(measured, baselines)}
            assert rows[ratio.name]["ok"] is ok, factor

    def test_missing_metric_is_a_failure(self, gate, baselines):
        measured = _as_measured(gate, baselines)
        del measured["engine"]["repeat_trace_50"]
        rows = gate.compare(measured, baselines)
        failed = [row for row in rows if not row["ok"]]
        assert len(failed) == 1
        assert "missing metric" in failed[0]["error"]

    def test_improvements_pass(self, gate, baselines):
        rows = gate.compare(_slowed(gate, baselines, 0.5), baselines)
        assert all(row["ok"] for row in rows)

    def test_guarded_checks_skip_on_core_mismatch(self, gate, baselines):
        """Pool metrics from a different core count are skipped, not judged.

        A 1-core baseline compared on a 4-core runner (or vice versa)
        says nothing about regressions — the guard turns that into an
        explicit skip even when the metric itself looks catastrophic.
        """
        guarded = [chk for chk in gate.CHECKS if chk.guard is not None]
        assert guarded, "expected cores-guarded pool checks in CHECKS"
        measured = _slowed(gate, baselines, 100.0)  # would fail every check
        for chk in guarded:
            gate._assign(
                measured[chk.source],
                chk.guard,
                gate._lookup(baselines[chk.source], chk.guard) + 3,
            )
        rows = {row["check"]: row for row in gate.compare(measured, baselines)}
        for chk in gate.CHECKS:
            row = rows[chk.name]
            if chk.guard is not None:
                assert row["ok"] and "not comparable" in row["skipped"]
            else:
                assert not row["ok"]

    def test_missing_guard_is_a_failure(self, gate, baselines):
        """A vanished guard value must not silently skip the check."""
        guarded = next(chk for chk in gate.CHECKS if chk.guard is not None)
        measured = _as_measured(gate, baselines)
        node = measured[guarded.source]
        for segment in guarded.guard.split(".")[:-1]:
            node = node[segment]
        del node[guarded.guard.split(".")[-1]]
        rows = {row["check"]: row for row in gate.compare(measured, baselines)}
        assert not rows[guarded.name]["ok"]
        assert "missing metric" in rows[guarded.name]["error"]


class TestLookupAssign:
    def test_roundtrip_through_lists(self, gate):
        data = {}
        gate._assign(data, "scaling.points.1.speedup", 2.5)
        assert data["scaling"]["points"][0] is None
        assert gate._lookup(data, "scaling.points.1.speedup") == 2.5

    def test_lookup_baseline_paths_exist(self, gate, baselines):
        for chk in gate.CHECKS:
            value = gate._lookup(baselines[chk.source], chk.path)
            assert value > 0


class TestMainExitCodes:
    """The CLI contract CI relies on, driven by --measured (no benchmarking)."""

    def _write(self, tmp_path, measured):
        path = tmp_path / "measured.json"
        path.write_text(json.dumps(measured))
        return str(path)

    def test_green_on_faithful_measurement(self, gate, baselines, tmp_path, capsys):
        path = self._write(tmp_path, _as_measured(gate, baselines))
        assert gate.main(["--measured", path]) == 0
        assert "all" in capsys.readouterr().out

    def test_nonzero_on_injected_slowdown(self, gate, baselines, tmp_path, capsys):
        path = self._write(tmp_path, _slowed(gate, baselines, 2.5))
        assert gate.main(["--measured", path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_flags_respected(self, gate, baselines, tmp_path):
        measured = _slowed(gate, baselines, 2.5)
        # the CLI noise tolerances apply to perf checks only — restore the
        # metrics with a pinned per-check tolerance (the exact-pin rates,
        # the LP policy pin, the IPC bytes pin), which no flag may loosen
        for chk in gate.CHECKS:
            if chk.tol is not None:
                gate._assign(
                    measured[chk.source],
                    chk.path,
                    gate._lookup(baselines[chk.source], chk.path),
                )
        path = self._write(tmp_path, measured)
        assert (
            gate.main(
                ["--measured", path, "--tolerance", "5", "--time-tolerance", "5"]
            )
            == 0
        )

    def test_tolerance_flags_never_loosen_rate_pins(self, gate, baselines, tmp_path):
        path = self._write(tmp_path, _slowed(gate, baselines, 1.01))
        assert (
            gate.main(
                ["--measured", path, "--tolerance", "5", "--time-tolerance", "5"]
            )
            == 1
        )

    def test_tolerance_flags_never_loosen_the_ipc_pin(self, gate, baselines, tmp_path):
        [ipc] = [chk for chk in gate.CHECKS if chk.kind == "bytes"]
        measured = _as_measured(gate, baselines)
        base = gate._lookup(baselines[ipc.source], ipc.path)
        gate._assign(measured[ipc.source], ipc.path, base * 1.5)
        path = self._write(tmp_path, measured)
        assert (
            gate.main(
                ["--measured", path, "--tolerance", "5", "--time-tolerance", "5"]
            )
            == 1
        )

    def test_tolerance_flags_never_loosen_the_lp_rows_pin(self, gate, baselines, tmp_path):
        measured = _as_measured(gate, baselines)
        full = gate._lookup(baselines["lp"], "policy_n1000.full_rows")
        gate._assign(measured["lp"], "policy_n1000.kept_rows", full)
        path = self._write(tmp_path, measured)
        assert (
            gate.main(
                ["--measured", path, "--tolerance", "5", "--time-tolerance", "5"]
            )
            == 1
        )

    def test_json_report_written(self, gate, baselines, tmp_path):
        measured_path = self._write(tmp_path, _as_measured(gate, baselines))
        report = tmp_path / "report.json"
        gate.main(["--measured", measured_path, "--json", str(report)])
        data = json.loads(report.read_text())
        assert len(data["checks"]) == len(gate.CHECKS)
        assert all(row["ok"] for row in data["checks"])

    def test_does_not_mutate_baseline_files(self, gate, baselines, tmp_path):
        before = copy.deepcopy(baselines)
        path = self._write(tmp_path, _slowed(gate, baselines, 2.5))
        gate.main(["--measured", path])
        assert gate.load_baselines() == before
