"""Scenario library + chaos runner: schema, invariants, replay fidelity.

These tests drive small *serial* scenarios so they stay fast and free of
process-spawn cost; the process-pool scenarios (crash_storm,
slow_worker_brownout) run at full size in benchmarks/bench_chaos.py and
the CI chaos-smoke job, and their crash mechanics are pinned per-site in
test_service_pool.py.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.service import (
    ChaosReport,
    FaultPlan,
    FaultSpec,
    Scenario,
    run_scenario,
    scenario_library,
)


def tiny(scenario: Scenario, n: int = 16, **overrides) -> Scenario:
    """A scaled-down copy of a library scenario (small trace, tiny scenes)."""
    return dataclasses.replace(
        scenario, num_requests=n, scene_size=12, num_scenes=1, **overrides
    )


class TestScenarioSchema:
    def test_validation(self):
        with pytest.raises(ValueError, match="scene_family"):
            Scenario(name="x", description="", scene_family="lunar")
        with pytest.raises(ValueError, match="traffic"):
            Scenario(name="x", description="", traffic="tsunami")
        with pytest.raises(ValueError, match="out of range"):
            Scenario(name="x", description="", num_scenes=0)

    def test_dict_round_trip_preserves_fault_plan(self):
        scenario = scenario_library()["crash_storm"]
        data = scenario.to_dict()
        json.dumps(data)  # the whole scenario is JSON-serializable
        clone = Scenario.from_dict(data)
        assert clone.name == scenario.name
        assert clone.service == scenario.service
        assert clone.fault_plan is not None
        assert clone.fault_plan.seed == scenario.fault_plan.seed
        assert clone.fault_plan.specs == scenario.fault_plan.specs

    def test_library_contents(self):
        library = scenario_library()
        assert set(library) == {
            "dense_metro",
            "flash_crowd_burst",
            "distinct_adversarial",
            "crash_storm",
            "flaky_network",
            "gateway_partition",
            "slow_worker_brownout",
        }
        assert library["flash_crowd_burst"].service["max_queue"] == 64
        storm = library["crash_storm"]
        assert storm.num_requests == 300
        assert storm.service["executor"] == "process"
        assert any(
            spec.site == "pool.worker.batch" and spec.kind == "crash"
            for spec in storm.fault_plan
        )
        brownout = library["slow_worker_brownout"]
        assert all(spec.kind == "slow" for spec in brownout.fault_plan)

    def test_builders_are_deterministic(self):
        scenario = tiny(scenario_library()["dense_metro"])
        registry, scene_ids = scenario.build_registry()
        registry2, scene_ids2 = scenario.build_registry()
        assert scene_ids == scene_ids2  # content-hash ids: same scenes
        trace = scenario.build_trace(registry, scene_ids)
        trace2 = scenario.build_trace(registry2, scene_ids2)
        assert len(trace) == scenario.num_requests
        assert [item.request.seed for item in trace] == [
            item.request.seed for item in trace2
        ]

    def test_build_service_override_precedence(self):
        scenario = tiny(scenario_library()["dense_metro"])
        registry, _ = scenario.build_registry()
        service = scenario.build_service(registry, max_queue=5)
        assert service.executor == "serial"  # from the scenario's dict
        assert service.max_queue == 5  # the override wins
        service.close()


class TestRunScenario:
    def test_fault_free_scenario_is_clean(self):
        report = run_scenario(tiny(scenario_library()["dense_metro"], n=20))
        assert report.ok(), report.invariants
        assert report.accepted == 20
        assert report.completed == 20
        assert report.shed == 0
        assert report.completion_rate == 1.0
        assert report.failed_untyped == 0
        assert report.replay_mismatches == 0
        assert report.p99_seconds is not None

    def test_overloaded_burst_sheds_typed_and_accepted_complete(self):
        base = scenario_library()["flash_crowd_burst"]
        scenario = tiny(base, n=48)
        scenario = dataclasses.replace(
            scenario, service={**scenario.service, "max_queue": 4}
        )
        report = run_scenario(scenario)
        assert report.ok(), report.invariants
        assert report.shed > 0  # 16-wide bursts against a queue of 4
        assert report.accepted + report.shed == 48
        assert report.completed == report.accepted  # shed ≠ dropped
        assert report.to_dict()["invariants"]["accounted"]

    def test_injected_errors_fail_typed_and_replay_stays_identical(self):
        scenario = tiny(scenario_library()["dense_metro"], n=24)
        plan = FaultPlan(
            [FaultSpec(site="service.solve", kind="error", probability=0.3)],
            seed=5,
        )
        report = run_scenario(scenario, fault_plan=plan)
        assert report.ok(), report.invariants
        assert 0 < report.failed_typed < report.accepted
        assert report.completed + report.failed_typed == report.accepted
        # one fired error fails its whole coalesced group, so activations
        # lower-bound but need not equal the failed-request count
        assert 1 <= report.fired["service.solve:error"] <= report.failed_typed
        assert report.fault_plan == plan.to_dict()

    def test_fault_plan_override_none_runs_fault_free(self):
        scenario = tiny(scenario_library()["dense_metro"], n=12)
        plan = FaultPlan([FaultSpec(site="service.solve", kind="error")])
        armed = dataclasses.replace(scenario, fault_plan=plan)
        report = run_scenario(armed, fault_plan=None)
        assert report.fault_plan is None
        assert report.failed_typed == 0 and report.completed == 12

    def test_check_replay_false_skips_reference_run(self):
        report = run_scenario(
            tiny(scenario_library()["distinct_adversarial"], n=10),
            check_replay=False,
        )
        assert report.ok()
        assert report.replay_mismatches == 0

    def test_armed_solve_error_fails_every_accepted_request_typed(self):
        plan = FaultPlan([FaultSpec(site="service.solve", kind="error")])
        for name in ("dense_metro", "flash_crowd_burst"):
            report = run_scenario(
                tiny(scenario_library()[name], n=8), fault_plan=plan, check_replay=False
            )
            assert report.scenario == name
            assert report.accepted > 0
            assert report.failed_typed == report.accepted
            assert report.invariants["typed_failures_only"]


class TestChaosReport:
    def test_completion_rate_with_zero_accepted(self):
        report = ChaosReport(
            scenario="empty",
            fault_plan=None,
            accepted=0,
            shed=3,
            completed=0,
            degraded=0,
            failed_typed=0,
            failed_untyped=0,
            replay_mismatches=0,
            pool_healthy=True,
            p99_seconds=None,
        )
        assert report.completion_rate == 1.0
        assert report.ok()  # no invariants recorded → vacuously true
        assert json.dumps(report.to_dict())
