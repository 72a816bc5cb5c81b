"""Fault-injection subsystem: spec validation, seeded determinism,
fire caps, pickling semantics, and the deprecated crash-hook shim.

These are pure unit tests (no worker processes); the sites themselves
are exercised end-to-end in test_service_deadlines.py (service.solve),
test_service_pool.py (pool.worker.*), and test_service_chaos.py.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.service import FAULT_SITES, FaultPlan, FaultSpec


def crash_spec(**overrides):
    options = {"site": "pool.worker.batch", "kind": "crash"}
    options.update(overrides)
    return FaultSpec(**options)


class TestFaultSpecValidation:
    def test_site_registry_shape(self):
        assert set(FAULT_SITES) == {
            "service.solve",
            "pool.worker.batch",
            "pool.worker.spawn",
            "gateway.accept",
            "gateway.response",
            "client.connect",
        }
        assert "error" in FAULT_SITES["service.solve"]
        assert "crash" in FAULT_SITES["pool.worker.spawn"]
        assert set(FAULT_SITES["gateway.response"]) == {"drop", "truncate"}
        assert set(FAULT_SITES["client.connect"]) == {"latency", "reset"}
        assert FAULT_SITES["gateway.accept"] == ("refuse",)

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="service.teleport", kind="crash")

    def test_kind_must_match_site(self):
        # service.solve supports slow/error but not crash
        with pytest.raises(ValueError, match="supports kinds"):
            FaultSpec(site="service.solve", kind="crash")

    def test_probability_delay_max_fires_ranges(self):
        with pytest.raises(ValueError, match="probability"):
            crash_spec(probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            crash_spec(probability=-0.1)
        with pytest.raises(ValueError, match="delay"):
            FaultSpec(site="service.solve", kind="slow", delay=-1.0)
        with pytest.raises(ValueError, match="max_fires"):
            crash_spec(max_fires=-1)

    def test_generations_normalized_to_tuple(self):
        spec = crash_spec(generations=[0, 1])
        assert spec.generations == (0, 1)
        assert spec.matches_generation(0)
        assert spec.matches_generation(1)
        assert not spec.matches_generation(2)
        # no generation filter, or no generation context: always matches
        assert crash_spec().matches_generation(5)
        assert spec.matches_generation(None)

    def test_round_trip_through_dict(self):
        spec = crash_spec(probability=0.25, generations=(0,), max_fires=3)
        data = spec.to_dict()
        json.dumps(data)  # what the metrics snapshot's config embeds
        assert data["generations"] == [0] and data["max_fires"] == 3
        assert data["probability"] == 0.25


class TestFaultPlanEvaluation:
    def test_unknown_site_rejected_at_evaluation(self):
        plan = FaultPlan([crash_spec()])
        with pytest.raises(ValueError, match="unknown fault site"):
            plan.actions("service.teleport")

    def test_certain_spec_fires_every_time(self):
        plan = FaultPlan([crash_spec()])
        for _ in range(3):
            assert plan.fires("pool.worker.batch") is plan.specs[0]
        assert plan.fires("pool.worker.spawn") is None
        assert plan.fired_counts() == {"pool.worker.batch:crash": 3}

    def test_generation_scoping(self):
        plan = FaultPlan([crash_spec(generations=(0, 1))])
        assert plan.fires("pool.worker.batch", generation=0) is not None
        assert plan.fires("pool.worker.batch", generation=1) is not None
        assert plan.fires("pool.worker.batch", generation=2) is None

    def test_keyed_draws_are_stateless_and_seeded(self):
        """The same (plan seed, site, spec, key) always draws the same
        Bernoulli — independent of evaluation order or history — so a
        retried batch refires deterministically on the respawned worker."""
        plan_a = FaultPlan([crash_spec(probability=0.5)], seed=11)
        plan_b = FaultPlan([crash_spec(probability=0.5)], seed=11)
        keys = list(range(200))
        fires_a = [plan_a.fires("pool.worker.batch", key=k) is not None for k in keys]
        fires_b = [
            plan_b.fires("pool.worker.batch", key=k) is not None
            for k in reversed(keys)
        ]
        assert fires_a == list(reversed(fires_b))
        # re-evaluating the same key repeats the decision (stateless draw)
        for k in keys[:10]:
            assert (
                plan_a.fires("pool.worker.batch", key=k) is not None
            ) == fires_a[k]
        # p=0.5 over 200 keys: both outcomes occur
        assert 0 < sum(fires_a) < len(keys)

    def test_keyed_draws_differ_across_seeds_and_sites(self):
        keys = list(range(200))
        spec = FaultSpec(site="service.solve", kind="slow", probability=0.5)
        plan_11 = FaultPlan([spec], seed=11)
        plan_12 = FaultPlan([spec], seed=12)
        fires_11 = [plan_11.fires("service.solve", key=k) is not None for k in keys]
        fires_12 = [plan_12.fires("service.solve", key=k) is not None for k in keys]
        assert fires_11 != fires_12

    def test_unkeyed_draws_use_counter_stream_and_reset_rearms(self):
        plan = FaultPlan([crash_spec(probability=0.5)], seed=7)
        first_pass = [plan.fires("pool.worker.batch") is not None for _ in range(50)]
        plan.reset()
        second_pass = [plan.fires("pool.worker.batch") is not None for _ in range(50)]
        assert first_pass == second_pass  # same plan, re-armed → same stream
        assert 0 < sum(first_pass) < 50

    def test_max_fires_caps_activations_and_reset_restores(self):
        plan = FaultPlan([crash_spec(max_fires=2)])
        fired = [plan.fires("pool.worker.batch") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.fired_counts() == {"pool.worker.batch:crash": 2}
        plan.reset()
        assert plan.fires("pool.worker.batch") is not None

    def test_actions_returns_every_matching_spec(self):
        plan = FaultPlan(
            [
                FaultSpec(site="service.solve", kind="slow", delay=0.01),
                FaultSpec(site="service.solve", kind="error"),
                crash_spec(),
            ]
        )
        kinds = [spec.kind for spec in plan.actions("service.solve", key=1)]
        assert kinds == ["slow", "error"]
        assert len(plan) == 3
        assert [spec.site for spec in plan] == [
            "service.solve",
            "service.solve",
            "pool.worker.batch",
        ]


class TestFaultPlanSerialization:
    def test_pickle_ships_specs_but_rearms_runtime_state(self):
        """A worker's copy arms fresh: fire caps and counter streams are
        per incarnation, which is what lets a respawned worker re-fire."""
        plan = FaultPlan([crash_spec(max_fires=1)], seed=3)
        assert plan.fires("pool.worker.batch") is not None
        assert plan.fires("pool.worker.batch") is None  # cap spent locally
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs and clone.seed == plan.seed
        assert clone.fires("pool.worker.batch") is not None  # fresh budget
        assert plan.fired_counts() == {"pool.worker.batch:crash": 1}

    def test_dict_round_trip(self):
        plan = FaultPlan(
            [
                crash_spec(probability=0.5, generations=(0, 1)),
                FaultSpec(site="service.solve", kind="slow", delay=0.002),
            ],
            seed=11,
        )
        data = plan.to_dict()
        json.dumps(data)
        assert data["seed"] == 11
        assert data["specs"] == [spec.to_dict() for spec in plan.specs]
        assert "seed=11" in repr(plan)


class TestLegacyCrashShimRemoved:
    """The old ``metadata["_crash_worker"]`` hook served its deprecation
    cycle; the shim must no longer exist (crash faults are FaultPlans)."""

    def test_shim_is_gone(self):
        import repro.service.faults as faults

        assert not hasattr(faults, "legacy_crash_fires")
        assert "legacy_crash_fires" not in faults.__all__
