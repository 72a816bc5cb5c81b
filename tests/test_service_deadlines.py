"""Deadline semantics, admission control, and graceful degradation.

Everything here runs the serial executor (the dispatcher thread does the
solving) so the timing the tests rely on — a fault-injected slow solve
occupying the dispatcher, a deadline already expired at triage — is
deterministic, not a race against thread scheduling.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.core.auction import AuctionProblem
from repro.core.baselines import greedy_channel_allocation
from repro.experiments.workloads import metro_disk_scene
from repro.service import (
    AuctionRequest,
    AuctionService,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    ShedError,
)
from repro.valuations.generators import random_xor_valuations

N = 16
K = 3


@pytest.fixture(scope="module")
def scene():
    return metro_disk_scene(N, seed=501)


def make_service(scene, **overrides):
    options = {"executor": "serial", "coalesce_window": 0.0}
    options.update(overrides)
    service = AuctionService(**options)
    service.register_scene(scene)
    return service


def request(service, seed=1, **kwargs):
    [scene_id] = service.registry.ids()
    vals = kwargs.pop("valuations", None)
    if vals is None:
        vals = random_xor_valuations(N, K, seed=seed)
    return AuctionRequest(scene_id, K, vals, seed=seed, **kwargs)


def wait_until(predicate, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


class TestValidation:
    def test_nonpositive_deadline_rejected(self, scene):
        with make_service(scene) as service:
            with pytest.raises(ValueError, match="deadline"):
                service.submit(request(service, deadline=0.0))
            with pytest.raises(ValueError, match="deadline"):
                service.submit(request(service, deadline=-1.0))

    def test_bad_admission_and_degradation_options_rejected(self):
        with pytest.raises(ValueError, match="max_queue"):
            AuctionService(max_queue=0)
        with pytest.raises(ValueError, match="degrade_headroom"):
            AuctionService(degrade_headroom=-0.5)
        with pytest.raises(ValueError, match="solve_time_hint"):
            AuctionService(solve_time_hint=0.0)

    def test_config_surfaces_in_metrics_snapshot(self, scene):
        plan = FaultPlan([FaultSpec(site="service.solve", kind="slow", delay=0.01)])
        with make_service(
            scene, max_queue=8, degrade_headroom=2.0, fault_plan=plan
        ) as service:
            config = service.metrics_snapshot()["config"]
            assert config["max_queue"] == 8
            assert config["degrade_headroom"] == 2.0
            assert config["fault_plan"] == plan.to_dict()


class TestDeadlineExpiry:
    def test_expired_before_dispatch_fails_typed(self, scene):
        """A request whose deadline passes while it queues behind a slow
        solve fails with DeadlineExceeded, counted as a timeout."""
        plan = FaultPlan(
            # keyed slow fault: only the seed-1 request browns out
            [FaultSpec(site="service.solve", kind="slow", delay=0.4)]
        )
        service = make_service(scene, fault_plan=plan, degrade_headroom=0.0)
        blocker = service.submit(request(service, seed=1))
        doomed = service.submit(request(service, seed=2, deadline=0.05))
        assert blocker.result(timeout=60).feasible
        with pytest.raises(DeadlineExceeded, match="expired before dispatch"):
            doomed.result(timeout=60)
        counts = service.metrics.counts()
        assert counts["timeouts"] == 1
        assert counts["failed"] == 1
        assert counts["completed"] == 1
        assert service.close(timeout=60)

    def test_generous_deadline_serves_normally(self, scene):
        with make_service(scene) as service:
            future = service.submit(request(service, seed=3, deadline=120.0))
            result = future.result(timeout=60)
            assert result.feasible
            assert not result.details.get("degraded")
            assert service.metrics.counts()["timeouts"] == 0


class TestGracefulDegradation:
    def test_low_budget_allocate_degrades_to_greedy(self, scene):
        """With the EWMA hinted far above the remaining budget, triage
        serves the request by the greedy baseline — flagged, LP-free,
        and identical to calling the baseline directly."""
        service = make_service(scene, solve_time_hint=30.0, degrade_headroom=1.0)
        vals = random_xor_valuations(N, K, seed=4)
        future = service.submit(request(service, seed=4, valuations=vals, deadline=5.0))
        result = future.result(timeout=60)
        assert result.details == {"degraded": True, "fallback": "greedy"}
        assert result.lp_value == 0.0
        assert result.guarantee == float("inf")
        assert result.lp_iterations == 0
        problem = AuctionProblem(scene, K, list(vals))
        expected = greedy_channel_allocation(problem)
        assert result.allocation == expected
        assert result.welfare == problem.welfare(expected)
        counts = service.metrics.counts()
        assert counts["degraded"] == 1 and counts["completed"] == 1
        assert service.close(timeout=60)

    def test_zero_headroom_disables_degradation(self, scene):
        with make_service(scene, solve_time_hint=30.0, degrade_headroom=0.0) as service:
            future = service.submit(request(service, seed=5, deadline=5.0))
            result = future.result(timeout=60)
            assert not result.details.get("degraded")
            assert result.lp_value > 0.0
            assert service.metrics.counts()["degraded"] == 0

    def test_truthful_requests_never_degrade(self, scene):
        """Degradation swaps the allocation algorithm; a truthful request
        needs its payments, so triage always runs it in full."""
        with make_service(scene, solve_time_hint=30.0) as service:
            future = service.submit(
                request(service, seed=6, deadline=5.0, mode="truthful")
            )
            outcome = future.result(timeout=120)
            assert outcome.payments is not None
            assert service.metrics.counts()["degraded"] == 0

    def test_ewma_folds_observations(self, scene):
        with make_service(scene) as service:
            assert service._solve_estimate() is None
            service._observe_solve_time(1.0)
            assert service._solve_estimate() == pytest.approx(1.0)
            service._observe_solve_time(2.0)
            assert service._solve_estimate() == pytest.approx(1.2)


class TestAdmissionControl:
    def test_full_queue_sheds_synchronously(self, scene):
        plan = FaultPlan([FaultSpec(site="service.solve", kind="slow", delay=0.4)])
        service = make_service(scene, fault_plan=plan, max_queue=2)
        blocker = service.submit(request(service, seed=1))
        # the dispatcher picks the blocker up and sits in its slow solve
        wait_until(lambda: service._queued == 0)
        queued = [service.submit(request(service, seed=2 + i)) for i in range(2)]
        with pytest.raises(ShedError, match="queue full"):
            service.submit(request(service, seed=9))
        assert service.metrics.counts()["shed"] == 1
        # shed rejected the new request only; everything accepted completes
        for future in [blocker, *queued]:
            assert future.result(timeout=60).feasible
        assert service.drain(timeout=60)
        counts = service.metrics.counts()
        assert counts["completed"] == 3 and counts["failed"] == 0
        assert service.close(timeout=60)

    def test_unbounded_queue_never_sheds(self, scene):
        with make_service(scene) as service:
            futures = [service.submit(request(service, seed=i)) for i in range(6)]
            assert all(f.result(timeout=60).feasible for f in futures)
            assert service.metrics.counts()["shed"] == 0


class TestDrainUnderFaults:
    def test_injected_backend_errors_fail_typed_and_drain_completes(self, scene):
        """drain()/close() never drop accepted work: with every solve
        erroring, each accepted future still resolves — typed."""
        plan = FaultPlan([FaultSpec(site="service.solve", kind="error")])
        service = make_service(scene, fault_plan=plan)
        futures = [service.submit(request(service, seed=i)) for i in range(4)]
        assert service.drain(timeout=60)
        for future in futures:
            assert future.done()
            with pytest.raises(InjectedFaultError):
                future.result()
        counts = service.metrics.counts()
        assert counts["failed"] == 4 and counts["completed"] == 0
        assert service.healthy()  # serial path: nothing to break
        assert service.close(timeout=60)
        assert not service.healthy()  # closed services do not serve

    def test_raising_solve_batch_fails_its_unsolved_requests(self, scene):
        """The queueless path records every request as submitted up front,
        so a group that raises must finish its own and every later group's
        requests as failed — a worker serves each job this way, and a
        request left out would count as in flight forever."""
        plan = FaultPlan(
            [FaultSpec(site="service.solve", kind="error", probability=0.5)],
            seed=3,
        )
        fails = [s for s in range(40) if plan.fires("service.solve", key=s)]
        solves = [s for s in range(40) if s not in fails]
        service = make_service(scene, fault_plan=plan)
        doomed = [request(service, seed=s) for s in fails[:3]]
        first, second = request(service, seed=solves[0]), request(service, seed=fails[0])
        other = service.register_scene(metro_disk_scene(N, seed=502))
        second = replace(second, scene_id=other)
        with pytest.raises(InjectedFaultError):
            service.solve_batch(doomed)
        assert service.metrics.counts()["failed"] == 3
        # two scenes: the first group solves, the second one raises
        with pytest.raises(InjectedFaultError):
            service.solve_batch([first, second])
        counts = service.metrics.counts()
        assert counts["submitted"] == 5
        assert counts["completed"] == 1
        assert counts["failed"] == 4
        assert service.close(timeout=60)

    def test_error_fault_can_be_keyed_to_specific_requests(self, scene):
        plan = FaultPlan(
            [FaultSpec(site="service.solve", kind="error", probability=0.5)],
            seed=11,
        )
        service = make_service(scene, fault_plan=plan)
        futures = {i: service.submit(request(service, seed=i)) for i in range(12)}
        assert service.drain(timeout=120)
        outcomes = {
            i: (f.exception() if f.exception() else f.result())
            for i, f in futures.items()
        }
        failed = {i for i, out in outcomes.items() if isinstance(out, Exception)}
        assert 0 < len(failed) < len(futures)  # p=0.5 splits the population
        assert all(isinstance(outcomes[i], InjectedFaultError) for i in failed)
        # the keyed draw is replayable: a fresh service over the same plan
        # fails exactly the same request seeds
        plan.reset()
        replay = make_service(scene, fault_plan=plan)
        futures2 = {i: replay.submit(request(replay, seed=i)) for i in range(12)}
        assert replay.drain(timeout=120)
        failed2 = {i for i, f in futures2.items() if f.exception() is not None}
        assert failed2 == failed
        assert service.close(timeout=60) and replay.close(timeout=60)
