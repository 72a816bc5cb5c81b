"""HTTP gateway: endpoints, error statuses, deadlines, chaos over the wire.

Every test here exercises a real localhost socket — the asyncio gateway
on its loop thread, driven either by the stdlib ``http.client`` (to pin
raw HTTP behavior: statuses, error codes, keep-alive) or by the typed
clients in :mod:`repro.service.client`.
"""

from __future__ import annotations

import dataclasses
import http.client
import inspect
import json
import socket
import threading

import pytest

import repro.service
from repro.experiments.workloads import metro_disk_scene
from repro.io import _structure_to_dict
from repro.service import (
    AuctionRequest,
    AuctionResponse,
    AuctionService,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    GatewayServer,
    SCHEMA_VERSION,
    Scenario,
    ShedError,
    SyncGatewayClient,
    run_scenario,
    scenario_library,
    scene_fingerprint,
)
from repro.service.wire import request_to_wire
from repro.valuations.generators import random_xor_valuations

N = 24
K = 3


class TestExportsSync:
    """The package's ``__all__`` is exactly its documented public surface."""

    def test_all_names_resolve(self):
        for name in repro.service.__all__:
            assert getattr(repro.service, name, None) is not None, name

    def test_all_matches_public_attributes(self):
        public = {
            name
            for name in dir(repro.service)
            if not name.startswith("_")
            and not inspect.ismodule(getattr(repro.service, name))
        }
        assert public == set(repro.service.__all__)

    def test_no_duplicates(self):
        assert len(repro.service.__all__) == len(set(repro.service.__all__))

    def test_test_only_entry_points_are_gone(self):
        """Public names whose only callers were tests were removed; the
        classes and constants that stay are imported from their own
        modules."""
        from repro.service import chaos, client, service, traffic

        for name in (
            "run_matrix",
            "save_trace",
            "load_trace",
            "AuctionGateway",
            "GatewayClient",
            "TrafficRequest",
            "WIRE_ERROR_CODES",
        ):
            assert name not in repro.service.__all__, name
            assert not hasattr(repro.service, name), name
        assert not hasattr(chaos, "run_matrix")
        assert not hasattr(traffic, "save_trace")
        assert not hasattr(traffic, "load_trace")
        assert not hasattr(AuctionService, "write_metrics")
        assert not hasattr(client.GatewayClient, "solve_batch")
        assert service.__all__ == ["AuctionService"]

    def test_canonical_request_and_response_are_the_wire_types(self):
        from repro.service import wire

        assert repro.service.AuctionRequest is wire.AuctionRequest
        assert repro.service.AuctionResponse is wire.AuctionResponse


@pytest.fixture(scope="module")
def scene():
    return metro_disk_scene(N, seed=501)


@pytest.fixture(scope="module")
def served(scene):
    """One gateway over a serial service, shared by the read-only tests."""
    service = AuctionService(executor="serial", coalesce_window=0.0)
    scene_id = service.register_scene(scene)
    with GatewayServer(service) as server:
        with SyncGatewayClient(port=server.port) as client:
            yield server, client, scene_id
    service.close()


def http_request(server, method, path, body=None, headers=None):
    """Raw stdlib exchange; returns (status, decoded JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request(
            method,
            path,
            body=None if body is None else json.dumps(body),
            headers=headers or {},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload
    finally:
        conn.close()


def make_request(scene_id, seed=1, **kwargs):
    vals = kwargs.pop("valuations", None)
    if vals is None:
        vals = random_xor_valuations(N, K, seed=seed)
    return AuctionRequest(scene_id, K, vals, seed=seed, **kwargs)


class TestEndpoints:
    def test_health(self, served):
        server, client, _ = served
        status, payload = http_request(server, "GET", "/v1/health")
        assert status == 200
        assert payload["healthy"] is True
        assert payload["schema_version"] == SCHEMA_VERSION
        assert client.health() is True

    def test_register_scene_returns_fingerprint(self, served, scene):
        server, _, scene_id = served
        status, payload = http_request(
            server, "POST", "/v1/scenes", {"structure": _structure_to_dict(scene)}
        )
        assert status == 200
        assert payload["scene_id"] == scene_id == scene_fingerprint(scene)
        assert payload["n"] == N

    def test_register_scene_via_client(self, served, scene):
        _, client, scene_id = served
        assert client.register_scene(scene) == scene_id

    def test_solve_matches_in_process(self, served):
        server, client, scene_id = served
        request = make_request(scene_id, seed=11)
        response = client.solve(request)
        assert isinstance(response, AuctionResponse)
        assert response.scene_id == scene_id
        assert response.seed == 11
        assert "solve_seconds" in response.timing
        [expected] = server.gateway.service.solve_batch(
            [make_request(scene_id, seed=11)]
        )
        assert response == expected

    def test_metrics_include_gateway_counters(self, served):
        _, client, _ = served
        snapshot = client.metrics()
        assert snapshot["schema_version"] == SCHEMA_VERSION
        counters = snapshot["gateway"]
        assert counters["requests"] > 0
        assert set(counters) == {
            "connections",
            "requests",
            "responses_ok",
            "responses_error",
            "refused_connections",
            "dropped_responses",
            "journal_hits",
            "journal_coalesced",
            "journal_misses",
            "journal_evictions",
            "duplicate_solves",
        }

    def test_keep_alive_serves_many_requests_per_connection(self, served):
        server, _, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class TestLoopThreads:
    """The sync facades own one loop thread each, and never leak it."""

    def test_failed_starts_leave_no_loop_thread(self):
        before = set(threading.enumerate())
        with pytest.raises(ValueError):
            SyncGatewayClient(max_connections=0)
        service = AuctionService(executor="serial")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(OSError):
                with GatewayServer(service, port=taken.getsockname()[1]):
                    pass
        service.close()
        assert [t.name for t in set(threading.enumerate()) - before] == []

    def test_close_joins_loop_threads(self, scene):
        before = set(threading.enumerate())
        service = AuctionService(executor="serial", coalesce_window=0.0)
        with GatewayServer(service) as server:
            with SyncGatewayClient(port=server.port) as client:
                assert client.health()
            with SyncGatewayClient(port=server.port) as client:
                assert client.register_scene(scene) == scene_fingerprint(scene)
        client.close()  # idempotent
        service.close()
        assert [t.name for t in set(threading.enumerate()) - before] == []


class TestErrorStatuses:
    def test_unknown_scene_is_404_and_typed(self, served):
        server, client, _ = served
        status, payload = http_request(
            server, "POST", "/v1/solve", request_to_wire(make_request("f" * 16))
        )
        assert status == 404
        assert payload["error_code"] == "unknown-scene"
        with pytest.raises(KeyError):
            client.solve(make_request("f" * 16))

    def test_malformed_json_is_400(self, served):
        server, _, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("POST", "/v1/solve", body="{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error_code"] == "bad-request"

    def test_wrong_schema_version_is_400(self, served):
        server, _, scene_id = served
        wire = request_to_wire(make_request(scene_id))
        wire["schema_version"] = SCHEMA_VERSION + 1
        status, payload = http_request(server, "POST", "/v1/solve", wire)
        assert status == 400
        assert payload["error_code"] == "bad-request"
        assert "schema_version" in payload["message"]

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("values", float("inf")),
            ("values", float("nan")),
            ("values", float("-inf")),
            ("masks", 1 << K),
            ("masks", 0),
            ("masks", "duplicate"),
        ],
        ids=["inf", "nan", "-inf", "mask-out-of-range", "nonzero-empty-bundle",
             "duplicate-bundle"],
    )
    def test_invalid_bids_are_400_not_500(self, served, field, bad):
        """Invalid bids are the client's fault: each is refused typed at
        decode.  (An ``inf`` bid used to reach HiGHS and come back as a
        500 ``internal``.)"""
        server, _, scene_id = served
        wire = request_to_wire(make_request(scene_id))
        profile = wire["profile"]
        if bad == "duplicate":
            start, end = profile["offsets"][0], profile["offsets"][1]
            assert end - start >= 2, "first bidder needs two bids"
            profile["masks"][start + 1] = profile["masks"][start]
        else:
            profile[field][0] = bad
        status, payload = http_request(server, "POST", "/v1/solve", wire)
        assert status == 400
        assert payload["error_code"] == "bad-request"

    def test_version_1_and_additive_payloads_are_400(self, served):
        server, _, scene_id = served
        wire = request_to_wire(make_request(scene_id))
        wire["schema_version"] = 1
        status, payload = http_request(server, "POST", "/v1/solve", wire)
        assert status == 400 and "schema_version" in payload["message"]
        # the additive family has no columnar form: nothing to decode
        wire = request_to_wire(make_request(scene_id))
        wire["profile"] = [{"type": "additive", "per_channel": [1.0] * K}] * N
        status, payload = http_request(server, "POST", "/v1/solve", wire)
        assert status == 400
        assert payload["error_code"] == "bad-request"

    def test_truthful_mode_is_not_wire_servable(self, served):
        server, _, scene_id = served
        status, payload = http_request(
            server,
            "POST",
            "/v1/solve",
            request_to_wire(make_request(scene_id, mode="truthful")),
        )
        assert status == 400
        assert payload["error_code"] == "bad-request"

    def test_unknown_path_is_404(self, served):
        server, _, _ = served
        status, payload = http_request(server, "GET", "/v1/oracle")
        assert status == 404
        assert payload["error_code"] == "not-found"

    def test_solve_batch_route_is_gone(self, served):
        """``/v1/solve-batch`` was removed: a batch is pipelined
        ``/v1/solve`` calls, and the old path is an unknown endpoint."""
        server, _, scene_id = served
        body = {"requests": [request_to_wire(make_request(scene_id, seed=21))]}
        status, payload = http_request(server, "POST", "/v1/solve-batch", body)
        assert status == 404
        assert payload["status"] == "error"
        assert payload["error_code"] == "not-found"
        assert not hasattr(SyncGatewayClient, "solve_batch")

    def test_nonpositive_deadline_is_400(self, served):
        server, _, scene_id = served
        status, payload = http_request(
            server,
            "POST",
            "/v1/solve",
            request_to_wire(make_request(scene_id)),
            headers={"X-Auction-Deadline": "-1.0"},
        )
        assert status == 400
        assert payload["error_code"] == "bad-request"

    def test_non_numeric_deadline_header_is_400(self, served):
        server, _, scene_id = served
        status, payload = http_request(
            server,
            "POST",
            "/v1/solve",
            request_to_wire(make_request(scene_id)),
            headers={"X-Auction-Deadline": "soon"},
        )
        assert status == 400
        assert payload["error_code"] == "bad-request"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_typed_400(self, served, length):
        server, _, _ = served
        before = server.gateway.counters()
        with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
            sock.sendall(
                "POST /v1/solve HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("latin-1")
            )
            raw = b""
            while chunk := sock.recv(65536):  # the gateway closes after answering
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        payload = json.loads(body)
        assert payload["status"] == "error"
        assert payload["error_code"] == "bad-request"
        after = server.gateway.counters()
        assert after["requests"] == before["requests"] + 1
        assert after["responses_error"] == before["responses_error"] + 1


class TestSizeCaps:
    """Oversized requests produce typed 413/431 wire errors over raw
    HTTP — never a bare connection close."""

    @pytest.fixture()
    def capped(self, scene):
        service = AuctionService(executor="serial", coalesce_window=0.0)
        scene_id = service.register_scene(scene)
        with GatewayServer(
            service, max_header_bytes=2048, max_body_bytes=8192
        ) as server:
            yield server, scene_id
        service.close()

    def test_oversized_body_is_typed_413(self, capped):
        server, scene_id = capped
        wire = request_to_wire(make_request(scene_id))
        wire["metadata"] = {"padding": "x" * 16384}
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("POST", "/v1/solve", body=json.dumps(wire))
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()
        assert payload["error_code"] == "payload-too-large"
        assert payload["status"] == "error"
        assert "8192" in payload["message"]

    def test_oversized_header_section_is_typed_431(self, capped):
        server, _ = capped
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.putrequest("GET", "/v1/health")
            conn.putheader("X-Padding", "p" * 4096)
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 431
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()
        assert payload["error_code"] == "header-too-large"
        assert payload["status"] == "error"

    def test_within_caps_still_serves(self, capped):
        server, scene_id = capped
        status, payload = http_request(
            server, "POST", "/v1/solve", request_to_wire(make_request(scene_id))
        )
        assert status == 200
        assert payload["status"] == "ok"


class TestDeadlinePropagation:
    def test_header_reaches_the_ewma_triage(self, scene):
        """A low budget against a huge solve-time hint degrades to greedy —
        proof the header value drives the same server-side triage as an
        in-process deadline."""
        service = AuctionService(
            executor="serial",
            coalesce_window=0.0,
            solve_time_hint=30.0,
            degrade_headroom=1.0,
        )
        scene_id = service.register_scene(scene)
        try:
            with GatewayServer(service) as server:
                status, payload = http_request(
                    server,
                    "POST",
                    "/v1/solve",
                    request_to_wire(make_request(scene_id, seed=31)),
                    headers={"X-Auction-Deadline": "5.0"},
                )
            assert status == 200
            assert payload["details"] == {"degraded": True, "fallback": "greedy"}
        finally:
            service.close()

    def test_header_overrides_body_deadline(self, scene):
        """Body says 120s (would solve in full); the 5s header wins."""
        service = AuctionService(
            executor="serial",
            coalesce_window=0.0,
            solve_time_hint=30.0,
            degrade_headroom=1.0,
        )
        scene_id = service.register_scene(scene)
        try:
            with GatewayServer(service) as server:
                status, payload = http_request(
                    server,
                    "POST",
                    "/v1/solve",
                    request_to_wire(make_request(scene_id, seed=32, deadline=120.0)),
                    headers={"X-Auction-Deadline": "5.0"},
                )
            assert status == 200
            assert payload["details"].get("degraded") is True
        finally:
            service.close()

    def test_expired_deadline_is_504(self, scene):
        """A request queued behind a browned-out solve fails typed with
        DeadlineExceeded — surfaced over the wire as HTTP 504."""
        plan = FaultPlan(
            [FaultSpec(site="service.solve", kind="slow", delay=0.4)]
        )
        service = AuctionService(
            executor="serial",
            coalesce_window=0.0,
            fault_plan=plan,
            degrade_headroom=0.0,
        )
        scene_id = service.register_scene(scene)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(port=server.port) as client:
                    blocker = client.submit(make_request(scene_id, seed=41))
                    doomed = client.submit(
                        make_request(scene_id, seed=42, deadline=0.05)
                    )
                    assert blocker.result(timeout=60).feasible
                    with pytest.raises(DeadlineExceeded):
                        doomed.result(timeout=60)
        finally:
            service.close()


class TestShedOverTheWire:
    def test_admission_control_sheds_arrive_as_typed_503(self, scene):
        plan = FaultPlan(
            [FaultSpec(site="service.solve", kind="slow", delay=0.2)]
        )
        service = AuctionService(
            executor="serial", coalesce_window=0.0, max_queue=1, fault_plan=plan
        )
        scene_id = service.register_scene(scene)
        try:
            with GatewayServer(service) as server:
                with SyncGatewayClient(port=server.port) as client:
                    futures = [
                        client.submit(make_request(scene_id, seed=50 + i))
                        for i in range(8)
                    ]
                    outcomes = []
                    for future in futures:
                        try:
                            outcomes.append(future.result(timeout=60))
                        except ShedError as exc:
                            outcomes.append(exc)
                    sheds = [o for o in outcomes if isinstance(o, ShedError)]
                    served_ok = [
                        o for o in outcomes if isinstance(o, AuctionResponse)
                    ]
                    assert sheds, "queue of 1 under a slow solve must shed"
                    assert served_ok, "some requests must still be served"
                    assert len(sheds) + len(served_ok) == 8
        finally:
            service.close()


class TestChaosOverGateway:
    """The crash-storm/chaos invariants hold across the HTTP boundary."""

    def tiny(self, scenario: Scenario, n: int = 16, **overrides) -> Scenario:
        return dataclasses.replace(
            scenario, num_requests=n, scene_size=12, num_scenes=1, **overrides
        )

    def test_fault_free_scenario_is_clean_over_http(self):
        report = run_scenario(
            self.tiny(scenario_library()["dense_metro"], n=16),
            transport="gateway",
        )
        assert report.ok(), report.invariants
        assert report.transport == "gateway"
        assert report.completed == 16
        assert report.replay_mismatches == 0

    def test_injected_errors_stay_typed_over_http(self):
        scenario = self.tiny(scenario_library()["dense_metro"], n=20)
        plan = FaultPlan(
            [FaultSpec(site="service.solve", kind="error", probability=0.3)],
            seed=5,
        )
        report = run_scenario(scenario, fault_plan=plan, transport="gateway")
        assert report.ok(), report.invariants
        assert 0 < report.failed_typed < report.accepted
        assert report.completed + report.failed_typed == report.accepted

    def test_overload_sheds_are_counted_not_failed_over_http(self):
        base = scenario_library()["flash_crowd_burst"]
        scenario = self.tiny(base, n=32)
        scenario = dataclasses.replace(
            scenario, service={**scenario.service, "max_queue": 4}
        )
        report = run_scenario(scenario, transport="gateway")
        assert report.ok(), report.invariants
        assert report.shed > 0
        assert report.accepted + report.shed == 32
        assert report.completed == report.accepted

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            run_scenario(
                self.tiny(scenario_library()["dense_metro"], n=1),
                transport="carrier-pigeon",
            )
