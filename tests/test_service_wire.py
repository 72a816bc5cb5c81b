"""Wire schema: exact round trips, typed errors, versioning, deprecation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.result import SolverResult
from repro.service import errors as errors_module
from repro.service.errors import (
    DeadlineExceeded,
    InjectedFaultError,
    ServiceFaultError,
    ShedError,
)
from repro.service.pool import WorkerCrashError
from repro.service.wire import (
    SCHEMA_VERSION,
    WIRE_ERROR_CODES,
    AuctionRequest,
    AuctionResponse,
    default_idempotency_key,
    error_from_wire,
    error_to_wire,
    http_status_for,
    request_from_wire,
    request_to_wire,
)
from repro.valuations.additive import AdditiveValuation
from repro.valuations.explicit import XORValuation
from repro.valuations.profile import Profile


def make_valuations():
    # deliberately unsorted bid order: the wire must preserve it exactly
    return [
        XORValuation(
            3,
            {
                frozenset({2, 0}): 5.0,
                frozenset({1}): 3.5,
                frozenset({0}): 1.25,
            },
        ),
        XORValuation(3, {frozenset({1, 2}): 7.0, frozenset({0, 1}): 2.0}),
    ]


def make_request(**overrides):
    options = dict(
        scene_id="a" * 16,
        k=3,
        valuations=make_valuations(),
        seed=7,
        profile_key="renewal:42",
        mode="allocate",
        deadline=0.75,
        metadata={"tenant": "metro-east"},
    )
    options.update(overrides)
    return AuctionRequest(**options)


def make_response(**overrides):
    options = dict(
        allocation={0: frozenset({2, 0}), 1: frozenset({1})},
        welfare=8.5,
        lp_value=9.25,
        feasible=True,
        guarantee=48.0,
        rounds_algorithm3=2,
        lp_iterations=3,
        channel_powers={0: np.array([0.5, 0.25]), 2: np.array([1.0])},
        sinr_feasible=True,
        details={"batched": True},
        scene_id="a" * 16,
        seed=7,
        timing={"solve_seconds": 0.012},
    )
    options.update(overrides)
    return AuctionResponse(**options)


RESPONSE_SHAPES = {
    "success": make_response(),
    "degraded": make_response(
        guarantee=float("inf"),
        details={"degraded": True, "fallback": "greedy"},
    ),
    "empty-allocation": make_response(
        allocation={}, welfare=0.0, channel_powers={}, sinr_feasible=None
    ),
    "non-finite": make_response(
        lp_value=float("inf"),
        guarantee=float("nan"),
        channel_powers={1: np.array([float("inf"), 0.0])},
    ),
}


class TestRequestRoundTrip:
    def test_round_trip_is_exact(self):
        request = make_request()
        decoded = request_from_wire(request_to_wire(request))
        assert decoded.scene_id == request.scene_id
        assert decoded.k == request.k
        assert decoded.seed == request.seed
        assert decoded.profile_key == request.profile_key
        assert decoded.mode == request.mode
        assert decoded.deadline == request.deadline
        assert decoded.metadata == request.metadata
        assert decoded.idempotency_key == request.idempotency_key
        assert decoded.valuations == Profile.of(request.valuations)

    def test_bid_order_is_preserved(self):
        decoded = request_from_wire(request_to_wire(make_request()))
        for original, valuation in zip(make_valuations(), decoded.valuations):
            assert type(valuation) is XORValuation
            assert list(valuation.bids.items()) == list(original.bids.items())

    def test_optional_fields_default(self):
        wire = {
            "schema_version": SCHEMA_VERSION,
            "scene_id": "b" * 16,
            "k": 3,
            "profile": Profile.of(make_valuations()[:1]).to_wire(),
        }
        decoded = request_from_wire(wire)
        assert decoded.seed is None
        assert decoded.profile_key is None
        assert decoded.mode == "allocate"
        assert decoded.deadline is None
        assert decoded.metadata == {}
        assert decoded.idempotency_key is None  # additive: old payloads decode

    def test_unknown_schema_version_rejected(self):
        wire = request_to_wire(make_request())
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            request_from_wire(wire)

    def test_survives_sort_keys_reserialization(self):
        wire = request_to_wire(make_request())
        resorted = json.loads(json.dumps(wire, sort_keys=True))
        assert request_to_wire(request_from_wire(resorted)) == wire

    def test_idempotency_key_round_trips(self):
        request = make_request(idempotency_key="renewal:42:7")
        wire = request_to_wire(request)
        assert wire["idempotency_key"] == "renewal:42:7"
        assert request_from_wire(wire).idempotency_key == "renewal:42:7"


class TestColumnarRequests:
    """Schema v2: the valuations cross as one columnar profile."""

    def test_profile_is_four_flat_arrays_in_bid_order(self):
        wire = request_to_wire(make_request())
        assert "valuations" not in wire
        assert wire["profile"] == {
            "kinds": [0, 0],
            "offsets": [0, 3, 5],
            "masks": [0b101, 0b010, 0b001, 0b110, 0b011],
            "values": [5.0, 3.5, 1.25, 7.0, 2.0],
        }
        decoded = request_from_wire(json.loads(json.dumps(wire)))
        assert isinstance(decoded.valuations, Profile)
        assert decoded.valuations == Profile.of(make_valuations())

    def test_version_1_payload_is_rejected_loudly(self):
        wire = {
            "schema_version": 1,
            "scene_id": "b" * 16,
            "k": 3,
            "valuations": [{"type": "xor", "k": 3, "bids": [[[0, 2], 5.0]]}],
        }
        with pytest.raises(ValueError, match="schema_version 1"):
            request_from_wire(wire)

    def test_additive_valuations_are_in_process_only(self):
        request = make_request(valuations=[AdditiveValuation(np.ones(3))])
        with pytest.raises(TypeError, match="AdditiveValuation"):
            request_to_wire(request)
        with pytest.raises(TypeError):
            default_idempotency_key(make_request(
                profile_key=None, valuations=[AdditiveValuation(np.ones(3))]
            ))

    @pytest.mark.parametrize(
        "field, index, bad, match",
        [
            ("values", 0, float("nan"), "finite"),
            ("values", 1, float("inf"), "finite"),
            ("values", 2, float("-inf"), "finite"),
            ("values", 0, -1.0, "non-negative"),
            ("masks", 0, 0b1000, "masks"),
            ("masks", 0, -1, "masks"),
            ("masks", 1, 0, "empty bundle"),
            ("masks", 1, 0b101, "same bundle twice"),
        ],
        ids=[
            "nan", "inf", "-inf", "negative", "mask-out-of-range",
            "negative-mask", "nonzero-empty-bundle", "duplicate-bundle",
        ],
    )
    def test_invalid_profiles_are_rejected(self, field, index, bad, match):
        wire = request_to_wire(make_request())
        wire["profile"][field][index] = bad
        with pytest.raises(ValueError, match=match):
            request_from_wire(wire)

    def test_zero_valued_empty_bundle_is_dropped(self):
        wire = request_to_wire(make_request())
        profile = wire["profile"]
        profile["masks"].insert(1, 0)
        profile["values"].insert(1, 0.0)
        profile["offsets"] = [0, 4, 6]
        decoded = request_from_wire(wire)
        assert decoded.valuations == Profile.of(make_valuations())

    @pytest.mark.parametrize(
        "profile, match",
        [
            ({"kinds": [3], "offsets": [0, 1], "masks": [1], "values": [1.0]}, "kinds"),
            ({"kinds": [2], "offsets": [0, 2], "masks": [1, 2], "values": [1.0, 2.0]},
             "exactly one"),
            ({"kinds": [0], "offsets": [0, 2], "masks": [1], "values": [1.0]}, "offsets"),
            ({"kinds": [0], "offsets": [0, 1], "masks": [1.5], "values": [1.0]}, "integers"),
            ({"kinds": [0], "offsets": [0, 1], "masks": [1], "values": ["1"]}, "numbers"),
            ({"kinds": [0], "offsets": [0, 1], "masks": [1], "values": [1.0, 2.0]},
             "differ"),
        ],
        ids=["kind", "single-minded-two-bids", "offsets", "float-mask", "string-value",
             "length"],
    )
    def test_malformed_layouts_are_rejected(self, profile, match):
        wire = {"schema_version": SCHEMA_VERSION, "scene_id": "b" * 16, "k": 3,
                "profile": profile}
        with pytest.raises(ValueError, match=match):
            request_from_wire(wire)


class TestIdempotencyKeyDerivation:
    def test_deterministic_across_calls_and_instances(self):
        assert default_idempotency_key(make_request()) == default_idempotency_key(
            make_request()
        )

    def test_sensitive_to_the_result_coordinates(self):
        base = default_idempotency_key(make_request())
        assert default_idempotency_key(make_request(seed=8)) != base
        assert default_idempotency_key(make_request(scene_id="b" * 16)) != base
        assert default_idempotency_key(make_request(profile_key="other")) != base
        assert default_idempotency_key(make_request(mode="truthful")) != base

    def test_insensitive_to_serving_hints(self):
        base = default_idempotency_key(make_request())
        assert default_idempotency_key(make_request(deadline=None)) == base
        assert (
            default_idempotency_key(make_request(metadata={"trace": "x"})) == base
        )

    def test_key_is_the_same_for_lists_and_profiles(self):
        as_list = make_request(profile_key=None)
        as_profile = make_request(
            profile_key=None, valuations=Profile.of(make_valuations())
        )
        decoded = request_from_wire(request_to_wire(as_list))
        key = default_idempotency_key(as_list)
        assert default_idempotency_key(as_profile) == key
        assert default_idempotency_key(decoded) == key

    def test_profileless_requests_fold_in_the_valuations(self):
        """Two one-off profiles sharing a seed must not collide."""
        a = make_request(profile_key=None)
        b = make_request(profile_key=None, valuations=make_valuations()[:1])
        assert default_idempotency_key(a) != default_idempotency_key(b)
        # and the derivation stays deterministic for the profileless form
        assert default_idempotency_key(a) == default_idempotency_key(
            make_request(profile_key=None)
        )


class TestResponseRoundTrip:
    @pytest.mark.parametrize("shape", sorted(RESPONSE_SHAPES))
    def test_round_trip_is_bit_identical(self, shape):
        response = RESPONSE_SHAPES[shape]
        decoded = AuctionResponse.from_wire(json.loads(json.dumps(response.to_wire())))
        # wire-dict identity covers every field exactly (floats via repr,
        # numpy powers element-wise); ndarray values make full dataclass
        # equality unusable here, the wire form is the canonical comparison
        assert decoded.to_wire() == response.to_wire()
        assert decoded.scene_id == response.scene_id
        assert decoded.seed == response.seed
        assert decoded.timing == response.timing

    @pytest.mark.parametrize("shape", sorted(RESPONSE_SHAPES))
    def test_survives_sort_keys_reserialization(self, shape):
        response = RESPONSE_SHAPES[shape]
        resorted = json.loads(json.dumps(response.to_wire(), sort_keys=True))
        assert AuctionResponse.from_wire(resorted).to_wire() == response.to_wire()

    def test_non_finite_floats_cross_as_json_strings(self):
        payload = json.dumps(RESPONSE_SHAPES["non-finite"].to_wire())
        data = json.loads(payload)  # strict JSON: no bare Infinity/NaN
        assert data["lp_value"] == "inf"
        assert data["guarantee"] == "nan"
        decoded = AuctionResponse.from_wire(json.loads(payload))
        assert math.isinf(decoded.lp_value)
        assert math.isnan(decoded.guarantee)

    def test_json_form_is_a_string_round_trip(self):
        response = RESPONSE_SHAPES["success"]
        assert json.loads(json.dumps(response.to_wire())) == response.to_wire()

    def test_unknown_schema_version_rejected(self):
        wire = RESPONSE_SHAPES["success"].to_wire()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            AuctionResponse.from_wire(wire)

    def test_error_payload_rejected_by_from_wire(self):
        with pytest.raises(ValueError, match="status"):
            AuctionResponse.from_wire(error_to_wire(ShedError("full")))

    def test_is_a_solver_result(self):
        assert isinstance(RESPONSE_SHAPES["success"], SolverResult)

    def test_equality_ignores_timing(self):
        a = make_response(timing={"solve_seconds": 0.5})
        b = make_response(timing={"solve_seconds": 0.001})
        a.channel_powers = b.channel_powers = {}
        assert a == b


class TestResultShim:
    def test_from_result_wraps_bare_results(self):
        bare = SolverResult(
            allocation={0: frozenset({1})},
            welfare=3.5,
            lp_value=4.0,
            feasible=True,
            guarantee=48.0,
        )
        wrapped = AuctionResponse.from_result(
            bare, scene_id="c" * 16, seed=9, timing={"solve_seconds": 0.01}
        )
        assert wrapped.allocation == bare.allocation
        assert wrapped.scene_id == "c" * 16
        assert wrapped.seed == 9

    def test_from_result_merges_existing_envelope(self):
        response = make_response(channel_powers={})
        merged = AuctionResponse.from_result(
            response, scene_id="ignored", seed=None, timing={"queue_seconds": 0.2}
        )
        assert merged is response
        assert merged.scene_id == "a" * 16  # original envelope wins
        assert merged.timing == {"solve_seconds": 0.012, "queue_seconds": 0.2}

    def test_as_solver_result_shim_is_gone(self):
        """PR 9 deprecated the downcast shim for exactly one cycle; the
        attribute must no longer exist (an AuctionResponse *is* a
        SolverResult — use it directly)."""
        response = make_response(channel_powers={})
        assert not hasattr(response, "as_solver_result")
        assert not hasattr(AuctionResponse, "as_solver_result")
        assert isinstance(response, SolverResult)

    def test_json_string_helpers_are_gone(self):
        """The gateway and client encode with ``json.dumps(to_wire())``
        and decode with ``from_wire(json.loads(...))``; the string
        helpers that only tests called no longer exist."""
        assert not hasattr(AuctionResponse, "to_json")
        assert not hasattr(AuctionResponse, "from_json")


def all_typed_errors():
    """Every public exception type in service/errors.py, plus the pool's."""
    from_module = [
        obj
        for name in errors_module.__all__
        if isinstance(obj := getattr(errors_module, name), type)
        and issubclass(obj, BaseException)
    ]
    return from_module + [WorkerCrashError]


class TestErrorRoundTrip:
    @pytest.mark.parametrize(
        "exc_type", all_typed_errors(), ids=lambda t: t.__name__
    )
    def test_every_errors_type_round_trips_exactly(self, exc_type):
        exc = exc_type("the queue is full (12 waiting)")
        wire = error_to_wire(exc)
        assert wire["status"] == "error"
        decoded = error_from_wire(wire)
        assert type(decoded) is exc_type
        assert str(decoded) == str(exc)

    def test_every_errors_type_is_in_the_code_table(self):
        tabled = {exc_type for exc_type, _ in WIRE_ERROR_CODES.values()}
        for exc_type in all_typed_errors():
            assert exc_type in tabled, f"{exc_type.__name__} has no wire code"

    @pytest.mark.parametrize(
        "exc_type", all_typed_errors(), ids=lambda t: t.__name__
    )
    def test_round_trip_survives_sort_keys(self, exc_type):
        wire = error_to_wire(exc_type("boom"))
        resorted = json.loads(json.dumps(wire, sort_keys=True))
        assert type(error_from_wire(resorted)) is exc_type

    def test_http_status_map_is_pinned(self):
        assert http_status_for("shed") == 503
        assert http_status_for("deadline-exceeded") == 504
        assert http_status_for("worker-crash") == 502
        assert http_status_for("injected-fault") == 500
        assert http_status_for("service-fault") == 500
        assert http_status_for("bad-request") == 400
        assert http_status_for("unknown-scene") == 404
        assert http_status_for("not-found") == 404
        assert http_status_for("internal") == 500
        assert http_status_for("never-heard-of-it") == 500

    def test_subclasses_do_not_collapse_into_their_base(self):
        # ShedError/DeadlineExceeded/InjectedFaultError subclass
        # ServiceFaultError; exact-type matching must keep them distinct
        assert error_to_wire(ShedError("x"))["error_code"] == "shed"
        assert (
            error_to_wire(DeadlineExceeded("x"))["error_code"]
            == "deadline-exceeded"
        )
        assert (
            error_to_wire(InjectedFaultError("x"))["error_code"]
            == "injected-fault"
        )
        assert (
            error_to_wire(ServiceFaultError("x"))["error_code"] == "service-fault"
        )

    def test_untyped_exceptions_become_internal(self):
        wire = error_to_wire(ZeroDivisionError("1/0"))
        assert wire["error_code"] == "internal"
        decoded = error_from_wire(wire)
        assert isinstance(decoded, RuntimeError)

    def test_gateway_codes_reconstruct_callsite_shapes(self):
        unknown = error_from_wire(
            {
                "schema_version": SCHEMA_VERSION,
                "status": "error",
                "error_code": "unknown-scene",
                "message": "no scene deadbeef",
            }
        )
        assert isinstance(unknown, KeyError)
        bad = error_from_wire(
            {
                "schema_version": SCHEMA_VERSION,
                "status": "error",
                "error_code": "bad-request",
                "message": "k must be positive",
            }
        )
        assert isinstance(bad, ValueError)

    def test_unknown_schema_version_rejected(self):
        wire = error_to_wire(ShedError("x"))
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            error_from_wire(wire)
