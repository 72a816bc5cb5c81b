"""Versioned wire schema for the auction service (`schema_version` 2).

This module is the single source of truth for what crosses the network
boundary: the request/response dataclasses shared by the in-process
:class:`~repro.service.AuctionService`, the HTTP gateway
(:mod:`repro.service.gateway`), and the asyncio client
(:mod:`repro.service.client`).  Everything here is plain data with
explicit ``to_wire``/``from_wire`` (dict) forms that the gateway and
client pass through ``json.dumps``/``json.loads``, and every payload
carries ``schema_version`` so a client and server disagreeing about the
schema fail loudly instead of misparsing each other.

Design rules, in decreasing order of importance:

* **Round trips are bit-exact.**  ``from_wire(to_wire(x)) == x``, with
  the dict sent through JSON, for every request, response, and typed
  error — floats survive through ``repr`` (Python's JSON encoder),
  non-finite floats are encoded as the strings
  ``"inf"``/``"-inf"``/``"nan"``, and valuation *bid order* is preserved
  (LP column order follows it; a sorted re-encoding can round a
  degenerate LP to a different, equally optimal allocation).
  Replaying a recorded trace through the gateway therefore yields
  results bit-identical to an in-process replay.
* **Requests are columnar.**  A request's valuations cross as one
  :class:`~repro.valuations.profile.Profile` — four flat JSON arrays
  (``kinds``, ``offsets``, ``masks``, ``values``) under ``"profile"`` —
  and decode straight back into a validated profile, with no per-bidder
  objects on the way.  Only bid-list valuations (XOR, explicit,
  single-minded) have this form; the additive family stays in-process.
* **Key order is load order.**  Nothing here sorts keys; the canonical
  sorted encoder lives in :mod:`repro.io` only.  Decoding is, however,
  insensitive to key order, so payloads re-serialized by a client with
  ``sort_keys=True`` still decode identically (pinned by the wire
  tests).
* **Errors are part of the schema.**  Every typed failure the service
  can resolve a request with (:mod:`repro.service.errors` plus
  :class:`~repro.service.pool.WorkerCrashError`) has a stable
  ``error_code``, maps to a distinct HTTP status, and reconstructs to
  the same exception type on the client — the fault-tolerance contract
  of PR 8 survives the network boundary unchanged.
* **Versioning policy.**  ``schema_version`` is bumped on any change
  that an old decoder would misread (field removal, meaning change);
  purely additive fields keep the version and must be optional on
  decode.  Decoders reject payloads whose version they do not know.

:class:`AuctionResponse` — a :class:`~repro.core.result.SolverResult`
subclass carrying the wire envelope (schema version, scene id, request
seed, per-request timing) — is the canonical result of the service's
``solve_batch``/gateway paths.

Every request also carries an **idempotency key**: a stable string
naming the logical request, derived by :func:`default_idempotency_key`
from ``(scene_id, k, seed, mode, profile)`` unless the caller supplies
its own.  The gateway journals completed responses under this key, so a
request retried after a lost response returns the journaled bytes
instead of re-solving — exactly-once results under at-least-once
delivery (DESIGN.md → "Resilient edge").  The field is additive and
optional on decode.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.result import SolverResult
from repro.service.errors import (
    DeadlineExceeded,
    InjectedFaultError,
    ServiceFaultError,
    ShedError,
)
from repro.service.pool import WorkerCrashError
from repro.valuations.profile import Profile

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.valuations.base import Valuation

__all__ = [
    "SCHEMA_VERSION",
    "WIRE_ERROR_CODES",
    "AuctionRequest",
    "AuctionResponse",
    "default_idempotency_key",
    "request_to_wire",
    "request_from_wire",
    "error_to_wire",
    "error_from_wire",
    "http_status_for",
]

SCHEMA_VERSION = 2


def _check_version(data: dict[str, Any], what: str) -> None:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported {what} schema_version {version!r} "
            f"(this build speaks {SCHEMA_VERSION})"
        )


# ----------------------------------------------------------------------
# floats: exact, JSON-strict
# ----------------------------------------------------------------------
def _encode_float(value: float) -> float | str:
    """A float as strict JSON: finite values pass through (``repr`` round
    trips them exactly), non-finite ones become strings — Python's
    encoder would emit bare ``Infinity``, which other JSON parsers
    reject."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return float(value)


def _decode_float(value: Any) -> float:
    return float(value)  # float("inf"/"-inf"/"nan") parses the sentinels


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass
class AuctionRequest:
    """One request against a registered scene.

    ``mode`` selects the pipeline: ``"allocate"`` runs the approximation
    algorithm (LP + randomized rounding) and resolves to an
    :class:`AuctionResponse`; ``"truthful"`` runs the Section 5
    truthful-in-expectation mechanism — Lavi–Swamy decomposition plus
    scaled fractional VCG payments — and resolves to a
    :class:`~repro.mechanism.truthful.MechanismOutcome` whose
    ``sampled_allocation`` is drawn with this request's ``seed``.

    ``profile_key`` declares that this exact valuation profile may recur
    (license renewals, mechanism re-pricing probes): allocate requests
    sharing ``(scene_id, k, profile_key)`` share one compiled auction and
    one LP solve through the service's problem cache, and truthful
    requests share one *prepared decomposition + payments* through the
    mechanism cache (each request then only pays for sampling).  ``None``
    marks the profile as one-off — nothing is cached beyond the scene's
    compiled structure.  ``seed`` drives the rounding/sampling RNG; fixing
    it makes the request's outcome reproducible bit-for-bit and
    independent of how requests were coalesced.

    ``deadline`` is a latency budget in seconds from submission (queued
    path only; ``None`` = unbounded).  An accepted request whose budget
    expires before dispatch fails typed with
    :class:`~repro.service.errors.DeadlineExceeded`; one whose remaining
    budget cannot fit an LP solve is served by the greedy baseline
    instead, with ``details["degraded"]`` set on the result.  Over the
    gateway the budget arrives in the request body or the
    ``X-Auction-Deadline`` header (the header wins) and is enforced by
    the same server-side EWMA triage.

    ``idempotency_key`` names the *logical* request for the gateway's
    result journal: two submissions carrying the same key are the same
    request, and the second returns the first's journaled response
    byte-identically instead of re-solving.  ``None`` (the default)
    means "derive it" — the gateway falls back to
    :func:`default_idempotency_key`, which is correct whenever the
    request is fully determined by ``(scene, k, seed, mode, profile)``.
    Callers whose requests differ in ways the derivation cannot see
    (same seed + profile, different meaning) must supply their own key.

    ``valuations`` is any sequence of valuations: a plain list (the
    paper API) or a :class:`~repro.valuations.profile.Profile`, the
    columnar form the wire decodes into and the service converts
    bid-list sequences to on submit.
    """

    scene_id: str
    k: int
    valuations: Sequence[Valuation]
    seed: int | None = None
    profile_key: str | None = None
    mode: str = "allocate"
    deadline: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    idempotency_key: str | None = None


def default_idempotency_key(request: AuctionRequest) -> str:
    """The derived idempotency key: a digest of what determines the result.

    Hashes ``(scene_id, k, seed, mode, profile_key)`` — the coordinates
    that pin a request's outcome bit-for-bit (the engine is
    deterministic given scene, valuations, and seed).  When
    ``profile_key`` is ``None`` the valuations are not named by any
    coordinate, so the profile's sha256 over its array bytes
    (:meth:`~repro.valuations.profile.Profile.digest`, bid order
    included) is folded into the digest instead — two distinct one-off
    profiles sharing a seed must not collide.  Deadlines and metadata
    are deliberately excluded: they change *how* the request is served,
    never *what* the result is.
    """
    material: list[Any] = [
        request.scene_id,
        request.k,
        request.seed,
        request.mode,
        request.profile_key,
    ]
    if request.profile_key is None:
        material.append(Profile.of(request.valuations, request.k).digest())
    digest = hashlib.sha256(json.dumps(material).encode("utf-8")).hexdigest()
    return digest[:32]


def request_to_wire(request: AuctionRequest) -> dict[str, Any]:
    """An :class:`AuctionRequest` as a wire dict: the valuations as one
    columnar profile (bid order preserved).  Raises ``TypeError`` for
    valuations without a bid list (the additive family)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "scene_id": request.scene_id,
        "k": request.k,
        "profile": Profile.of(request.valuations, request.k).to_wire(),
        "seed": request.seed,
        "profile_key": request.profile_key,
        "mode": request.mode,
        "deadline": request.deadline,
        "metadata": dict(request.metadata),
        "idempotency_key": request.idempotency_key,
    }


def request_from_wire(data: dict[str, Any]) -> AuctionRequest:
    """Decode a wire dict into a request whose valuations are a validated
    :class:`~repro.valuations.profile.Profile`; rejects unknown schema
    versions and invalid profiles (``ValueError``)."""
    _check_version(data, "request")
    k = int(data["k"])
    return AuctionRequest(
        scene_id=str(data["scene_id"]),
        k=k,
        valuations=Profile.from_wire(k, data["profile"]),
        seed=None if data.get("seed") is None else int(data["seed"]),
        profile_key=data.get("profile_key"),
        mode=str(data.get("mode", "allocate")),
        deadline=(
            None if data.get("deadline") is None else float(data["deadline"])
        ),
        metadata=dict(data.get("metadata") or {}),
        idempotency_key=(
            None
            if data.get("idempotency_key") is None
            else str(data["idempotency_key"])
        ),
    )


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
@dataclass
class AuctionResponse(SolverResult):
    """The canonical result of the service's allocate paths.

    A :class:`~repro.core.result.SolverResult` (so every existing caller
    keeps working unchanged) extended with the wire envelope: the schema
    version, which scene and seed produced it, and per-request timing.
    ``timing`` is excluded from equality — two runs of the same request
    are *the same result* even though their latencies differ — which is
    what lets the chaos runner compare gateway results against an
    in-process replay with ``==`` semantics on the payload fields.
    """

    schema_version: int = SCHEMA_VERSION
    scene_id: str | None = None
    seed: int | None = None
    timing: dict[str, float] = field(default_factory=dict, compare=False)

    @classmethod
    def from_result(
        cls,
        result: SolverResult,
        *,
        scene_id: str | None = None,
        seed: int | None = None,
        timing: dict[str, float] | None = None,
    ) -> "AuctionResponse":
        """Wrap a bare :class:`SolverResult` into the wire envelope."""
        if isinstance(result, AuctionResponse):
            merged = dict(result.timing)
            merged.update(timing or {})
            result.scene_id = result.scene_id or scene_id
            result.seed = result.seed if result.seed is not None else seed
            result.timing = merged
            return result
        return cls(
            allocation=result.allocation,
            welfare=result.welfare,
            lp_value=result.lp_value,
            feasible=result.feasible,
            guarantee=result.guarantee,
            rounds_algorithm3=result.rounds_algorithm3,
            lp_iterations=result.lp_iterations,
            channel_powers=result.channel_powers,
            sinr_feasible=result.sinr_feasible,
            details=result.details,
            scene_id=scene_id,
            seed=seed,
            timing=dict(timing or {}),
        )

    # ------------------------------------------------------------------
    # wire forms
    # ------------------------------------------------------------------
    def to_wire(self) -> dict[str, Any]:
        """This response as a JSON-native dict (``status: "ok"``).

        The allocation is encoded vertex-sorted — dict equality is
        order-insensitive, so the round trip stays exact while the
        encoding stays deterministic.
        """
        return {
            "schema_version": self.schema_version,
            "status": "ok",
            "scene_id": self.scene_id,
            "seed": self.seed,
            "allocation": [
                [v, sorted(bundle)] for v, bundle in sorted(self.allocation.items())
            ],
            "welfare": _encode_float(self.welfare),
            "lp_value": _encode_float(self.lp_value),
            "feasible": bool(self.feasible),
            "guarantee": _encode_float(self.guarantee),
            "rounds_algorithm3": int(self.rounds_algorithm3),
            "lp_iterations": int(self.lp_iterations),
            "channel_powers": {
                str(ch): [_encode_float(float(p)) for p in powers]
                for ch, powers in self.channel_powers.items()
            },
            "sinr_feasible": self.sinr_feasible,
            "details": dict(self.details),
            "timing": {name: float(t) for name, t in self.timing.items()},
        }

    @classmethod
    def from_wire(cls, data: dict[str, Any]) -> "AuctionResponse":
        """Decode a wire dict; rejects unknown schema versions."""
        _check_version(data, "response")
        if data.get("status") != "ok":
            raise ValueError(
                f"not a success response (status {data.get('status')!r}); "
                "use error_from_wire for error payloads"
            )
        return cls(
            allocation={
                int(v): frozenset(int(c) for c in bundle)
                for v, bundle in data["allocation"]
            },
            welfare=_decode_float(data["welfare"]),
            lp_value=_decode_float(data["lp_value"]),
            feasible=bool(data["feasible"]),
            guarantee=_decode_float(data["guarantee"]),
            rounds_algorithm3=int(data.get("rounds_algorithm3", 0)),
            lp_iterations=int(data.get("lp_iterations", 1)),
            channel_powers={
                int(ch): np.array([_decode_float(p) for p in powers])
                for ch, powers in (data.get("channel_powers") or {}).items()
            },
            sinr_feasible=data.get("sinr_feasible"),
            details=dict(data.get("details") or {}),
            scene_id=data.get("scene_id"),
            seed=None if data.get("seed") is None else int(data["seed"]),
            timing=dict(data.get("timing") or {}),
        )


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
# code -> (exception type, HTTP status); order matters for encoding —
# the first entry whose type matches exactly (then first subclass match)
# names the code, so subclasses never collapse into their base
WIRE_ERROR_CODES: dict[str, tuple[type[Exception], int]] = {
    "shed": (ShedError, 503),
    "deadline-exceeded": (DeadlineExceeded, 504),
    "injected-fault": (InjectedFaultError, 500),
    "worker-crash": (WorkerCrashError, 502),
    "service-fault": (ServiceFaultError, 500),
}

# request-shaped failures the gateway raises before anything is accepted
_GATEWAY_CODES: dict[str, int] = {
    "bad-request": 400,
    "unknown-scene": 404,
    "not-found": 404,
    "payload-too-large": 413,
    "header-too-large": 431,
    "internal": 500,
}


def error_to_wire(exc: BaseException) -> dict[str, Any]:
    """A typed failure as a wire dict (``status: "error"``).

    Exceptions outside the typed hierarchy encode as ``"internal"`` —
    they still cross the wire, but the code marks them as a bug rather
    than a serving fault, mirroring the chaos runner's
    ``typed_failures_only`` invariant.
    """
    code = "internal"
    for name, (exc_type, _) in WIRE_ERROR_CODES.items():
        if type(exc) is exc_type:
            code = name
            break
    else:
        for name, (exc_type, _) in WIRE_ERROR_CODES.items():
            if isinstance(exc, exc_type):
                code = name
                break
    return {
        "schema_version": SCHEMA_VERSION,
        "status": "error",
        "error_code": code,
        "message": str(exc),
    }


def error_from_wire(data: dict[str, Any]) -> Exception:
    """Reconstruct the typed exception an error payload describes.

    Codes from :data:`WIRE_ERROR_CODES` round-trip to their exact
    exception type; gateway-level codes (bad request, unknown scene)
    and unknown codes come back as :class:`ValueError`/:class:`KeyError`
    shaped to what the in-process API would have raised.
    """
    _check_version(data, "error")
    code = str(data.get("error_code", "internal"))
    message = str(data.get("message", ""))
    entry = WIRE_ERROR_CODES.get(code)
    if entry is not None:
        return entry[0](message)
    if code == "unknown-scene":
        return KeyError(message)
    if code in ("bad-request", "payload-too-large", "header-too-large"):
        return ValueError(message)
    return RuntimeError(f"[{code}] {message}")


def http_status_for(code: str) -> int:
    """The HTTP status a wire ``error_code`` maps to (500 if unknown)."""
    entry = WIRE_ERROR_CODES.get(code)
    if entry is not None:
        return entry[1]
    return _GATEWAY_CODES.get(code, 500)
