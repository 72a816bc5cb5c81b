"""Array-backed bid profiles: one auction's valuations as flat arrays.

In the paper each bidder reports a list of bids — bundles ``T ⊆ [k]``
with values — and the columns of LP (1) are exactly those bids under the
free-disposal closure.  A :class:`Profile` stores a whole profile of such
bidders columnar, with bid order preserved:

* ``offsets`` (int64, ``n + 1``) — bidder ``v``'s bids are
  ``offsets[v]:offsets[v + 1]``;
* ``kinds`` (int8, ``n``) — :data:`KIND_XOR` (free-disposal XOR bids),
  :data:`KIND_EXPLICIT` (the raw ``b_{v,T}`` table) or
  :data:`KIND_SINGLE_MINDED` (one XOR bid);
* ``masks`` (int64) — each bid's bundle as a channel bitmask (bit ``j``
  set when channel ``j`` is in the bundle; never 0);
* ``values`` (float64) — each bid's value (finite, non-negative).

This is what crosses every serving boundary — the v2 wire schema, the
idempotency digest, the process-pool pickle — and what the engine
enumerates LP columns from, without building one Python object per
bidder.  A profile is an immutable ``Sequence[Valuation]``: indexing it
materializes the paper's :class:`~repro.valuations.explicit.XORValuation`
/ :class:`~repro.valuations.explicit.ExplicitValuation` /
:class:`~repro.valuations.explicit.SingleMindedValuation` on first use
(cached, never pickled), so every paper-facing algorithm keeps working
on it unchanged.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.valuations.base import Valuation
from repro.valuations.explicit import (
    MASK_CHANNELS,
    ExplicitValuation,
    SingleMindedValuation,
    XORValuation,
)

__all__ = [
    "Profile",
    "KIND_XOR",
    "KIND_EXPLICIT",
    "KIND_SINGLE_MINDED",
    "as_profile",
    "bundles_of",
]

KIND_XOR = 0
KIND_EXPLICIT = 1
KIND_SINGLE_MINDED = 2
_KIND_OF_TYPE: dict[type, int] = {
    XORValuation: KIND_XOR,
    ExplicitValuation: KIND_EXPLICIT,
    SingleMindedValuation: KIND_SINGLE_MINDED,
}
# bundle frozensets come from a 2^k table up to this k, built per-mask above
_TABLE_MAX_K = 12


def _bundle_of(mask: int, k: int) -> frozenset[int]:
    return frozenset(j for j in range(k) if mask >> j & 1)


@functools.lru_cache(maxsize=None)
def _bundle_table(k: int) -> tuple[frozenset[int], ...]:
    return tuple(_bundle_of(m, k) for m in range(1 << k))


def bundles_of(masks: np.ndarray, k: int) -> list[frozenset[int]]:
    """The bundle frozenset of every mask, in order.

    Small ``k`` indexes one shared table of all ``2^k`` bundles (frozensets
    are immutable, so every profile can share them); larger ``k`` builds
    each distinct mask's bundle once.
    """
    if k <= _TABLE_MAX_K:
        table = _bundle_table(k)
        return [table[m] for m in masks.tolist()]
    built: dict[int, frozenset[int]] = {}
    out = []
    for m in masks.tolist():
        bundle = built.get(m)
        if bundle is None:
            bundle = built[m] = _bundle_of(m, k)
        out.append(bundle)
    return out


def as_profile(valuations: Sequence[Valuation], k: int) -> Profile | None:
    """``valuations`` as a ``k``-channel :class:`Profile` — itself if it
    is one, packed with :meth:`Profile.of` if every valuation is a
    bid-list valuation of ``k`` channels — or ``None`` when some bidder
    has no bid list (the additive family, custom subclasses)."""
    if isinstance(valuations, Profile):
        return valuations if valuations.k == k else None
    if k <= MASK_CHANNELS and all(
        type(v) in _KIND_OF_TYPE and v.k == k for v in valuations
    ):
        return Profile.of(valuations, k)
    return None


def _frozen(array: np.ndarray, dtype: Any) -> np.ndarray:
    """A read-only view (converted first if the dtype differs)."""
    out = np.ascontiguousarray(array, dtype=dtype).view()
    out.flags.writeable = False
    return out


def _integers(data: Any, what: str) -> np.ndarray:
    """A JSON list of integers as int64; anything else is a ValueError."""
    array = np.asarray(data)
    if array.ndim != 1:
        raise ValueError(f"profile {what} must be a flat list")
    if array.size == 0:
        return np.zeros(0, dtype=np.int64)
    if array.dtype.kind not in "iu":
        raise ValueError(f"profile {what} must be integers, got {array.dtype}")
    return array.astype(np.int64)


class Profile(Sequence[Valuation]):
    """One auction's bid-list valuations as flat arrays (see module doc).

    Construct with :meth:`of` (from valuation objects) or
    :meth:`from_wire` (from the v2 request layout, validated); the
    constructor itself trusts its arrays.
    """

    __slots__ = (
        "k",
        "offsets",
        "kinds",
        "masks",
        "values",
        "_valuations",
        "_columns",
        "_lists",
        "_digest",
    )

    def __init__(
        self,
        k: int,
        offsets: np.ndarray,
        kinds: np.ndarray,
        masks: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.k = int(k)
        self.offsets = _frozen(offsets, np.int64)
        self.kinds = _frozen(kinds, np.int8)
        self.masks = _frozen(masks, np.int64)
        self.values = _frozen(values, np.float64)
        # derived state, rebuilt on demand and never pickled
        self._valuations: list[Valuation | None] = [None] * (self.offsets.size - 1)
        self._columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._lists: tuple[list[int], list[int], list[int], list[float]] | None = None
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, valuations: Iterable[Valuation], k: int | None = None) -> Profile:
        """The profile of bid-list valuations (a :class:`Profile` passes
        through), concatenating each valuation's cached bid arrays.

        Raises ``TypeError`` for any valuation that is not exactly an
        :class:`XORValuation`, :class:`ExplicitValuation` or
        :class:`SingleMindedValuation` (the additive family has no bid
        list), and ``ValueError`` when channel counts disagree with ``k``
        (default: the first valuation's).
        """
        if isinstance(valuations, Profile):
            if k is not None and valuations.k != k:
                raise ValueError(f"profile has k={valuations.k}, expected k={k}")
            return valuations
        vals = list(valuations)
        if k is None:
            if not vals:
                raise ValueError("an empty profile needs an explicit k")
            k = vals[0].k
        kinds = np.empty(len(vals), dtype=np.int8)
        counts = np.empty(len(vals), dtype=np.int64)
        mask_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        for v, valuation in enumerate(vals):
            kind = _KIND_OF_TYPE.get(type(valuation))
            if kind is None:
                raise TypeError(
                    f"valuation {v} is a {type(valuation).__name__}; profiles "
                    "hold bid-list valuations only (XOR, explicit, single-minded)"
                )
            if valuation.k != k:
                raise ValueError(f"valuation {v} has k={valuation.k}, expected k={k}")
            if valuation._bid_arrays is None:  # type: ignore[attr-defined]
                raise ValueError(f"profiles hold at most {MASK_CHANNELS} channels, got k={k}")
            masks, values = valuation._bid_arrays  # type: ignore[attr-defined]
            kinds[v] = kind
            counts[v] = masks.size
            mask_parts.append(masks)
            value_parts.append(values)
        offsets = np.zeros(len(vals) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if mask_parts:
            return cls(
                k, offsets, kinds, np.concatenate(mask_parts), np.concatenate(value_parts)
            )
        return cls(k, offsets, kinds, np.zeros(0, np.int64), np.zeros(0))

    @classmethod
    def from_wire(cls, k: int, data: dict[str, Any]) -> Profile:
        """Decode and validate the v2 wire layout (``ValueError`` if invalid).

        Beyond shape and type checks this rejects what the paper's input
        cannot contain: non-finite or negative values, masks naming a
        channel ``≥ k``, a nonzero value on the empty bundle, a bundle
        listed twice by one bidder, and a single-minded bidder without
        exactly one bid.  Zero-valued empty-bundle bids carry no
        information and are dropped, as the valuation classes drop them.
        """
        if not 1 <= k <= MASK_CHANNELS:
            raise ValueError(f"k must be in [1, {MASK_CHANNELS}], got {k}")
        offsets = _integers(data["offsets"], "offsets")
        kinds = _integers(data["kinds"], "kinds")
        masks = _integers(data["masks"], "masks")
        values = np.asarray(data["values"])
        if values.ndim != 1 or (values.size and values.dtype.kind not in "iuf"):
            raise ValueError("profile values must be a flat list of numbers")
        values = values.astype(np.float64)
        n = kinds.size
        if offsets.size != n + 1 or offsets[0] != 0:
            raise ValueError(f"profile offsets must be n + 1 = {n + 1} entries from 0")
        if np.any(np.diff(offsets) < 0) or offsets[-1] != masks.size:
            raise ValueError("profile offsets must be non-decreasing and end at len(masks)")
        if values.size != masks.size:
            raise ValueError("profile masks and values differ in length")
        if np.any((kinds < KIND_XOR) | (kinds > KIND_SINGLE_MINDED)):
            raise ValueError("profile kinds must be 0 (xor), 1 (explicit), 2 (single-minded)")
        if not np.all(np.isfinite(values)):
            raise ValueError("bid values must be finite")
        if np.any(values < 0):
            raise ValueError("bid values must be non-negative")
        if np.any((masks < 0) | (masks >= 1 << k)):
            raise ValueError(f"bid masks must be in [0, 2^k) for k={k}")
        empty = masks == 0
        if np.any(empty & (values != 0)):
            raise ValueError("the empty bundle must have value 0")
        if np.any(empty):
            owner = np.repeat(np.arange(n), np.diff(offsets))
            kept = np.bincount(owner[~empty], minlength=n)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(kept, out=offsets[1:])
            masks, values = masks[~empty], values[~empty]
        counts = np.diff(offsets)
        if np.any(counts[kinds == KIND_SINGLE_MINDED] != 1):
            raise ValueError("a single-minded bidder must bid on exactly one non-empty bundle")
        owner = np.repeat(np.arange(n), counts)
        order = np.lexsort((masks, owner))
        same = (np.diff(owner[order]) == 0) & (np.diff(masks[order]) == 0)
        if np.any(same):
            raise ValueError("a bidder lists the same bundle twice")
        return cls(k, offsets, kinds, masks, values)

    def to_wire(self) -> dict[str, list[Any]]:
        """The v2 wire layout: four JSON arrays (bid order preserved)."""
        return {
            "kinds": self.kinds.tolist(),
            "offsets": self.offsets.tolist(),
            "masks": self.masks.tolist(),
            "values": self.values.tolist(),
        }

    # ------------------------------------------------------------------
    # pickling: the arrays only, never the derived caches
    # ------------------------------------------------------------------
    def __reduce__(self) -> tuple[Any, ...]:
        return (Profile, (self.k, self.offsets, self.kinds, self.masks, self.values))

    # ------------------------------------------------------------------
    # Sequence[Valuation]
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, index: int) -> Valuation:  # type: ignore[override]
        v = range(len(self))[index]  # IndexError / negative indices like a list
        valuation = self._valuations[v]
        if valuation is None:
            valuation = self._valuations[v] = self._materialize(v)
        return valuation

    def _materialize(self, v: int) -> Valuation:
        lo, hi = int(self.offsets[v]), int(self.offsets[v + 1])
        bundles = bundles_of(self.masks[lo:hi], self.k)
        values = self.values[lo:hi].tolist()
        kind = int(self.kinds[v])
        if kind == KIND_SINGLE_MINDED:
            return SingleMindedValuation(self.k, bundles[0], values[0])
        cls = XORValuation if kind == KIND_XOR else ExplicitValuation
        return cls(self.k, dict(zip(bundles, values)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            self.k == other.k
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.kinds, other.kinds)
            and np.array_equal(self.masks, other.masks)
            and self.values.tobytes() == other.values.tobytes()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Profile(k={self.k}, bidders={len(self)}, bids={self.masks.size})"

    # ------------------------------------------------------------------
    # the engine's and the service's views
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """sha256 over the array bytes (fixed little-endian dtypes): equal
        profiles — and only those, bit for bit — share a digest."""
        if self._digest is None:
            h = hashlib.sha256(b"repro-profile")
            h.update(np.array([self.k, len(self), self.masks.size], "<i8").tobytes())
            h.update(self.kinds.astype("<i1").tobytes())
            h.update(self.offsets.astype("<i8").tobytes())
            h.update(self.masks.astype("<i8").tobytes())
            h.update(self.values.astype("<f8").tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def column_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The default LP columns as ``(vertex, value, mask)`` arrays.

        The same columns in the same order as enumerating each bidder's
        :meth:`~repro.valuations.base.Valuation.support_items`: every bid
        in bid order, valued at ``value(T)``, kept when that is positive.
        For XOR-style bidders ``value(T)`` is the best bid contained in
        ``T`` (free disposal), computed here for all bidders at once over
        each bidder's bid pairs; explicit bids are their own value.
        """
        if self._columns is None:
            counts = np.diff(self.offsets)
            m = self.masks.size
            owner = np.repeat(np.arange(len(self)), counts)
            xor_style = self.kinds[owner] != KIND_EXPLICIT
            # bid a is compared against every bid b of its bidder (XOR) or
            # only itself (explicit): pair block a spans per[a] entries
            per = np.where(xor_style, counts[owner], 1)
            first = np.where(xor_style, self.offsets[:-1][owner], np.arange(m))
            block = np.zeros(m, dtype=np.int64)
            np.cumsum(per[:-1], out=block[1:])
            a = np.repeat(np.arange(m), per)
            b = first[a] + np.arange(int(per.sum())) - block[a]
            contained = (self.masks[a] & self.masks[b]) == self.masks[b]
            candidates = np.where(contained, self.values[b], -np.inf)
            closure = (
                np.maximum.reduceat(candidates, block) if m else np.zeros(0)
            )
            keep = closure > 0
            self._columns = (
                owner[keep].astype(np.intp),
                closure[keep],
                self.masks[keep],
            )
        return self._columns

    def value(self, v: int, bundle: Iterable[int]) -> float:
        """``b_v(bundle)`` straight from the arrays — equal to
        ``self[v].value(bundle)`` without materializing the valuation."""
        mask = 0
        for j in bundle:
            if not 0 <= j < self.k:
                raise ValueError(f"bundle {sorted(bundle)} out of range for k={self.k}")
            mask |= 1 << j
        if self._lists is None:
            self._lists = (
                self.offsets.tolist(),
                self.kinds.tolist(),
                self.masks.tolist(),
                self.values.tolist(),
            )
        offsets, kinds, masks, values = self._lists
        lo, hi = offsets[v], offsets[v + 1]
        if kinds[v] == KIND_EXPLICIT:
            for i in range(lo, hi):
                if masks[i] == mask:
                    return values[i]
            return 0.0
        return max(
            (values[i] for i in range(lo, hi) if masks[i] & mask == masks[i]),
            default=0.0,
        )
