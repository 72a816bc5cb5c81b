"""Columnar bid profiles: parity with the per-valuation objects.

A :class:`~repro.valuations.profile.Profile` is what the wire, the
idempotency digest, the pool pickle and the engine's column enumeration
run on, while the paper's valuation objects stay the in-process API.
These tests pin that the two are the same auction: the same LP columns
bit for bit (free-disposal lifts of nested XOR bids, non-monotone
explicit tables, single-minded and zero-valued bids included), the same
materialized valuations, exact pickle and wire round trips, and a
digest that names the profile bit for bit.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.auction import AuctionProblem
from repro.core.auction_lp import Column, iter_default_columns
from repro.engine.compiled import CompiledAuction
from repro.graphs.conflict_graph import ConflictGraph, VertexOrdering
from repro.interference.base import ConflictStructure
from repro.service.wire import AuctionRequest, request_from_wire, request_to_wire
from repro.valuations.additive import AdditiveValuation
from repro.valuations.base import enumerate_bundles
from repro.valuations.explicit import (
    ExplicitValuation,
    SingleMindedValuation,
    XORValuation,
)
from repro.valuations.profile import KIND_EXPLICIT, Profile, as_profile, bundles_of

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# a few exact repeats so ties and zero-valued bids are common
VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 7.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


def bundles(k):
    return st.frozensets(st.integers(0, k - 1), min_size=1, max_size=k)


@st.composite
def valuation(draw, k):
    kind = draw(st.sampled_from(["xor", "explicit", "single"]))
    if kind == "single":
        return SingleMindedValuation(k, draw(bundles(k)), draw(VALUES))
    bids = draw(st.dictionaries(bundles(k), VALUES, max_size=6))
    return (XORValuation if kind == "xor" else ExplicitValuation)(k, bids)


@st.composite
def profiles(draw, max_n=8, ks=(1, 2, 3, 4, 6)):
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(0, max_n))
    return k, [draw(valuation(k)) for _ in range(n)]


def per_valuation_columns(valuations, k):
    """The per-bidder reference enumeration: every valuation's
    ``support_items`` (``value(T)`` per bid, in bid order), positive
    values kept — ``iter_default_columns`` over a list of objects."""
    problem = AuctionProblem(line_structure(len(valuations)), k, valuations)
    columns = list(iter_default_columns(problem))
    return (
        [v for v, _, _ in columns],
        [b for _, b, _ in columns],
        [x for _, _, x in columns],
    )


def line_structure(n):
    graph = ConflictGraph(n, [(v, v + 1) for v in range(n - 1)])
    return ConflictStructure(graph, VertexOrdering(list(range(n))), rho=1.0)


class TestColumnParity:
    @SETTINGS
    @given(profiles(ks=(1, 2, 3, 4, 6, 13)))
    def test_columns_bit_equal_to_per_valuation_enumeration(self, drawn):
        k, valuations = drawn
        profile = Profile.of(valuations, k)
        vertex, value, masks = profile.column_arrays()
        ref_vertex, ref_bundles, ref_values = per_valuation_columns(valuations, k)
        assert vertex.tolist() == ref_vertex
        assert bundles_of(masks, k) == ref_bundles
        # bit-equal values: compare the raw float64 bytes
        assert value.tobytes() == np.asarray(ref_values, dtype=float).tobytes()
        # sizes and channels: the engine's incidence arrays, list vs profile
        structure = line_structure(len(valuations))
        listed = CompiledAuction._arrays_from_lists(ref_vertex, ref_values, ref_bundles, k)
        columnar = CompiledAuction(AuctionProblem(structure, k, profile)).cols
        for name in ("vertex", "value", "ch_flat", "ch_off", "ch_counts", "chan_mask"):
            x, y = getattr(listed, name), getattr(columnar, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    @SETTINGS
    @given(profiles(max_n=6), st.integers(0, 2**31 - 1))
    def test_solve_bit_identical_to_reference_columns(self, drawn, seed):
        """Solving from the profile equals solving the reference columns
        of the valuation objects, and a list of bid-list valuations takes
        the profile path itself."""
        k, valuations = drawn
        if not valuations:
            return
        structure = line_structure(len(valuations))
        listed = AuctionProblem(structure, k, valuations)
        reference = CompiledAuction(
            listed, columns=[Column(*c) for c in iter_default_columns(listed)]
        )
        columnar = CompiledAuction(AuctionProblem(structure, k, Profile.of(valuations)))
        for compiled in (columnar, CompiledAuction(listed)):
            a, b = reference.cols, compiled.cols
            for name in ("vertex", "value", "ch_flat", "ch_off", "ch_counts", "chan_mask"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
            assert a.bundles == b.bundles
            got, expected = compiled.solve(seed=seed), reference.solve(seed=seed)
            assert got.allocation == expected.allocation
            assert got.welfare == expected.welfare
            assert got.lp_value == expected.lp_value

    def test_nested_xor_bids_are_lifted_by_free_disposal(self):
        # {0,1} is worth at least the better of its sub-bids {0} and {1}
        val = XORValuation(3, {
            frozenset({0, 1}): 2.0, frozenset({0}): 5.0, frozenset({1}): 1.0,
        })
        vertex, value, masks = Profile.of([val]).column_arrays()
        assert masks.tolist() == [0b011, 0b001, 0b010]
        assert value.tolist() == [5.0, 5.0, 1.0]

    def test_zero_valued_bids_stay_in_the_profile_but_not_the_columns(self):
        val = ExplicitValuation(2, {frozenset({0}): 0.0, frozenset({1}): 3.0})
        profile = Profile.of([val])
        assert profile.masks.tolist() == [1, 2]
        assert profile.column_arrays()[2].tolist() == [2]


class TestMaterialization:
    @SETTINGS
    @given(profiles(max_n=5, ks=(1, 2, 3, 4)), st.integers(0, 2**31 - 1))
    def test_materialized_valuations_equal_the_originals(self, drawn, seed):
        k, valuations = drawn
        profile = Profile.of(valuations, k)
        assert len(profile) == len(valuations)
        prices = np.random.default_rng(seed).uniform(-1.0, 10.0, size=(4, k))
        for original, got in zip(valuations, profile):
            assert type(got) is type(original)
            assert list(got.bids.items()) == list(original.bids.items())
            for bundle in enumerate_bundles(k):
                assert got.value(bundle) == original.value(bundle)
            for p in prices:
                assert got.demand(p) == original.demand(p)
        for v, original in enumerate(valuations):
            for bundle in enumerate_bundles(k):
                assert profile.value(v, bundle) == original.value(bundle)

    def test_indexing_is_cached_and_list_like(self):
        vals = [XORValuation(2, {frozenset({0}): 1.0}), SingleMindedValuation(
            2, frozenset({0, 1}), 4.0
        )]
        profile = Profile.of(vals)
        assert profile[1] is profile[1]
        assert profile[-1] is profile[1]
        with pytest.raises(IndexError):
            profile[2]

    @SETTINGS
    @given(profiles(max_n=6, ks=(2, 3, 4)), st.integers(0, 2**31 - 1))
    def test_welfare_is_bit_identical(self, drawn, seed):
        k, valuations = drawn
        if not valuations:
            return
        rng = np.random.default_rng(seed)
        allocation = {
            v: frozenset(int(j) for j in np.flatnonzero(rng.random(k) < 0.5))
            for v in range(len(valuations))
            if rng.random() < 0.7
        }
        structure = line_structure(len(valuations))
        listed = AuctionProblem(structure, k, valuations)
        columnar = AuctionProblem(structure, k, Profile.of(valuations))
        assert columnar.welfare(allocation) == listed.welfare(allocation)


class TestRoundTrips:
    @SETTINGS
    @given(profiles())
    def test_pickle_round_trip_is_exact_and_ships_arrays_only(self, drawn):
        k, valuations = drawn
        profile = Profile.of(valuations, k)
        before = pickle.dumps(profile)
        list(profile)  # materialize every valuation
        profile.column_arrays()
        assert pickle.dumps(profile) == before  # caches are never pickled
        clone = pickle.loads(before)
        assert clone == profile
        assert clone.digest() == profile.digest()
        assert not clone.masks.flags.writeable

    @SETTINGS
    @given(profiles(), st.integers(0, 2**31 - 1))
    def test_wire_round_trip_is_exact(self, drawn, seed):
        k, valuations = drawn
        request = AuctionRequest("a" * 16, k, valuations, seed=seed)
        payload = json.dumps(request_to_wire(request))
        decoded = request_from_wire(json.loads(payload))
        profile = Profile.of(valuations, k)
        assert decoded.valuations == profile
        assert decoded.valuations.values.tobytes() == profile.values.tobytes()
        assert decoded.valuations.digest() == profile.digest()
        assert json.dumps(request_to_wire(decoded)) == payload


class TestDigest:
    def base(self):
        return [
            XORValuation(3, {frozenset({0, 2}): 5.0, frozenset({1}): 3.5}),
            ExplicitValuation(3, {frozenset({1, 2}): 7.0}),
        ]

    def test_one_bid_apart_never_collides(self):
        reference = Profile.of(self.base()).digest()
        variants = [
            # one ulp on one value
            [XORValuation(3, {frozenset({0, 2}): np.nextafter(5.0, 6.0),
                              frozenset({1}): 3.5}), self.base()[1]],
            # one channel on one bundle
            [XORValuation(3, {frozenset({0, 1}): 5.0, frozenset({1}): 3.5}),
             self.base()[1]],
            # same bids, other kind
            [ExplicitValuation(3, dict(self.base()[0].bids)), self.base()[1]],
            # same bids, other order
            [XORValuation(3, {frozenset({1}): 3.5, frozenset({0, 2}): 5.0}),
             self.base()[1]],
            # one bid moved to the next bidder
            [XORValuation(3, {frozenset({0, 2}): 5.0}),
             ExplicitValuation(3, {frozenset({1}): 3.5, frozenset({1, 2}): 7.0})],
        ]
        digests = {Profile.of(v).digest() for v in variants}
        assert reference not in digests
        assert len(digests) == len(variants)

    def test_stable_across_instances(self):
        assert Profile.of(self.base()).digest() == Profile.of(self.base()).digest()


class TestValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cls", [XORValuation, ExplicitValuation])
    def test_valuations_reject_non_finite_bids(self, cls, bad):
        with pytest.raises(ValueError, match="finite"):
            cls(3, {frozenset({0}): 1.0, frozenset({1}): bad})

    def test_single_minded_rejects_non_finite_value(self):
        with pytest.raises(ValueError, match="finite"):
            SingleMindedValuation(3, frozenset({0}), float("inf"))

    def test_additive_family_has_no_profile(self):
        additive = AdditiveValuation(np.ones(3))
        assert as_profile([additive], 3) is None
        with pytest.raises(TypeError, match="bid-list"):
            Profile.of([additive])

    def test_subclasses_are_not_bid_lists(self):
        class Custom(XORValuation):
            pass

        custom = Custom(2, {frozenset({0}): 1.0})
        assert as_profile([custom], 2) is None
        with pytest.raises(TypeError):
            Profile.of([custom])

    def test_channel_count_must_agree(self):
        vals = [XORValuation(2, {frozenset({0}): 1.0})]
        with pytest.raises(ValueError, match="k=2"):
            Profile.of(vals, 3)
        with pytest.raises(ValueError):
            AuctionProblem(line_structure(1), 3, Profile.of(vals))
        with pytest.raises(ValueError, match="explicit k"):
            Profile.of([])
        assert len(Profile.of([], 4)) == 0
        packed = as_profile(vals, 2)
        assert packed == Profile.of(vals) and as_profile(packed, 2) is packed
        assert as_profile(vals, 3) is None and as_profile(packed, 3) is None

    def test_arrays_are_read_only(self):
        profile = Profile.of([ExplicitValuation(2, {frozenset({1}): 2.0})])
        assert profile.kinds.tolist() == [KIND_EXPLICIT]
        with pytest.raises(ValueError):
            profile.values[0] = 3.0
