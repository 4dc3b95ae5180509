"""Unit and property-based tests for the ternary cube algebra."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import io as repro_io
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.policy.ternary import PackedMatches, TernaryMatch, concat_matches
from repro.service.protocol import (
    DeltaRequest,
    SolveRequest,
    VerifyRequest,
    decode_request,
    encode_request,
)

WIDTH = 8

#: Widths at the 64-bit limb edges, the 104-bit 5-tuple, and the ends.
EDGE_WIDTHS = (0, 1, 63, 64, 65, 104, 127, 128, 129, 300)


def cubes(width: int = WIDTH):
    """Hypothesis strategy for canonical cubes of a given width."""
    return st.builds(
        lambda mask, raw: TernaryMatch(width, mask, raw & mask),
        st.integers(0, (1 << width) - 1),
        st.integers(0, (1 << width) - 1),
    )


def headers(width: int = WIDTH):
    return st.integers(0, (1 << width) - 1)


class TestConstruction:
    def test_from_string_roundtrip(self):
        for pattern in ("01*1", "****", "0000", "1111", "1*0*"):
            assert TernaryMatch.from_string(pattern).to_string() == pattern

    def test_from_string_msb_first(self):
        cube = TernaryMatch.from_string("10**")
        assert cube.matches(0b1000)
        assert cube.matches(0b1011)
        assert not cube.matches(0b0000)
        assert not cube.matches(0b1100)

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            TernaryMatch.from_string("01x")

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            TernaryMatch(4, 0b0011, 0b0100)

    def test_mask_outside_width_rejected(self):
        with pytest.raises(ValueError):
            TernaryMatch(4, 0b10000, 0)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            TernaryMatch(-1, 0, 0)

    def test_wildcard_matches_everything(self):
        cube = TernaryMatch.wildcard(4)
        assert all(cube.matches(h) for h in range(16))
        assert cube.is_full()

    def test_exact_is_singleton(self):
        cube = TernaryMatch.exact(4, 0b1010)
        assert cube.is_singleton()
        assert cube.cardinality() == 1
        assert [h for h in range(16) if cube.matches(h)] == [0b1010]

    def test_exact_rejects_wide_header(self):
        with pytest.raises(ValueError):
            TernaryMatch.exact(4, 0b10000)

    def test_from_prefix(self):
        cube = TernaryMatch.from_prefix(8, 0b10100000, 3)
        assert cube.to_string() == "101*****"
        assert TernaryMatch.from_prefix(8, 0xFF, 0).is_full()

    def test_from_prefix_bad_length(self):
        with pytest.raises(ValueError):
            TernaryMatch.from_prefix(8, 0, 9)

    def test_cardinality(self):
        assert TernaryMatch.from_string("0**1").cardinality() == 4
        assert TernaryMatch.wildcard(5).cardinality() == 32


class TestSetAlgebra:
    def test_disjoint_on_conflicting_care_bit(self):
        a = TernaryMatch.from_string("1***")
        b = TernaryMatch.from_string("0***")
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_intersection_is_conjunction(self):
        a = TernaryMatch.from_string("1**0")
        b = TernaryMatch.from_string("1*1*")
        inter = a.intersection(b)
        assert inter is not None
        assert inter.to_string() == "1*10"

    def test_subset_reflexive_and_antisymmetric(self):
        a = TernaryMatch.from_string("1*10")
        b = TernaryMatch.from_string("1***")
        assert a.is_subset(a)
        assert a.is_subset(b)
        assert not b.is_subset(a)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            TernaryMatch.wildcard(4).intersects(TernaryMatch.wildcard(5))

    @given(cubes(), cubes())
    def test_intersects_agrees_with_enumeration(self, a, b):
        expected = bool(set(a.enumerate()) & set(b.enumerate()))
        assert a.intersects(b) == expected

    @given(cubes(), cubes())
    def test_intersection_agrees_with_enumeration(self, a, b):
        inter = a.intersection(b)
        expected = set(a.enumerate()) & set(b.enumerate())
        if inter is None:
            assert not expected
        else:
            assert set(inter.enumerate()) == expected

    @given(cubes(), cubes())
    def test_subset_agrees_with_enumeration(self, a, b):
        assert a.is_subset(b) == (set(a.enumerate()) <= set(b.enumerate()))

    @given(cubes(), cubes())
    def test_difference_exact_and_disjoint(self, a, b):
        pieces = a.difference(b)
        expected = set(a.enumerate()) - set(b.enumerate())
        covered = set()
        for piece in pieces:
            piece_headers = set(piece.enumerate())
            assert not (piece_headers & covered), "difference pieces overlap"
            covered |= piece_headers
        assert covered == expected

    @given(cubes(), headers())
    def test_matches_agrees_with_enumeration(self, cube, header):
        assert cube.matches(header) == (header in set(cube.enumerate()))

    @given(cubes())
    def test_sample_lands_inside(self, cube):
        rng = random.Random(0)
        for _ in range(8):
            assert cube.matches(cube.sample(rng))

    @given(cubes())
    def test_enumerate_count_matches_cardinality(self, cube):
        assert len(list(cube.enumerate())) == cube.cardinality()


class TestConcat:
    def test_concat_widths_and_semantics(self):
        hi = TernaryMatch.from_string("10")
        lo = TernaryMatch.from_string("*1")
        cube = concat_matches([hi, lo])
        assert cube.width == 4
        assert cube.to_string() == "10*1"

    def test_concat_empty(self):
        cube = concat_matches([])
        assert cube.width == 0
        assert cube.matches(0)


# ---------------------------------------------------------------------------
# Per-bit references.  The codec and the bit counts used to loop over bit
# positions in Python; the versions in ``repro.policy.ternary`` must
# agree with these exactly.
# ---------------------------------------------------------------------------


def reference_from_string(pattern: str) -> TernaryMatch:
    mask = 0
    value = 0
    width = len(pattern)
    for i, ch in enumerate(pattern):
        bit = width - 1 - i
        if ch == "0":
            mask |= 1 << bit
        elif ch == "1":
            mask |= 1 << bit
            value |= 1 << bit
        elif ch == "*":
            pass
        else:
            raise ValueError(f"invalid ternary character {ch!r} in {pattern!r}")
    return TernaryMatch(width, mask, value)


def reference_to_string(match: TernaryMatch) -> str:
    chars = []
    for bit in range(match.width - 1, -1, -1):
        b = 1 << bit
        if not (match.mask & b):
            chars.append("*")
        elif match.value & b:
            chars.append("1")
        else:
            chars.append("0")
    return "".join(chars)


def reference_care_counts(packed: PackedMatches) -> np.ndarray:
    counts = np.zeros(packed.width, dtype=np.int64)
    for bit in range(packed.width):
        limb, off = divmod(bit, 64)
        counts[bit] = int(
            ((packed.masks[:, limb] >> np.uint64(off)) & np.uint64(1)).sum()
        )
    return counts


def reference_bucket_patterns(packed: PackedMatches, positions):
    bm = np.zeros(packed.n, dtype=np.uint64)
    bv = np.zeros(packed.n, dtype=np.uint64)
    for k, bit in enumerate(positions):
        limb, off = divmod(bit, 64)
        bm |= ((packed.masks[:, limb] >> np.uint64(off)) & np.uint64(1)) << np.uint64(k)
        bv |= ((packed.values[:, limb] >> np.uint64(off)) & np.uint64(1)) << np.uint64(k)
    return bm, bv


widths = st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(0, 300))


class TestCodecMatchesReference:
    @given(widths.flatmap(cubes))
    def test_to_string_matches_reference_and_inverts(self, cube):
        text = cube.to_string()
        assert text == reference_to_string(cube)
        assert TernaryMatch.from_string(text) == cube

    @given(widths.flatmap(
        lambda w: st.text(alphabet="01*", min_size=w, max_size=w)))
    def test_from_string_matches_reference(self, pattern):
        assert TernaryMatch.from_string(pattern) == reference_from_string(pattern)

    def test_wide_pattern_round_trips(self):
        # Wider than the interpreter's 4,300-digit limit on decimal
        # int/str conversions, with the top and bottom bits set.
        pattern = "1" + "0*1" * 1666 + "1"
        assert len(pattern) == 5000
        cube = TernaryMatch.from_string(pattern)
        assert cube == reference_from_string(pattern)
        assert cube.value >> 4999 == 1 and cube.value & 1 == 1
        assert cube.to_string() == pattern

    @pytest.mark.parametrize("bad", ["_", " ", "+", "-", "\n", "\u0661",
                                     "x", "2"])
    def test_invalid_character_message_unchanged(self, bad):
        # ``int`` would accept most of these: underscores, whitespace,
        # signs and non-ASCII digits.
        for pattern in (bad + "01", "0" + bad + "1", "01" + bad,
                        "0" + bad + "x2"):
            with pytest.raises(ValueError) as new:
                TernaryMatch.from_string(pattern)
            with pytest.raises(ValueError) as old:
                reference_from_string(pattern)
            assert str(new.value) == str(old.value)
            assert str(new.value).startswith(
                f"invalid ternary character {bad!r}")

    @pytest.mark.parametrize("value", [104, None, ["0", "1", "*"],
                                       {"0": 1}, b"01*"],
                             ids=["int", "null", "list", "dict", "bytes"])
    def test_non_string_rejected_naming_its_type(self, value):
        with pytest.raises(ValueError, match=type(value).__name__):
            TernaryMatch.from_string(value)


class TestPackedBitsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_care_counts_and_bucket_patterns(self, data):
        width = data.draw(st.sampled_from(EDGE_WIDTHS[1:]))
        batch = data.draw(st.lists(cubes(width), min_size=1, max_size=40))
        packed = PackedMatches(batch)
        counts = packed.care_counts()
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, reference_care_counts(packed))
        edges = [b for b in (0, 63, 64, 127, 128, width - 1) if b < width]
        drawn = data.draw(st.lists(st.integers(0, width - 1), max_size=6))
        positions = list(dict.fromkeys(edges + drawn))[:12]
        bm, bv = packed.bucket_patterns(positions)
        ref_bm, ref_bv = reference_bucket_patterns(packed, positions)
        assert bm.dtype == bv.dtype == np.uint64
        np.testing.assert_array_equal(bm, ref_bm)
        np.testing.assert_array_equal(bv, ref_bv)


class TestWireFormatPinned:
    """Requests encode to the same bytes under the per-bit reference
    codec and decode to the same content under both."""

    @pytest.fixture(scope="class")
    def instance(self):
        return build_instance(ExperimentConfig(
            num_ingresses=16, rules_per_policy=100, num_paths=32,
            capacity=235, flow_slicing=True, seed=5,
        ))

    @staticmethod
    def _lines(instance):
        policy = min(instance.policies, key=lambda p: p.ingress)
        return [encode_request(request) for request in (
            SolveRequest(instance, deploy_as="pin", request_id="s"),
            VerifyRequest(instance, placement={"placed": []},
                          request_id="v"),
            DeltaRequest(deployment="pin", op="modify",
                         policy=repro_io.policy_to_dict(policy),
                         request_id="m"),
        )]

    @staticmethod
    def _decoded(lines):
        solve, verify, modify = (decode_request(line) for line in lines)
        return (solve.instance.digest(), verify.instance.digest(),
                repro_io.policy_from_dict(modify.policy).content_digest())

    def test_byte_identical_under_reference_codec(self, instance,
                                                  monkeypatch):
        lines = self._lines(instance)
        decoded = self._decoded(lines)
        with monkeypatch.context() as patch:
            patch.setattr(TernaryMatch, "from_string",
                          staticmethod(reference_from_string))
            patch.setattr(TernaryMatch, "to_string", reference_to_string)
            reference_lines = self._lines(instance)
            reference_decoded = self._decoded(reference_lines)
        assert lines == reference_lines
        assert decoded == reference_decoded
        assert decoded[0] == instance.digest()
        assert any('"flow":"' in line for line in lines)
