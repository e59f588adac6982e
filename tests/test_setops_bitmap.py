"""Tests for Bitmap and SignatureSpace."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.setops.bitmap import Bitmap, SignatureSpace


class TestBitmapConstruction:
    def test_from_elements(self):
        b = Bitmap([0, 3, 5])
        assert sorted(b) == [0, 3, 5]
        assert b.bits == 0b101001

    def test_from_raw_bits(self):
        assert sorted(Bitmap(bits=0b110)) == [1, 2]

    def test_negative_element_rejected(self):
        with pytest.raises(ValueError):
            Bitmap([-1])

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(bits=-1)

    def test_empty(self):
        b = Bitmap()
        assert len(b) == 0
        assert not b


class TestBitmapAlgebra:
    def test_and(self):
        assert Bitmap([1, 2, 3]) & Bitmap([2, 3, 4]) == Bitmap([2, 3])

    def test_or(self):
        assert Bitmap([1]) | Bitmap([2]) == Bitmap([1, 2])

    def test_sub(self):
        assert Bitmap([1, 2, 3]) - Bitmap([2]) == Bitmap([1, 3])

    def test_xor(self):
        assert Bitmap([1, 2]) ^ Bitmap([2, 3]) == Bitmap([1, 3])

    def test_subset_operators(self):
        small, big = Bitmap([1]), Bitmap([1, 2])
        assert small <= big
        assert small < big
        assert not big <= small
        assert small.issubset(big)

    def test_disjoint(self):
        assert Bitmap([1]).isdisjoint(Bitmap([2]))
        assert not Bitmap([1]).isdisjoint(Bitmap([1]))

    def test_contains(self):
        b = Bitmap([4])
        assert 4 in b
        assert 3 not in b
        assert -1 not in b

    def test_hashable(self):
        assert len({Bitmap([1, 2]), Bitmap([2, 1]), Bitmap([3])}) == 2

    def test_foreign_operands_raise_type_error(self):
        # operators return NotImplemented on non-Bitmap operands instead
        # of silently reading a missing ._bits
        b = Bitmap([1, 2])
        for op in [operator.and_, operator.or_, operator.sub, operator.xor]:
            with pytest.raises(TypeError):
                op(b, {1, 2})
        with pytest.raises(TypeError):
            b <= frozenset({1})
        with pytest.raises(TypeError):
            b < [1, 2]

    def test_equality_with_foreign_types_is_false(self):
        assert Bitmap([1]) != {1}
        assert not (Bitmap([1]) == {1})

    def test_to_list_and_repr(self):
        b = Bitmap([9, 2])
        assert b.to_list() == [2, 9]
        assert "2, 9" in repr(b)

    @given(
        st.lists(st.integers(0, 40), unique=True),
        st.lists(st.integers(0, 40), unique=True),
    )
    def test_matches_frozenset_semantics(self, xs, ys):
        bx, by = Bitmap(xs), Bitmap(ys)
        sx, sy = frozenset(xs), frozenset(ys)
        assert set(bx & by) == sx & sy
        assert set(bx | by) == sx | sy
        assert set(bx - by) == sx - sy
        assert set(bx ^ by) == sx ^ sy
        assert (bx <= by) == (sx <= sy)
        assert len(bx) == len(sx)


class TestSignatureSpace:
    def test_positions_follow_sorted_order(self):
        space = SignatureSpace([30, 10, 20])
        assert space.universe == (10, 20, 30)
        assert space.position(10) == 0
        assert space.position(30) == 2

    def test_duplicate_universe_rejected(self):
        with pytest.raises(ValueError):
            SignatureSpace([1, 1])

    def test_len_and_contains(self):
        space = SignatureSpace([5, 7])
        assert len(space) == 2
        assert 5 in space
        assert 6 not in space

    def test_encode_drops_outsiders(self):
        space = SignatureSpace([10, 20, 30])
        assert space.encode([10, 30, 99]) == 0b101

    def test_encode_empty(self):
        assert SignatureSpace([1]).encode([]) == 0

    def test_decode_roundtrip(self):
        space = SignatureSpace([4, 8, 15, 16, 23, 42])
        mask = space.encode([8, 23])
        assert space.decode(mask) == [8, 23]

    def test_decode_rejects_foreign_bits(self):
        space = SignatureSpace([1, 2])
        with pytest.raises(ValueError):
            space.decode(0b100)
        with pytest.raises(ValueError):
            space.decode(-1)

    def test_full_mask(self):
        space = SignatureSpace([3, 1, 2])
        assert space.full_mask == 0b111
        assert space.decode(space.full_mask) == [1, 2, 3]

    def test_decode_bitmap(self):
        space = SignatureSpace([10, 20])
        bm = space.decode_bitmap(0b10)
        assert sorted(bm) == [1]

    @given(st.lists(st.integers(0, 100), min_size=1, unique=True), st.data())
    def test_encode_decode_identity(self, universe, data):
        space = SignatureSpace(universe)
        subset = data.draw(
            st.lists(st.sampled_from(universe), unique=True)
        )
        assert space.decode(space.encode(subset)) == sorted(subset)


class TestWordBoundaryUniverses:
    """Round-trips at universes around 64 and 128 bits.

    Signatures are arbitrary-width Python ints; these widths pin that
    encode/decode keep every bit exact past a machine word.
    """

    @pytest.mark.parametrize("n_bits", [63, 64, 65, 127, 128, 129])
    def test_encode_decode_roundtrip(self, n_bits):
        universe = [3 * i + 1 for i in range(n_bits)]  # non-contiguous ids
        space = SignatureSpace(universe)
        assert space.full_mask == (1 << n_bits) - 1
        boundary_subsets = [
            [],
            universe,
            [universe[0]],
            [universe[-1]],
            universe[::2],
            universe[-2:],
        ]
        for subset in boundary_subsets:
            mask = space.encode(subset)
            assert space.decode(mask) == sorted(subset)
        # the top bit alone must survive the word edge
        top = space.encode([universe[-1]])
        assert top == 1 << (n_bits - 1)
        assert space.decode(top) == [universe[-1]]


class TestBitmapWordBoundaryAlgebra:
    @given(
        st.lists(st.sampled_from([0, 1, 62, 63, 64, 65, 126, 127, 128, 129]),
                 unique=True),
        st.lists(st.sampled_from([0, 1, 62, 63, 64, 65, 126, 127, 128, 129]),
                 unique=True),
    )
    def test_matches_frozenset_at_word_edges(self, xs, ys):
        bx, by = Bitmap(xs), Bitmap(ys)
        sx, sy = frozenset(xs), frozenset(ys)
        assert set(bx & by) == sx & sy
        assert set(bx | by) == sx | sy
        assert set(bx - by) == sx - sy
        assert set(bx ^ by) == sx ^ sy
        assert (bx <= by) == (sx <= sy)
        assert (bx < by) == (sx < sy)
        assert bx.issubset(by) == sx.issubset(sy)
        assert bx.isdisjoint(by) == sx.isdisjoint(sy)
        assert (bx == by) == (sx == sy)
        assert len(bx) == len(sx)
        assert bx.to_list() == sorted(sx)
