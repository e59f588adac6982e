"""Cross-representation tests of the set-union kernel at word boundaries.

The merge-path partitioned union (:mod:`repro.setops.intersect_path`), the
plain sorted merge (:mod:`repro.setops.sorted_ops`) and Python-int masks
(:class:`~repro.setops.bitmap.Bitmap`, the representation
:mod:`repro.core.mbet` computes with) must agree on every input.  Universes
straddle the 64-bit word edges (63/64/65, 128/129) and reach past 4,096
bits on purpose: an int mask has no words, so agreement there pins that no
representation drops or duplicates an element at those widths.
"""

import random

import numpy as np
import pytest

from repro.setops import kernel_meta
from repro.setops.bitmap import Bitmap, SignatureSpace
from repro.setops.intersect_path import merge_path_partitions, partitioned_union
from repro.setops.sorted_ops import union, union_many

# universes that straddle word boundaries, up to 64 words and a bit
WIDTHS = [1, 7, 63, 64, 65, 128, 129, 64 * 64 + 17]


def random_masks(rng, n_bits, count, density=0.3):
    out = []
    for _ in range(count):
        mask = 0
        for b in range(n_bits):
            if rng.random() < density:
                mask |= 1 << b
        out.append(mask)
    return out


def adversarial_masks(n_bits):
    full = (1 << n_bits) - 1
    masks = [0, full, 1, 1 << (n_bits - 1)]
    if n_bits > 64:
        masks += [(1 << 64) - 1, full ^ ((1 << 64) - 1), 1 << 63, 1 << 64]
    return [m & full for m in masks]


def members(mask):
    return [b for b in range(mask.bit_length()) if (mask >> b) & 1]


class TestPartitionedUnion:
    @pytest.mark.parametrize("n_bits", WIDTHS)
    @pytest.mark.parametrize("lanes", [1, 2, 4, 13])
    def test_matches_set_union(self, n_bits, lanes):
        rng = random.Random(700 + n_bits * 31 + lanes)
        masks = random_masks(rng, n_bits, 9) + adversarial_masks(n_bits)
        expect = sorted({b for m in masks for b in range(n_bits) if (m >> b) & 1})
        acc = []
        for mask in masks:
            acc = partitioned_union(acc, members(mask), lanes)
        assert acc == expect
        assert union_many(members(m) for m in masks) == expect
        space = SignatureSpace(range(n_bits))
        combined = 0
        for mask in masks:
            combined |= space.encode(members(mask))
        assert space.decode(combined) == expect

    def test_lanes_exceed_words_yield_empty_lanes(self):
        # lanes > n + m forces duplicate split points; lanes owning an
        # empty diagonal range must contribute nothing, not duplicates.
        a, b = [0, 1], [1, 3]
        assert partitioned_union(a, b, lanes=16) == [0, 1, 3]
        points = merge_path_partitions(a, b, 16)
        assert len(points) == 17
        assert points[0] == (0, 0) and points[-1] == (2, 2)
        diagonals = [x + y for x, y in points]
        assert all(p <= q for p, q in zip(diagonals, diagonals[1:]))
        assert len(set(points)) < len(points)

    def test_empty_batch_and_empty_union(self):
        for lanes in (1, 4, 13):
            assert partitioned_union([], [], lanes) == []
        assert union_many([]) == []
        assert union_many([[], [], []]) == []
        assert (Bitmap() | Bitmap()).to_list() == []

    def test_lane_invalid(self):
        with pytest.raises(ValueError):
            merge_path_partitions([1], [2], 0)
        with pytest.raises(ValueError):
            partitioned_union([1], [2], lanes=0)

    @pytest.mark.parametrize("n_bits", [64, 65, 640])
    def test_agrees_with_merge_path_partitioned_union(self, n_bits):
        rng = random.Random(800 + n_bits)
        a_mask, b_mask = random_masks(rng, n_bits, 2, density=0.2)
        a, b = members(a_mask), members(b_mask)
        merged = partitioned_union(a, b, lanes=4)
        assert merged == union(a, b)
        assert merged == (Bitmap(a) | Bitmap(b)).to_list()
        assert merged == members(a_mask | b_mask)


class TestMeta:
    def test_kernel_meta_fields(self):
        # every set operation is pure Python; numpy is the one library
        # version a benchmark snapshot records
        assert kernel_meta() == {"numpy": np.__version__}
