"""Set-operation substrate for maximal biclique enumeration.

Every MBE algorithm in this repository is, at its core, a long sequence of
set intersections, unions, and subset tests over vertex neighbourhoods.
This package provides the three representations those algorithms use:

``sorted_ops``
    Operations on *sorted* sequences of vertex ids (the CSR adjacency rows).
    Merge-based and galloping variants are provided; all results are sorted.

``bitmap``
    Arbitrary-width bitsets backed by Python integers, plus
    :class:`~repro.setops.bitmap.SignatureSpace`, which maps a small vertex
    universe to bit positions so that neighbourhood intersections become a
    single ``&`` and a ``bit_count()``.

``intersect_path``
    A deterministic CPU realization of the merge-path ("intersect path")
    partitioned set union used by warp-cooperative GPU implementations in
    this literature.  Partitioning the merge grid into independent lanes is
    a pure algorithm and is tested as such.
"""

from repro.setops.bitmap import Bitmap, SignatureSpace
from repro.setops.intersect_path import merge_path_partitions, partitioned_union
from repro.setops.sorted_ops import (
    galloping_intersect,
    intersect,
    intersect_size,
    is_strict_subset,
    is_subset,
    multi_intersect,
    set_difference,
    union,
    union_many,
)


def kernel_meta() -> dict:
    """The set-operation backend of this process, for benchmark snapshots.

    Every set operation is pure Python over ints and sorted sequences, so
    the one library version a timing can depend on is numpy's (the graph
    generators draw from it).
    """
    import numpy

    return {"numpy": numpy.__version__}


__all__ = [
    "Bitmap",
    "SignatureSpace",
    "galloping_intersect",
    "intersect",
    "intersect_size",
    "is_strict_subset",
    "is_subset",
    "kernel_meta",
    "merge_path_partitions",
    "multi_intersect",
    "partitioned_union",
    "set_difference",
    "union",
    "union_many",
]
