"""Bitset representations for local-neighbourhood signatures.

Deep inside an enumeration subtree, every set the algorithm touches is a
subset of the subtree root's left side ``L₀``.  :class:`SignatureSpace`
assigns each vertex of that small universe a bit position; from then on a
"set" is a Python int, intersection is ``&``, union is ``|``, subset testing
is ``a & b == a`` and cardinality is ``int.bit_count()`` — all constant-cost
CPython primitives regardless of how the original adjacency was stored.

:class:`Bitmap` is a thin, self-describing wrapper used by the public API
and the tests; the hot paths in :mod:`repro.core.mbet` work on raw ints.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class Bitmap:
    """An immutable set of small non-negative ints backed by one Python int.

    Supports the standard set algebra through operators and mirrors the
    parts of the ``frozenset`` API the algorithms rely on.  Bit ``i`` set
    means element ``i`` is present.
    """

    __slots__ = ("_bits",)

    def __init__(self, elements: Iterable[int] = (), *, bits: int | None = None):
        if bits is not None:
            if bits < 0:
                raise ValueError("bitmap value must be non-negative")
            self._bits = bits
            return
        acc = 0
        for e in elements:
            if e < 0:
                raise ValueError(f"bitmap elements must be non-negative, got {e}")
            acc |= 1 << e
        self._bits = acc

    @property
    def bits(self) -> int:
        """The raw integer backing this bitmap."""
        return self._bits

    def __contains__(self, element: int) -> bool:
        return element >= 0 and (self._bits >> element) & 1 == 1

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __and__(self, other: "Bitmap") -> "Bitmap":
        if not isinstance(other, Bitmap):
            return NotImplemented
        return Bitmap(bits=self._bits & other._bits)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        if not isinstance(other, Bitmap):
            return NotImplemented
        return Bitmap(bits=self._bits | other._bits)

    def __sub__(self, other: "Bitmap") -> "Bitmap":
        if not isinstance(other, Bitmap):
            return NotImplemented
        return Bitmap(bits=self._bits & ~other._bits)

    def __xor__(self, other: "Bitmap") -> "Bitmap":
        if not isinstance(other, Bitmap):
            return NotImplemented
        return Bitmap(bits=self._bits ^ other._bits)

    def __le__(self, other: "Bitmap") -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._bits & other._bits == self._bits

    def __lt__(self, other: "Bitmap") -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._bits != other._bits and self._bits & other._bits == self._bits

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bitmap) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __bool__(self) -> bool:
        return self._bits != 0

    def __repr__(self) -> str:
        return f"Bitmap({sorted(self)})"

    def isdisjoint(self, other: "Bitmap") -> bool:
        """Return True when the two bitmaps share no element."""
        return self._bits & other._bits == 0

    def issubset(self, other: "Bitmap") -> bool:
        """Return True when every element of self is in other."""
        return self <= other

    def to_list(self) -> list[int]:
        """Return the elements as a sorted list."""
        return list(self)


class SignatureSpace:
    """Bijection between a small vertex universe and bit positions.

    Built once per enumeration subtree from the root's left side ``L₀``.
    ``encode`` turns a vertex-id iterable into a mask (ids outside the
    universe are dropped — exactly the semantics of intersecting with
    ``L₀``), ``decode`` turns a mask back into sorted vertex ids.
    """

    __slots__ = ("_universe", "_position", "full_mask")

    def __init__(self, universe: Sequence[int]):
        ordered = sorted(universe)
        if len(set(ordered)) != len(ordered):
            raise ValueError("signature universe contains duplicate ids")
        self._universe: tuple[int, ...] = tuple(ordered)
        self._position: dict[int, int] = {v: i for i, v in enumerate(ordered)}
        self.full_mask: int = (1 << len(ordered)) - 1

    def __len__(self) -> int:
        return len(self._universe)

    @property
    def universe(self) -> tuple[int, ...]:
        """The sorted vertex ids this space covers."""
        return self._universe

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._position

    def position(self, vertex: int) -> int:
        """Return the bit position of ``vertex`` (KeyError if absent)."""
        return self._position[vertex]

    def encode(self, vertices: Iterable[int]) -> int:
        """Return the mask of ``vertices ∩ universe``.

        This is the local-neighbourhood operator: encoding ``N(v)`` against
        the space built from ``L₀`` yields the signature of ``N(v) ∩ L₀``.
        """
        pos = self._position
        mask = 0
        for v in vertices:
            p = pos.get(v)
            if p is not None:
                mask |= 1 << p
        return mask

    def decode(self, mask: int) -> list[int]:
        """Return the sorted vertex ids whose bits are set in ``mask``."""
        if mask < 0:
            raise ValueError("mask must be non-negative")
        if mask > self.full_mask:
            raise ValueError("mask has bits outside this signature space")
        uni = self._universe
        out: list[int] = []
        while mask:
            low = mask & -mask
            out.append(uni[low.bit_length() - 1])
            mask ^= low
        return out

    def decode_bitmap(self, mask: int) -> Bitmap:
        """Return the mask as a :class:`Bitmap` over bit positions."""
        return Bitmap(bits=mask)
