"""Helpers for int-as-bitset vectors.

Bit vectors throughout the package are plain Python ints: bit i set means
element i is in the set. Ints are immutable, hashable, and their bitwise
ops run at C speed, which is what the derivation operators and the engine
transition functions lean on.

``transpose`` works by byte lanes, each step a C-level operation: the
rows are packed into fixed-width little-endian records with one
``bytes.join``; lane j, the j-th byte of every record, is one strided
slice, read as one int in which each 8 bytes are an 8x8 bit block (8
rows by 8 columns); three delta swaps over the whole int transpose every
block at once (Warren, "Hacker's Delight", 7-3), so that byte t of each
block holds column 8j + t of its 8 rows; and each column is the bytes at
one offset of every block, a second strided slice. The work is linear
in rows times width, whatever the density.
"""

from collections.abc import Iterable, Sequence
from itertools import repeat


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def iter_bits(mask: int):
    """Yield set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_indices(mask: int) -> tuple[int, ...]:
    """Set bit positions of ``mask``, ascending."""
    return tuple(iter_bits(mask))


def bit_sliced_counts(rows: Iterable[int]) -> list[int]:
    """Bit-sliced counters of ``rows`` (O'Neil & Quass): bit j of
    ``slices[b]`` is bit b of the number of rows that have bit j set.

    Each row is added as a ripple-carry over the slices, one big-int
    operation per slice it reaches, so every position counts at once.
    """
    slices: list[int] = []
    for carry in rows:
        b = 0
        while carry:
            if b == len(slices):
                slices.append(carry)
                break
            s = slices[b]
            slices[b] = s ^ carry
            carry &= s
            b += 1
    return slices


def split_by_count(members: int,
                   slices: Sequence[int]) -> list[tuple[int, int]]:
    """``(count, positions)`` for each distinct count that ``slices`` (as
    ``bit_sliced_counts`` makes them) give the positions of ``members``.

    The positions are split by one slice at a time, most significant bit
    first, so only nonempty classes are ever formed.
    """
    groups = [(0, members)] if members else []
    for b in reversed(range(len(slices))):
        s = slices[b]
        split = []
        for count, positions in groups:
            high = positions & s
            if high:
                split.append((count | 1 << b, high))
            if high != positions:
                split.append((count, positions ^ high))
        groups = split
    return groups


# (shift, mask) of the three delta swaps that transpose an 8x8 bit block,
# bit t of byte i to bit i of byte t; the mask marks the lower bit of each
# pair swapped
_BLOCK_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                (28, 0x00000000F0F0F0F0))


def transpose(rows: Iterable[int], width: int) -> list[int]:
    """Columns of a bit matrix: bit r of column j is bit j of ``rows[r]``.

    Bits of a row at or above ``width`` are ignored.
    """
    full = (1 << width) - 1
    lanes = (width + 7) >> 3
    data = b"".join(map(int.to_bytes, map(full.__and__, rows),
                        repeat(lanes), repeat("little")))
    if not data:  # no rows, or no columns
        return [0] * width
    size = (len(data) // lanes + 7) & ~7  # the rows, padded to whole blocks
    swaps = [(shift, int.from_bytes(mask.to_bytes(8, "little") * (size >> 3),
                                    "little"))
             for shift, mask in _BLOCK_SWAPS]
    cols: list[int] = []
    for j in range(lanes):
        lane = int.from_bytes(data[j::lanes], "little")
        for shift, mask in swaps:
            moved = (lane ^ (lane >> shift)) & mask
            lane ^= moved ^ (moved << shift)
        blocks = lane.to_bytes(size, "little")
        cols += [int.from_bytes(blocks[t::8], "little")
                 for t in range(min(8, width - 8 * j))]
    return cols
