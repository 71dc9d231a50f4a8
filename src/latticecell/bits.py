"""Helpers for int-as-bitset vectors.

Bit vectors throughout the package are plain Python ints: bit i set means
element i is in the set. Ints are immutable, hashable, and their bitwise
ops run at C speed, which is what the derivation operators and the engine
transition functions lean on.
"""

from collections.abc import Iterable


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


def transpose(rows: Iterable[int], width: int) -> list[int]:
    """Columns of a bit matrix: bit r of column j is bit j of ``rows[r]``.

    Bits of a row at or above ``width`` are ignored.
    """
    full = (1 << width) - 1
    cols = [0] * width
    for r, row in enumerate(rows):
        bit = 1 << r
        row &= full
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols
