"""Helpers for int-as-bitset vectors.

Bit vectors throughout the package are plain Python ints: bit i set means
element i is in the set. Ints are immutable, hashable, and their bitwise
ops run at C speed, which is what the derivation operators and the engine
transition functions lean on.
"""

from collections.abc import Iterable, Sequence


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
