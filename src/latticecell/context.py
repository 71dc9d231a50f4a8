"""Formal contexts, Galois derivation operators, and the naive concept oracle.

A formal context is a binary incidence table between objects and
attributes. The two derivation operators map object sets to the attributes
they share and attribute sets to the objects carrying them; their
composition is a closure operator whose fixed points are the concepts.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

from .bits import bit_indices, transpose
from .errors import CapacityError, DimensionError, FormatError
from .value import Value, lazy

# Exhaustive enumeration walks every attribute subset; refuse beyond this.
NAIVE_ATTRIBUTE_LIMIT = 20


class Concept(namedtuple("Concept", "extent intent")):
    """A closed (extent, intent) pair, both as int bitsets."""

    __slots__ = ()


class FormalContext(Value):
    """Immutable object x attribute incidence table.

    ``rows[o]`` is the attribute mask of object o; ``columns[a]``, derived
    on first read and left out of equality and repr, is the object mask of
    attribute a. Safe to share across threads.
    """

    _fields = ("object_ids", "attribute_names", "rows")

    def __init__(self, object_ids: tuple[str, ...],
                 attribute_names: tuple[str, ...],
                 rows: tuple[int, ...]) -> None:
        object.__setattr__(self, "object_ids", object_ids)
        object.__setattr__(self, "attribute_names", attribute_names)
        object.__setattr__(self, "rows", rows)
        if len(set(object_ids)) != len(object_ids):
            raise DimensionError("duplicate object ids")
        if len(set(attribute_names)) != len(attribute_names):
            raise DimensionError("duplicate attribute names")
        if len(rows) != len(object_ids):
            raise DimensionError(
                f"{len(rows)} rows for {len(object_ids)} objects")
        full = self.full_attribute_mask
        for oid, row in zip(object_ids, rows):
            if row < 0 or row & ~full:
                raise DimensionError(f"row for {oid!r} exceeds attribute count")

    @lazy
    def columns(self) -> tuple[int, ...]:
        return tuple(transpose(self.rows, self.n_attributes))

    @property
    def n_objects(self) -> int:
        return len(self.object_ids)

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_names)

    @property
    def full_object_mask(self) -> int:
        return (1 << self.n_objects) - 1

    @property
    def full_attribute_mask(self) -> int:
        return (1 << self.n_attributes) - 1

    def object_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.object_ids[i] for i in bit_indices(mask))

    def attribute_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.attribute_names[i] for i in bit_indices(mask))


def _check_mask(mask: int, size: int, what: str) -> None:
    if mask < 0 or mask >> size:
        raise DimensionError(f"{what} mask does not fit {size} bits")


def derive_intent(ctx: FormalContext, objects: int) -> int:
    """Attributes shared by every object in the mask (all attributes for 0)."""
    _check_mask(objects, ctx.n_objects, "object")
    rows, intent = ctx.rows, ctx.full_attribute_mask
    while objects and intent:
        low = objects & -objects
        intent &= rows[low.bit_length() - 1]
        objects ^= low
    return intent


def derive_extent(ctx: FormalContext, attributes: int) -> int:
    """Objects carrying every attribute in the mask (all objects for 0)."""
    _check_mask(attributes, ctx.n_attributes, "attribute")
    extent = ctx.full_object_mask
    m = attributes
    while m and extent:
        low = m & -m
        extent &= ctx.columns[low.bit_length() - 1]
        m ^= low
    return extent


def canonical_key(concept: Concept) -> tuple[int, tuple[int, ...]]:
    """Sort key: extent cardinality ascending, then lexicographic extent."""
    return concept.extent.bit_count(), bit_indices(concept.extent)


def enumerate_concepts_naive(ctx: FormalContext) -> list[Concept]:
    """Brute-force oracle: close every attribute subset.

    Exponential in the attribute count; guarded at NAIVE_ATTRIBUTE_LIMIT.
    Returns each concept exactly once, in canonical order.
    """
    if ctx.n_attributes > NAIVE_ATTRIBUTE_LIMIT:
        raise CapacityError(
            f"naive enumeration refuses {ctx.n_attributes} attributes "
            f"(limit {NAIVE_ATTRIBUTE_LIMIT})")
    seen: dict[int, int] = {}
    for subset in range(1 << ctx.n_attributes):
        extent = derive_extent(ctx, subset)
        if extent not in seen:
            seen[extent] = derive_intent(ctx, extent)
    concepts = [Concept(e, i) for e, i in seen.items()]
    concepts.sort(key=canonical_key)
    return concepts


def load_context_csv(path: str | Path) -> FormalContext:
    """Read a context from CSV: header = attribute names, first column = id.

    Malformed input, including text that is not UTF-8 and duplicate object
    ids or attribute names, raises ``FormatError`` naming the file.
    """
    import csv

    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return _read_context_csv(path, csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: {exc}") from exc


_BINARY_CELLS = frozenset(("0", "1"))


def _read_context_csv(path: Path, reader) -> FormalContext:
    header = next(reader, None)
    if header is None or len(header) < 1:
        raise FormatError(f"{path}: missing header row")
    attributes = tuple(header[1:])
    if len(set(attributes)) != len(attributes):
        name = next(a for i, a in enumerate(attributes) if a in attributes[:i])
        raise FormatError(f"{path}: row 1: duplicate attribute name {name!r}")
    object_ids: dict[str, None] = {}
    rows: list[int] = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(attributes) + 1:
            raise FormatError(f"{path}: row {lineno}: expected "
                              f"{len(attributes) + 1} cells, got {len(record)}")
        if record[0] in object_ids:
            raise FormatError(f"{path}: row {lineno}: duplicate object id "
                              f"{record[0]!r}")
        cells = record[1:]
        # int() alone would take " 1", "1_0" or other scripts' digits
        if not set(cells) <= _BINARY_CELLS:
            col, cell = next((col, cell) for col, cell in enumerate(cells)
                             if cell not in _BINARY_CELLS)
            raise FormatError(f"{path}: row {lineno}, column {col + 2}: "
                              f"cell must be '0' or '1', got {cell!r}")
        object_ids[record[0]] = None
        # cell j is bit j: the first cell is the last binary digit
        rows.append(int("".join(cells)[::-1], 2) if cells else 0)
    return FormalContext(tuple(object_ids), attributes, tuple(rows))


def save_context_csv(ctx: FormalContext, path: str | Path) -> None:
    import csv

    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *ctx.attribute_names])
        for oid, row in zip(ctx.object_ids, ctx.rows):
            writer.writerow([oid, *(row >> a & 1 for a in range(ctx.n_attributes))])
