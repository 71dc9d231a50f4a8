"""Concept lattice construction by folding in one attribute column at a time.

The closed extents of a context are the intersections of its attribute
columns. The builder starts from the full object set and folds in one
column at a time: the extents over attributes a0..ak are those over
a0..ak-1 plus each of them intersected with column ak. That is the
divide-and-conquer assembly L(a0..ak) = assemble(L(a0..ak-1), L({ak}))
split at the last attribute, on extents alone, and each fold step is one
C-level ``map`` into a set, with no Python code per pair. The columns go
in sparsest first: the result does not depend on the order, and that
order keeps the intermediate sets small. ``assemble`` joins two partial
lattices built over any attribute partition the same way, each extent of
one intersected with every extent of the other in one ``map``. Both end
in ``_finish``: it sorts the extents by one int each, the extent size
above its complemented bit reversal (extents of one size go by their
lowest differing object), derives every intent in one loop as the
attributes its extent's objects share, and makes the concepts in one map.

Cover edges (the Hasse diagram) are derived from the finished concept list
on first read, so building, compiling and classifying never pay for them;
lattice files store them for readers but loading ignores them. The covers
are a transitive reduction over the concepts in size order, in whatever
order the list holds them, on whichever of the intents and the extents
has fewer bits: one AND per such bit and one per edge
(``backend.lower_covers``).
Loading a lattice file checks, with the fold of ``build_lattice``, that its
concepts are exactly the concepts of the context it recovers, and that
``top`` and ``bottom`` point at the top and bottom concepts; otherwise it
raises ``FormatError``. The covers kernel relies on that check and makes
none of its own.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path

from . import backend
from .bits import iter_bits
from .context import Concept, FormalContext
from .errors import (DimensionError, FormatError, NotSplittableError,
                     json_list, read_converted, require_names)
from .value import Value, lazy


class ConceptLattice(Value):
    """All concepts of a context plus cover edges.

    ``covers`` holds (child, parent) index pairs forming the transitive
    reduction of the subconcept order. It is derived from the extents and
    intents of ``concepts`` alone on first read and cached; it is never
    read from a lattice file. ``concepts`` are the context's concepts, as
    the builders make them (canonically ordered) and the loader checks them
    (in the file's order). Immutable and shareable.
    """

    _fields = ("context", "concepts", "top_index", "bottom_index")

    def __init__(self, context: FormalContext, concepts: tuple[Concept, ...],
                 top_index: int, bottom_index: int) -> None:
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "top_index", top_index)
        object.__setattr__(self, "bottom_index", bottom_index)

    @lazy
    def covers(self) -> frozenset[tuple[int, int]]:
        concepts = self.concepts
        return frozenset(backend.lower_covers([c.extent for c in concepts],
                                              [c.intent for c in concepts]))


def split_context(ctx: FormalContext) -> tuple[FormalContext, FormalContext]:
    """Partition the attributes at the midpoint (left half rounds up)."""
    if ctx.n_attributes < 2:
        raise NotSplittableError(
            f"cannot split a context with {ctx.n_attributes} attribute(s)")
    k = (ctx.n_attributes + 1) // 2
    low = (1 << k) - 1
    left = FormalContext(ctx.object_ids, ctx.attribute_names[:k],
                         tuple(r & low for r in ctx.rows))
    right = FormalContext(ctx.object_ids, ctx.attribute_names[k:],
                          tuple(r >> k for r in ctx.rows))
    return left, right


def _closed_extents(ctx: FormalContext, limit: float = math.inf) -> set[int]:
    """Every closed extent of ``ctx``: the full object set folded with each
    attribute column in turn, sparsest first, keeping every extent and its
    intersection with the column.

    Every extent the fold holds is closed, as an intersection of columns.
    It stops after the first column that takes it past ``limit`` extents,
    so it then holds at most twice ``limit`` of them.
    """
    extents = {ctx.full_object_mask}
    for column in sorted(ctx.columns, key=int.bit_count):
        extents.update(map(column.__and__, tuple(extents)))
        if len(extents) > limit:
            break
    return extents


# byte b -> b with its 8 bits in reverse order
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _intents(ctx: FormalContext, extents: Iterable[int]) -> list[int]:
    """Per extent, the attributes its objects share (all for no object)."""
    # object n - 1 is the highest of a mask n bits long: rows[n] is its
    # row and bits[n] its bit
    rows, bits = (0, *ctx.rows), (0, *(1 << o for o in range(ctx.n_objects)))
    full = ctx.full_attribute_mask
    intents = []
    for objects in extents:
        intent = full
        while objects and intent:
            n = objects.bit_length()
            intent &= rows[n]
            objects ^= bits[n]
        intents.append(intent)
    return intents


def _finish(ctx: FormalContext, extents: Iterable[int]) -> ConceptLattice:
    """The lattice of ``ctx`` from its closed extents, in canonical concept
    order: of two extents of one size, the one holding the lowest object
    where they differ sorts first, as under ``canonical_key``."""
    width = -(-ctx.n_objects // 8)
    low = (1 << 8 * width) - 1

    def key(extent: int) -> int:
        reversed_ = int.from_bytes(extent.to_bytes(width, "little")
                                   .translate(_BIT_REVERSED), "big")
        return extent.bit_count() << 8 * width | low ^ reversed_

    extents = sorted(extents, key=key)
    # the key refuses what is negative or wider than the bytes
    if max(extents, default=0) >> ctx.n_objects:
        raise DimensionError(f"object mask does not fit {ctx.n_objects} bits")
    concepts = tuple(map(tuple.__new__, repeat(Concept),
                         zip(extents, _intents(ctx, extents))))
    # canonical order is extent-cardinality ascending: the unique minimal
    # extent sorts first and the full-extent top sorts last
    return ConceptLattice(ctx, concepts,
                          top_index=len(concepts) - 1, bottom_index=0)


def build_lattice(ctx: FormalContext) -> ConceptLattice:
    """Full lattice of ``ctx``; its Hasse cover edges are derived on first read.

    The extents come from folding in one attribute column at a time, and
    each intent is the attributes its extent's objects share (every
    attribute for the empty extent). A context with no attributes yields
    the single concept (all objects, {}).
    """
    return _finish(ctx, _closed_extents(ctx))


def appose(ctx1: FormalContext, ctx2: FormalContext) -> FormalContext:
    """Side-by-side combination of two contexts over the same objects."""
    if ctx1.object_ids != ctx2.object_ids:
        raise DimensionError("contexts must share the same object list")
    k = ctx1.n_attributes
    return FormalContext(ctx1.object_ids,
                         ctx1.attribute_names + ctx2.attribute_names,
                         tuple(a | (b << k) for a, b in zip(ctx1.rows, ctx2.rows)))


def assemble(l1: ConceptLattice, l2: ConceptLattice) -> ConceptLattice:
    """The lattice of the apposed context, from the lattices of its parts.

    Every closed extent of the apposed context is an extent of ``l1``
    intersected with an extent of ``l2``, so each extent of ``l1`` is
    folded with all of ``l2``'s, as ``build_lattice`` folds in a column.
    """
    ctx = appose(l1.context, l2.context)
    right = [c.extent for c in l2.concepts]
    extents: set[int] = set()
    for concept in l1.concepts:
        extents.update(map(concept.extent.__and__, right))
    return _finish(ctx, extents)


def lattice_to_dict(lattice: ConceptLattice) -> dict:
    ctx = lattice.context
    return {
        "objects": list(ctx.object_ids),
        "attributes": list(ctx.attribute_names),
        "concepts": [
            {"extent": list(ctx.object_names(c.extent)),
             "intent": list(ctx.attribute_labels(c.intent))}
            for c in lattice.concepts
        ],
        "covers": sorted(list(e) for e in lattice.covers),
        "top": lattice.top_index,
        "bottom": lattice.bottom_index,
    }


def lattice_from_dict(data: dict) -> ConceptLattice:
    """Lattice from its JSON form; the stored ``covers`` are not read.

    The context's incidence is recovered from the concepts: an object has
    an attribute iff some concept holds both. ``FormatError`` unless the
    object and attribute names are distinct strings, the concepts are
    exactly that context's concepts, each once, ``top`` is the concept of
    every object and ``bottom`` the concept of every attribute.
    """
    try:
        object_ids, attributes, raw, top, bottom = (
            data[key] for key in ("objects", "attributes", "concepts", "top",
                                  "bottom"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed lattice document: {exc}") from exc
    if not isinstance(raw, list):
        raise FormatError("concepts: expected a list")
    require_names("objects", object_ids)
    require_names("attributes", attributes)
    object_ids, attributes = tuple(object_ids), tuple(attributes)
    object_bits = {o: 1 << i for i, o in enumerate(object_ids)}
    attribute_bits = {a: 1 << i for i, a in enumerate(attributes)}
    for name, index in (("top", top), ("bottom", bottom)):
        # bool is an int subclass, and int() would truncate a float
        if type(index) is not int:
            raise FormatError(f"{name} index {index!r} is not an integer")
        if not 0 <= index < len(raw):
            raise FormatError(f"{name} index {index} outside the "
                              f"{len(raw)} concepts")
    concepts = []
    # Incidence is recoverable: o has a iff some concept holds both.
    rows = dict.fromkeys(object_ids, 0)
    for k, entry in enumerate(raw):
        if not (isinstance(entry, Mapping)
                and isinstance(objects := entry.get("extent"), list)
                and isinstance(names := entry.get("intent"), list)):
            raise FormatError(f"concept {k}: expected a mapping with "
                              f"'extent' and 'intent' lists")
        extent, intent = _name_masks(k, objects, names, object_bits,
                                     attribute_bits)
        concepts.append(Concept(extent, intent))
        for o in objects:
            rows[o] |= intent
    ctx = FormalContext(object_ids, attributes, tuple(rows.values()))
    _check_concepts(ctx, concepts,
                    _intents(ctx, [c.extent for c in concepts]), top, bottom)
    return ConceptLattice(ctx, tuple(concepts), top, bottom)


def _name_masks(k: int, objects: list, attributes: list,
                object_bits: dict[str, int],
                attribute_bits: dict[str, int]) -> tuple[int, int]:
    """Concept ``k``'s extent and intent masks from its object and
    attribute names; ``FormatError`` for the first name, extent first,
    that is unknown or repeated."""
    try:
        extent = sum(map(object_bits.__getitem__, objects))
        intent = sum(map(attribute_bits.__getitem__, attributes))
        # a repeated name carries into a higher bit
        if (extent.bit_count() == len(objects)
                and intent.bit_count() == len(attributes)):
            return extent, intent
    except (KeyError, TypeError):
        pass
    # some name is unknown, unhashable or repeated: find the first one
    try:
        for names, bits in ((objects, object_bits),
                            (attributes, attribute_bits)):
            mask = 0
            for name in names:
                bit = bits[name]
                if mask & bit:
                    raise FormatError(f"concept {k}: {name!r} repeated")
                mask |= bit
    except (KeyError, TypeError) as exc:
        raise FormatError(f"concept {k}: unknown object or attribute "
                          f"{exc}") from exc


def _check_concepts(ctx: FormalContext, concepts: Sequence[Concept],
                    intents: Sequence[int], top: int, bottom: int) -> None:
    """``FormatError``, naming a concept or a missing closed extent, unless
    ``concepts`` are the concepts of ``ctx``, each once, and ``top`` and
    ``bottom`` index the top and bottom concepts. ``intents[k]`` is the
    set of attributes the objects of concept k share."""
    # a few concepts can recover a context with exponentially many, so the
    # fold stops once it has found more closed extents than there are
    # concepts, and then some closed extent has no concept
    closed = _closed_extents(ctx, len(concepts))
    missing = closed.difference(c.extent for c in concepts)
    if missing:
        extent = min(missing, key=lambda e: (e.bit_count(), e))
        raise FormatError(f"no concept has the closed extent "
                          f"{{{', '.join(ctx.object_names(extent))}}}")
    seen: dict[int, int] = {}
    for k, (extent, intent) in enumerate(concepts):
        if seen.setdefault(extent, k) != k:
            raise FormatError(f"concept {k} repeats the extent of concept "
                              f"{seen[extent]}")
        if extent not in closed:
            raise FormatError(f"concept {k}: its extent is not closed; more "
                              f"objects share its objects' attributes")
        if intent != intents[k]:
            raise FormatError(f"concept {k}: its intent is not the set of "
                              f"attributes its objects share")
    if concepts[top].extent != ctx.full_object_mask:
        raise FormatError(f"top concept {top} does not hold every object")
    if concepts[bottom].intent != ctx.full_attribute_mask:
        raise FormatError(f"bottom concept {bottom} does not hold every "
                          f"attribute")


def save_lattice(lattice: ConceptLattice, path: str | Path) -> None:
    """Write ``lattice`` to ``path``: the same bytes as ``write_json(path,
    lattice_to_dict(lattice))``, rendered from text templates with each
    object and attribute name encoded once."""
    ctx = lattice.context
    objects = list(map(encode_basestring, ctx.object_ids))
    attributes = list(map(encode_basestring, ctx.attribute_names))
    concepts = [
        '{\n      "extent": '
        + json_list([objects[o] for o in iter_bits(extent)], " " * 6)
        + ',\n      "intent": '
        + json_list([attributes[a] for a in iter_bits(intent)], " " * 6)
        + "\n    }"
        for extent, intent in lattice.concepts]
    covers = (f"[\n      {child},\n      {parent}\n    ]"
              for child, parent in sorted(lattice.covers))
    Path(path).write_text(
        '{\n  "objects": ' + json_list(objects, "  ")
        + ',\n  "attributes": ' + json_list(attributes, "  ")
        + ',\n  "concepts": ' + json_list(concepts, "  ")
        + ',\n  "covers": ' + json_list(covers, "  ")
        + f',\n  "top": {lattice.top_index},\n  "bottom": {lattice.bottom_index}'
        + "\n}\n",
        encoding="utf-8")


def load_lattice(path: str | Path) -> ConceptLattice:
    return read_converted(path, lattice_from_dict)


def lattice_to_dot(lattice: ConceptLattice) -> str:
    """Hasse diagram in DOT form, children drawn below their parents.

    Each object and attribute name is escaped once for a DOT quoted
    string: a backslash before each ``\\`` and ``"``.
    """
    ctx = lattice.context
    objects, attributes = (
        [name.replace("\\", "\\\\").replace('"', '\\"') for name in names]
        for names in (ctx.object_ids, ctx.attribute_names))
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, (extent, intent) in enumerate(lattice.concepts):
        upper = ", ".join([objects[o] for o in iter_bits(extent)]) or "{}"
        lower = ", ".join([attributes[a] for a in iter_bits(intent)]) or "{}"
        lines.append(f'  n{i} [label="{upper}\\n{lower}" shape=box];')
    for child, parent in sorted(lattice.covers):
        lines.append(f"  n{child} -> n{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"
