"""Concept lattice construction by divide-and-conquer assembly.

The builder splits the context's attribute index range in half (the left
half rounds up), recursively builds the concepts of each half, and merges
them: every pairwise extent intersection of the halves is a closed extent
of the combined range, and collecting the distinct intersections with
unioned intents yields exactly its concept set. A one-attribute leaf reads
its column of the one context and sets its intent at the attribute's own
bit, so no sub-context is built and no intent is shifted. Cover edges (the
Hasse diagram) are derived from the finished concept list on first read,
so building, compiling and classifying never pay for them; lattice files
store them for readers but loading ignores them. The covers cost one
sweep of the context's rows per concept (neighbour generation), and the
same sweep checks that the concepts are exactly the context's concepts:
reading the covers of a loaded file that is not a lattice, which
``save_lattice``, ``lattice_to_dot`` and ``inspect`` do, raises
``FormatError``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import backend
from .bits import mask_from_indices
from .context import Concept, FormalContext, canonical_key
from .errors import DimensionError, FormatError, NotSplittableError


@dataclass(frozen=True)
class ConceptLattice:
    """All concepts of a context, canonically ordered, plus cover edges.

    ``covers`` holds (child, parent) index pairs forming the transitive
    reduction of the subconcept order. It is derived from ``concepts`` and
    the context on first read and cached; it is never read from a lattice
    file. Reading it raises ``FormatError`` when ``concepts`` are not the
    context's concepts. Immutable and shareable.
    """

    context: FormalContext
    concepts: tuple[Concept, ...]
    top_index: int
    bottom_index: int

    @cached_property
    def covers(self) -> frozenset[tuple[int, int]]:
        # cached_property writes the instance __dict__ directly, which the
        # frozen dataclass's __setattr__ does not intercept
        return find_lower_covers(self.concepts, self.context)

    @property
    def top(self) -> Concept:
        return self.concepts[self.top_index]

    @property
    def bottom(self) -> Concept:
        return self.concepts[self.bottom_index]


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


def _concept_masks(columns: Sequence[int], full: int, lo: int,
                   hi: int) -> tuple[list[int], list[int]]:
    """Concepts of the attributes ``[lo, hi)``, ``lo < hi``, as parallel
    extent and intent lists; each intent bit is its attribute's index."""
    if hi - lo == 1:
        col = columns[lo]
        if col == full:
            return [full], [1 << lo]
        return [full, col], [0, 1 << lo]
    mid = lo + (hi - lo + 1) // 2
    ext1, int1 = _concept_masks(columns, full, lo, mid)
    ext2, int2 = _concept_masks(columns, full, mid, hi)
    return backend.merge_concept_pairs(ext1, int1, ext2, int2)


def _finish(ctx: FormalContext, extents: Sequence[int],
            intents: Sequence[int]) -> ConceptLattice:
    concepts = sorted((Concept(e, i) for e, i in zip(extents, intents)),
                      key=canonical_key)
    # canonical order is extent-cardinality ascending: the unique minimal
    # extent sorts first and the full-extent top sorts last
    return ConceptLattice(ctx, tuple(concepts),
                          top_index=len(concepts) - 1, bottom_index=0)


def build_lattice(ctx: FormalContext) -> ConceptLattice:
    """Full lattice of ``ctx``; its Hasse cover edges are derived on first read.

    A context with no attributes yields the single concept (all objects, {}).
    """
    full = ctx.full_object_mask
    if ctx.n_attributes == 0:
        return _finish(ctx, [full], [0])
    extents, intents = _concept_masks(ctx.columns, full, 0, ctx.n_attributes)
    return _finish(ctx, extents, intents)


def appose(ctx1: FormalContext, ctx2: FormalContext) -> FormalContext:
    """Side-by-side combination of two contexts over the same objects."""
    if ctx1.object_ids != ctx2.object_ids:
        raise DimensionError("contexts must share the same object list")
    k = ctx1.n_attributes
    return FormalContext(ctx1.object_ids,
                         ctx1.attribute_names + ctx2.attribute_names,
                         tuple(a | (b << k) for a, b in zip(ctx1.rows, ctx2.rows)))


def assemble(l1: ConceptLattice, l2: ConceptLattice) -> ConceptLattice:
    """Merge two partial lattices built over an attribute partition.

    Walks every concept pair in canonical order, intersecting extents and
    unioning intents; duplicate extents are folded together. The result is
    the lattice of the apposed context.
    """
    ctx = appose(l1.context, l2.context)
    shift = l1.context.n_attributes
    extents, intents = backend.merge_concept_pairs(
        [c.extent for c in l1.concepts], [c.intent for c in l1.concepts],
        [c.extent for c in l2.concepts],
        [c.intent << shift for c in l2.concepts])
    return _finish(ctx, extents, intents)


def find_lower_covers(concepts: Sequence[Concept],
                      ctx: FormalContext) -> frozenset[tuple[int, int]]:
    """Cover edges (child, parent): strict extent inclusion with nothing between.

    ``concepts`` must be all the concepts of ``ctx``, in any order;
    otherwise ``FormatError``. The transitive reduction of a partial order
    is unique.
    """
    return frozenset(backend.lower_covers(
        [c.extent for c in concepts], [c.intent for c in concepts], ctx.rows,
        ctx.full_attribute_mask))


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

    The context's incidence is recovered from the concepts. Whether the
    concepts are exactly that context's concepts is checked when the
    covers are first read, not here.
    """
    try:
        object_ids, attributes, raw, top, bottom = (
            data[key] for key in ("objects", "attributes", "concepts", "top",
                                  "bottom"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed lattice document: {exc}") from exc
    for key, value in (("objects", object_ids), ("attributes", attributes),
                       ("concepts", raw)):
        if not isinstance(value, list):
            raise FormatError(f"{key}: expected a list")
    object_ids, attributes = tuple(object_ids), tuple(attributes)
    try:
        oidx = {o: i for i, o in enumerate(object_ids)}
        aidx = {a: i for i, a in enumerate(attributes)}
    except TypeError as exc:  # an unhashable name
        raise FormatError(f"malformed lattice document: {exc}") from exc
    if len(oidx) != len(object_ids) or len(aidx) != len(attributes):
        raise FormatError("duplicate object or attribute names")
    for name, index in (("top", top), ("bottom", bottom)):
        # bool is an int subclass, and int() would truncate a float
        if type(index) is not int:
            raise FormatError(f"{name} index {index!r} is not an integer")
        if not 0 <= index < len(raw):
            raise FormatError(f"{name} index {index} outside the "
                              f"{len(raw)} concepts")
    # Incidence is recoverable: o has a iff some concept holds both.
    rows = [0] * len(object_ids)
    concepts = []
    for k, entry in enumerate(raw):
        if not (isinstance(entry, Mapping) and isinstance(entry.get("extent"), list)
                and isinstance(entry.get("intent"), list)):
            raise FormatError(f"concept {k}: expected a mapping with "
                              f"'extent' and 'intent' lists")
        try:
            objects = [oidx[o] for o in entry["extent"]]
            intent = mask_from_indices(aidx[a] for a in entry["intent"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"concept {k}: unknown object or attribute "
                              f"{exc}") from exc
        concepts.append(Concept(mask_from_indices(objects), intent))
        for o in objects:
            rows[o] |= intent
    ctx = FormalContext(object_ids, attributes, tuple(rows))
    return ConceptLattice(ctx, tuple(concepts), top, bottom)


def save_lattice(lattice: ConceptLattice, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(lattice_to_dict(lattice), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8")


def load_lattice(path: str | Path) -> ConceptLattice:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return lattice_from_dict(data)


def lattice_to_dot(lattice: ConceptLattice) -> str:
    """Hasse diagram in DOT form, children drawn below their parents."""
    ctx = lattice.context
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, c in enumerate(lattice.concepts):
        extent = ", ".join(ctx.object_names(c.extent)) or "{}"
        intent = ", ".join(ctx.attribute_labels(c.intent)) or "{}"
        lines.append(f'  n{i} [label="{extent}\\n{intent}" shape=box];')
    for child, parent in sorted(lattice.covers):
        lines.append(f"  n{child} -> n{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "ConceptLattice", "appose", "assemble", "build_lattice",
    "find_lower_covers", "lattice_from_dict", "lattice_to_dict",
    "lattice_to_dot", "load_lattice", "save_lattice", "split_context",
]
