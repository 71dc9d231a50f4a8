"""The lattice kernels.

``merge_concept_pairs`` crosses the concepts of two partial lattices, at a
cost of |L1|·|L2| dict probes; ``lattice.assemble`` is its one caller, as
``build_lattice`` folds in one attribute column at a time instead.
``lower_covers`` derives the Hasse cover edges of a finished concept set
by neighbour generation, at a cost of concepts × objects bit operations.
Both work on plain int bitsets. ``lattice`` calls them as attributes of
this module, so a caller can wrap or replace them in one place.
"""

from .errors import FormatError


def active_backend() -> str:
    """Name of the kernel implementation in use; there is one, ``pure``."""
    return "pure"


def merge_concept_pairs(extents1, intents1, extents2, intents2):
    """Cross every concept of one lattice with every concept of the other.

    For each pair the candidate extent is the intersection of the two
    extents; pairs that regenerate an already-seen extent have their
    intent union folded into the stored entry. Returns parallel lists
    (extents, intents) of the distinct results, in first-seen order.

    All masks are int bitsets; intent masks must already live in a shared
    attribute index space (callers shift the right-hand intents).
    """
    if len(extents1) != len(intents1) or len(extents2) != len(intents2):
        raise ValueError("extent and intent lists must have equal lengths")
    index: dict[int, int] = {}
    out_extents: list[int] = []
    out_intents: list[int] = []
    pairs2 = list(zip(extents2, intents2))
    for e1, i1 in zip(extents1, intents1):
        for e2, i2 in pairs2:
            extent = e1 & e2
            at = index.get(extent)
            if at is None:
                index[extent] = len(out_extents)
                out_extents.append(extent)
                out_intents.append(i1 | i2)
            else:
                out_intents[at] |= i1 | i2
    return out_extents, out_intents


def lower_covers(extents, intents, rows, all_attributes):
    """Transitive-reduction edges (child, parent) of a context's concepts.

    ``extents[k]`` and ``intents[k]`` are concept k's object and attribute
    masks, ``rows[g]`` is object g's attribute mask, and ``all_attributes``
    is the mask of every attribute. Neighbour generation (Lindig, "Fast
    Concept Analysis", 2000): for a concept (A, B), each ``B & rows[g]``
    with g outside A is the intent of the closure of A plus g, and the
    upper covers of (A, B) are the concepts with the maximal ones. The
    cost is one AND per concept and object.

    The concepts must be exactly the context's concepts, and every object
    of an extent must carry its intent (true of a built lattice and of the
    rows ``lattice_from_dict`` recovers). The same sweep checks this: the
    extents and the intents are distinct, the all-attributes intent is
    present, each extent has as many objects as carry its intent, and each
    maximal candidate is a stored intent. Starting from the all-attributes
    concept, every concept is then reached through stored covers, so no
    concept is missing, and none is extra. A failed check raises
    ``FormatError`` naming the concept. Returns a sorted edge list.
    """
    index: dict[int, int] = {}
    by_extent: dict[int, int] = {}
    for k, (extent, intent) in enumerate(zip(extents, intents)):
        if (index.setdefault(intent, k) != k
                or by_extent.setdefault(extent, k) != k):
            raise FormatError(f"concept {k} repeats the extent or the intent "
                              f"of an earlier concept")
    if all_attributes not in index:
        raise FormatError("no concept has every attribute in its intent")
    edges = []
    for k, (extent, intent) in enumerate(zip(extents, intents)):
        candidates = list(map(intent.__and__, rows))
        if candidates.count(intent) != extent.bit_count():
            raise FormatError(f"concept {k}: its extent is not the set of "
                              f"objects that have its intent")
        distinct = set(candidates)
        distinct.discard(intent)
        maximal: list[int] = []
        # a superset has more bits, so it is seen before its subsets
        for candidate in sorted(distinct, key=int.bit_count, reverse=True):
            for above in maximal:
                if candidate | above == above:
                    break
            else:
                maximal.append(candidate)
        parents = list(map(index.get, maximal))
        if None in parents:
            raise FormatError(f"concept {k}: a closed intent above it is "
                              f"not among the concepts")
        edges += zip([k] * len(parents), parents)
    edges.sort()
    return edges
