"""The two quadratic lattice kernels.

``merge_concept_pairs`` crosses the concepts of two partial lattices;
``lower_covers`` reduces a set of extents to its Hasse cover edges. Both
work on plain int bitsets. ``lattice`` calls them as attributes of this
module, so a caller can wrap or replace them in one place.
"""


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


def lower_covers(extents):
    """Transitive-reduction edges (child, parent) of the subset order.

    ``extents`` are distinct int bitsets. For each child, candidate
    parents are scanned smallest-first; a candidate is a cover unless it
    contains an already-accepted cover. Returns a sorted edge list.
    """
    n = len(extents)
    by_card = sorted(range(n), key=lambda i: extents[i].bit_count())
    edges = []
    for c in range(n):
        ec = extents[c]
        accepted = []
        for d in by_card:
            ed = extents[d]
            if ed == ec or ec & ~ed:
                continue  # not a strict superset of the child
            for e in accepted:
                if e & ~ed == 0:
                    break  # a smaller cover sits between
            else:
                accepted.append(ed)
                edges.append((c, d))
    edges.sort()
    return edges
