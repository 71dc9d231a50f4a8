"""The Hasse covers kernel.

``lower_covers`` derives the Hasse cover edges of a finished concept set
by neighbour generation over whichever of the context's rows and columns
is fewer, at a cost of concepts × min(objects, attributes) bit
operations, on plain int bitsets. ``lattice`` calls it as an attribute of
this module, so a caller can wrap or replace it in one place. Both
lattice builders fold extents in ``lattice`` itself; this module stays
apart because ``perfbench`` imports ``lower_covers`` and
``active_backend`` from it by name.
"""

from itertools import repeat


def active_backend() -> str:
    """Name of the kernel implementation in use; there is one, ``pure``."""
    return "pure"


def lower_covers(extents, intents, rows, columns):
    """Transitive-reduction edges (child, parent) of a context's concepts.

    Concept k is (``extents[k]``, ``intents[k]``); ``rows[g]`` is object
    g's attribute mask and ``columns[m]`` attribute m's object mask.
    Neighbour generation (Lindig, "Fast Concept Analysis", 2000) runs on
    the smaller side of the context:

    - over the columns, the lower covers of (A, B) are the concepts whose
      extents are the maximal ``A & columns[m]`` other than A (so with m
      outside B): each is closed, and a child's extent is one of them;
    - over the rows, dually, the upper covers of (A, B) are the concepts
      whose intents are the maximal ``B & rows[g]`` other than B.

    The cost is one AND per concept and line swept. The concepts must be
    exactly those of the context, each once, as ``lattice._finish`` builds
    them and ``lattice_from_dict`` checks them at load. Returns the edges
    in no particular order.
    """
    if len(columns) < len(rows):
        return [(child, parent)
                for parent, child in _neighbours(extents, columns)]
    return list(_neighbours(intents, rows))


def _neighbours(masks, lines):
    """(k, j) for each concept k and each maximal ``masks[k] & line`` other
    than ``masks[k]``, where that maximal mask is ``masks[j]``."""
    index = {mask: k for k, mask in enumerate(masks)}
    for k, mask in enumerate(masks):
        distinct = set(map(mask.__and__, lines))
        distinct.discard(mask)
        maximal: list[int] = []
        # a superset has more bits, so it is seen before its subsets
        for candidate in sorted(distinct, key=int.bit_count, reverse=True):
            for above in maximal:
                if candidate | above == above:
                    break
            else:
                maximal.append(candidate)
        yield from zip(repeat(k), map(index.__getitem__, maximal))
