"""The Hasse covers kernel.

``lower_covers`` derives the Hasse cover edges of a finished concept set
by neighbour generation, at a cost of concepts × objects bit operations,
on plain int bitsets. ``lattice`` calls it as an attribute of this
module, so a caller can wrap or replace it in one place. Both lattice
builders fold extents in ``lattice`` itself; this module stays apart
because ``perfbench`` imports ``lower_covers`` and ``active_backend``
from it by name.
"""


def active_backend() -> str:
    """Name of the kernel implementation in use; there is one, ``pure``."""
    return "pure"


def lower_covers(intents, rows):
    """Transitive-reduction edges (child, parent) of a context's concepts.

    ``intents[k]`` is concept k's attribute mask and ``rows[g]`` is object
    g's attribute mask. Neighbour generation (Lindig, "Fast Concept
    Analysis", 2000): for a concept (A, B), each ``B & rows[g]`` other than
    B itself (so with g outside A) is the intent of the closure of A plus
    g, and the upper covers of (A, B) are the concepts with the maximal
    ones. The cost is one AND per concept and object.

    The intents must be exactly those of the context's concepts, each once,
    as ``lattice._finish`` builds them and ``lattice_from_dict`` checks them
    at load. Returns the edges in no particular order.
    """
    index = {intent: k for k, intent in enumerate(intents)}
    edges = []
    for k, intent in enumerate(intents):
        distinct = set(map(intent.__and__, rows))
        distinct.discard(intent)
        maximal: list[int] = []
        # a superset has more bits, so it is seen before its subsets
        for candidate in sorted(distinct, key=int.bit_count, reverse=True):
            for above in maximal:
                if candidate | above == above:
                    break
            else:
                maximal.append(candidate)
        edges += zip([k] * len(maximal), map(index.__getitem__, maximal))
    return edges
