"""The Hasse covers kernel.

``lower_covers`` derives the Hasse cover edges of a finished concept set
as a bitset transitive reduction over the concepts in size order, at a
cost of one AND per incidence of the side it runs on and one per edge,
each as wide as the concepts before it, on plain int bitsets.
``lattice`` calls it as an attribute of this module, so a caller can
wrap or replace it in one place. Both lattice builders fold extents in
``lattice`` itself; this module stays apart because ``perfbench``
imports ``lower_covers`` and ``active_backend`` from it by name.
"""

from functools import reduce
from operator import and_

from .bits import iter_bits, transpose


def active_backend() -> str:
    """Name of the kernel implementation in use; there is one, ``pure``."""
    return "pure"


def lower_covers(extents, intents):
    """Transitive-reduction edges (child, parent) of a context's concepts.

    Concept k is (``extents[k]``, ``intents[k]``), in any order. A child's
    intent is a strict superset of its parent's and its extent a strict
    subset, so the covers are the minimal strict supersets among the
    intents (child over parent) or, dually, among the extents (parent over
    child). They are found on whichever side has fewer incidences, the
    intents' bits or the extents' bits, by ``_minimal_supersets``.

    The cover lemma (Lindig, "Fast Concept Analysis", 2000) makes each
    edge's deletion exact: if concept j covers concept k from below and
    ``a`` is an attribute of j's intent outside k's, then the concepts
    whose intent holds k's and ``a`` are exactly j and those below it.
    The concepts must be exactly those of the context, each once, as
    ``lattice._finish`` builds them and ``lattice_from_dict`` checks them
    at load. Returns the edges in no particular order.
    """
    if sum(map(int.bit_count, extents)) < sum(map(int.bit_count, intents)):
        return [(child, parent)
                for parent, child in _minimal_supersets(extents)]
    return _minimal_supersets(intents)


def _minimal_supersets(masks):
    """(j, k) for each k and each minimal strict superset ``masks[j]`` of
    ``masks[k]``, where ``masks`` are the intents, or the extents, of the
    concepts of a context.

    The masks go in decreasing size, so every strict superset of a mask
    comes before it (the transitive reduction of a bitset order: Aho,
    Garey & Ullman, SIAM J. Comput. 1972). At position k, ``rest`` starts
    as the positions before k whose mask holds every bit of mask k, one
    AND of the bit's holders per bit. Its highest position j is a minimal
    superset, since any mask between the two would sit after j and before
    k. Then one AND with the holders of one bit of mask j outside mask k
    takes j and every superset of mask j out of ``rest``: by the cover
    lemma, the closed masks that hold mask k and that bit are exactly
    those. What is left holds no superset of an edge already taken.
    """
    sizes = list(map(int.bit_count, masks))
    order = sorted(range(len(masks)), key=sizes.__getitem__, reverse=True)
    ordered = list(map(masks.__getitem__, order))
    holders = transpose(ordered, max(masks, default=0).bit_length())
    edges = []
    for k, mask in enumerate(ordered):
        rest = reduce(and_, map(holders.__getitem__, iter_bits(mask)),
                      (1 << k) - 1)
        while rest:
            j = rest.bit_length() - 1
            edges.append((order[j], order[k]))
            rest ^= rest & holders[(ordered[j] & ~mask).bit_length() - 1]
    return edges
