"""The lattice kernels against independent recomputations."""

import random

import pytest

from latticecell import backend


def _random_mask_lists(rnd, bits, n):
    return [rnd.getrandbits(bits) for _ in range(n)]


def test_active_backend_is_pure():
    assert backend.active_backend() == "pure"


@pytest.mark.parametrize("bits", [5, 64, 65, 130])
def test_merge_pairs_matches_dict_recomputation(bits):
    """First-seen order of extents, intents OR-folded on duplicates."""
    rnd = random.Random(21 + bits)
    e1 = _random_mask_lists(rnd, bits, 8)
    i1 = _random_mask_lists(rnd, 40, 8)
    e2 = _random_mask_lists(rnd, bits, 9)
    i2 = _random_mask_lists(rnd, 40, 9)
    want: dict[int, int] = {}
    for a, x in zip(e1, i1):
        for b, y in zip(e2, i2):
            want[a & b] = want.get(a & b, 0) | x | y
    got = backend.merge_concept_pairs(e1, i1, e2, i2)
    assert got == (list(want), list(want.values()))
    if bits == 5:  # 72 pairs over 32 possible extents: some must fold
        assert len(got[0]) < len(e1) * len(e2)


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        backend.merge_concept_pairs([1], [], [1], [1])


def test_pure_lower_covers_matches_brute_force():
    from helpers import brute_transitive_reduction
    from latticecell.context import Concept

    rnd = random.Random(24)
    for _ in range(40):
        extents = list({rnd.getrandbits(10) for _ in range(rnd.randint(1, 15))})
        got = backend.lower_covers(extents)
        want = brute_transitive_reduction([Concept(e, 0) for e in extents])
        assert frozenset(got) == want
