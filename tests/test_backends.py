"""The lattice kernels against independent recomputations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (benchmark_context, brute_transitive_reduction,
                     reference_lower_covers)
from latticecell import (FormatError, backend, build_lattice,
                         enumerate_concepts_naive)
from strategies import contexts


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


def _covers(concepts, ctx):
    return backend.lower_covers([c.extent for c in concepts],
                                [c.intent for c in concepts], ctx.rows,
                                ctx.full_attribute_mask)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ctx=contexts(), shuffle=st.randoms(use_true_random=False))
def test_pure_lower_covers_matches_brute_force(ctx, shuffle):
    """Neighbour generation against the pairwise scan and the triple loop,
    on every concept of a random context in a random order."""
    concepts = enumerate_concepts_naive(ctx)
    shuffle.shuffle(concepts)
    got = _covers(concepts, ctx)
    assert got == reference_lower_covers([c.extent for c in concepts])
    assert frozenset(got) == brute_transitive_reduction(concepts)


# rows of three objects over attributes a (bit 0) and b (bit 1); the
# concepts are ({0}, ab), ({0, 1}, a) and ({0, 1, 2}, {})
ROWS = (0b11, 0b01, 0b00)


@pytest.mark.parametrize("extents, intents, all_attributes, message", [
    ([0b001, 0b111], [0b11, 0b00], 0b11,
     "concept 0: a closed intent above it is not among the concepts"),
    ([0b001, 0b011, 0b011, 0b111], [0b11, 0b01, 0b01, 0b00], 0b11,
     "concept 2 repeats the extent or the intent of an earlier concept"),
    ([0b001, 0b011, 0b111], [0b11, 0b01, 0b00], 0b111,
     "no concept has every attribute in its intent"),
    ([0b001, 0b010, 0b111], [0b11, 0b01, 0b00], 0b11,
     "concept 1: its extent is not the set of objects that have its intent"),
], ids=["missing-concept", "repeated-concept", "no-all-attributes-intent",
        "extent-not-closed"])
def test_lower_covers_rejects_what_is_not_the_context_lattice(
        extents, intents, all_attributes, message):
    assert backend.lower_covers([0b001, 0b011, 0b111], [0b11, 0b01, 0b00],
                                ROWS, 0b11) == [(0, 1), (1, 2)]
    with pytest.raises(FormatError, match=message):
        backend.lower_covers(extents, intents, ROWS, all_attributes)


@pytest.mark.parametrize("seed", ["cli-classify/1/0", "cli-classify/2/1"])
def test_lower_covers_matches_pairwise_scan_on_benchmark_lattices(tmp_path,
                                                                   seed):
    """Lattices of about 1.3k concepts over 180 documents and 60 terms, from
    the benchmark's corpus generator and cli-classify shape."""
    ctx = benchmark_context(tmp_path, "cli-classify", seed)
    concepts = build_lattice(ctx).concepts
    assert 1200 < len(concepts) < 1700
    assert _covers(concepts, ctx) == reference_lower_covers(
        [c.extent for c in concepts])
