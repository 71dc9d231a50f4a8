"""The bit-matrix kernels against their per-bit and per-mask oracles."""

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (benchmark_corpus, reference_mask_sizes,
                     reference_transpose)
from latticecell import build_lattice, compile_model
from latticecell.bits import transpose
from latticecell.compiler import index_masks


@pytest.fixture(scope="module")
def train_wide(tmp_path_factory):
    """The context and compiled model of one train-wide benchmark corpus."""
    docs, ctx = benchmark_corpus(tmp_path_factory.mktemp("train-wide"),
                                 "train-wide", "train-wide/1/0")
    model = compile_model(build_lattice(ctx),
                          {d.id: d.category for d in docs},
                          sorted({d.category for d in docs}))
    return ctx, model


@st.composite
def bit_matrices(draw):
    """Rows over a width of 0-40 columns, most not a multiple of 8; a row
    may hold bits at or above the width, or be negative."""
    width = draw(st.integers(0, 40))
    row = (st.integers(0, (1 << width) - 1)
           | st.integers(-(1 << width + 12), 1 << width + 12))
    return draw(st.lists(row, max_size=70)), width


@settings(max_examples=500, deadline=None, derandomize=True)
@given(matrix=bit_matrices())
@example(matrix=([], 0))
@example(matrix=([], 13))
@example(matrix=([5, -1, 1 << 9], 0))
@example(matrix=([-1] * 9, 8))
def test_transpose_equals_the_per_bit_walk(matrix):
    rows, width = matrix
    assert transpose(rows, width) == reference_transpose(rows, width)
    # rows may be any iterable, read once
    assert transpose(iter(rows), width) == reference_transpose(rows, width)


def test_transpose_of_a_benchmark_model(train_wide):
    """The intents of a train-wide model, and its training rows."""
    ctx, model = train_wide
    intents = [mask for _, mask in model.intent_facts]
    width = len(model.vocabulary)
    assert len(intents) > 2000
    assert transpose(intents, width) == reference_transpose(intents, width)
    assert list(ctx.columns) == reference_transpose(ctx.rows, width)
    assert list(model.rule_index.columns) == reference_transpose(intents,
                                                                 width)


@st.composite
def fitted_masks(draw):
    """0-60 masks that fit a width of 0-20, all-zero masks among them."""
    width = draw(st.integers(0, 20))
    mask = st.just(0) | st.integers(0, (1 << width) - 1)
    return draw(st.lists(mask, max_size=60)), width


@settings(max_examples=500, deadline=None, derandomize=True)
@given(masks=fitted_masks())
@example(masks=([], 0))
@example(masks=([], 5))
@example(masks=([0], 0))
@example(masks=([0, 3, 0, 1, 2], 2))
def test_index_sizes_equal_a_count_per_mask(masks):
    """The sizes split from the columns' bit-sliced counts are those of a
    ``bit_count`` per mask, the size 0 included."""
    masks, width = masks
    index = index_masks(masks, reference_transpose(masks, width))
    assert index.sizes == reference_mask_sizes(masks)
    assert index.columns == tuple(reference_transpose(masks, width))


def test_index_sizes_of_a_benchmark_model(train_wide):
    _, model = train_wide
    intents = [mask for _, mask in model.intent_facts]
    assert model.rule_index.sizes == reference_mask_sizes(intents)


def test_knn_index_sizes_count_a_vector_with_no_term():
    """A training vector with no selected term has size 0, and is split
    out of the index's sizes as such."""
    masks = [0b0110, 0, 0b1000, 0]
    index = index_masks(masks, transpose(masks, 4))
    assert index.sizes == reference_mask_sizes(masks)
    assert index.sizes[0] == (0, 0b1010)
