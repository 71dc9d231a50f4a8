"""Derivation operators, closure, and the naive enumeration oracle."""

import random

import pytest

from helpers import demo_context, names_mask, random_context
from latticecell import (CapacityError, Concept, DimensionError,
                         FormalContext, FormatError, derive_extent,
                         derive_intent, enumerate_concepts_naive,
                         load_context_csv, save_context_csv)
from latticecell.context import NAIVE_ATTRIBUTE_LIMIT, canonical_key


@pytest.fixture(scope="module")
def ctx():
    return demo_context()


def test_context_shape(ctx):
    assert ctx.n_objects == 9
    assert ctx.n_attributes == 6
    assert ctx.object_ids[0] == "Doc 1"
    assert ctx.attribute_names == ("Stade", "Pays", "Personnage", "Ministre",
                                   "Puissance", "Visage")


def test_duplicate_ids_rejected():
    with pytest.raises(DimensionError):
        FormalContext(("a", "a"), ("x",), (0, 1))
    with pytest.raises(DimensionError):
        FormalContext(("a", "b"), ("x", "x"), (0, 1))


def test_row_length_checked():
    with pytest.raises(DimensionError):
        FormalContext(("a",), ("x",), (0b10,))  # second bit has no attribute
    with pytest.raises(DimensionError):
        FormalContext(("a", "b"), ("x",), (0,))


def test_derive_intent_examples(ctx):
    docs56 = names_mask(ctx.object_ids, ["Doc 5", "Doc 6"])
    assert ctx.attribute_labels(derive_intent(ctx, docs56)) == ("Ministre",
                                                                "Puissance")
    # empty object set shares every attribute
    assert derive_intent(ctx, 0) == ctx.full_attribute_mask
    # Doc 4 carries nothing
    assert derive_intent(ctx, names_mask(ctx.object_ids, ["Doc 4"])) == 0


def test_derive_extent_examples(ctx):
    def extent(*names):
        return derive_extent(ctx, names_mask(ctx.attribute_names, names))

    assert ctx.object_names(extent("Ministre")) == ("Doc 5", "Doc 6", "Doc 8")
    assert ctx.object_names(extent("Visage")) == ("Doc 3", "Doc 7")
    assert extent("Pays", "Visage") == 0
    assert derive_extent(ctx, 0) == ctx.full_object_mask


def test_derivation_dimension_errors(ctx):
    with pytest.raises(DimensionError):
        derive_intent(ctx, 1 << ctx.n_objects)
    with pytest.raises(DimensionError):
        derive_extent(ctx, 1 << ctx.n_attributes)
    with pytest.raises(DimensionError):
        derive_intent(ctx, -1)


def closure(ctx, objects):
    """The smallest concept whose extent holds ``objects``."""
    intent = derive_intent(ctx, objects)
    return Concept(derive_extent(ctx, intent), intent)


def test_closure_examples(ctx):
    c = closure(ctx, names_mask(ctx.object_ids, ["Doc 5"]))
    assert ctx.object_names(c.extent) == ("Doc 5", "Doc 6")
    assert ctx.attribute_labels(c.intent) == ("Ministre", "Puissance")
    assert closure(ctx, c.extent) == c

    c = closure(ctx, names_mask(ctx.object_ids, ["Doc 1", "Doc 2"]))
    assert ctx.object_names(c.extent) == ("Doc 1", "Doc 2")
    assert ctx.attribute_labels(c.intent) == ("Stade", "Pays")

    top = closure(ctx, ctx.full_object_mask)
    assert top == Concept(ctx.full_object_mask, 0)


def test_naive_enumeration_demo(ctx):
    concepts = enumerate_concepts_naive(ctx)
    assert len(concepts) == 9
    named = {(ctx.object_names(c.extent), ctx.attribute_labels(c.intent))
             for c in concepts}
    assert (ctx.object_ids, ()) in named                      # top
    assert ((), ctx.attribute_names) in named                 # bottom
    assert (("Doc 1", "Doc 2", "Doc 7"), ("Stade",)) in named
    assert (("Doc 1", "Doc 2"), ("Stade", "Pays")) in named
    assert (("Doc 3", "Doc 7"), ("Visage",)) in named
    assert (("Doc 7",), ("Stade", "Visage")) in named
    assert (("Doc 5", "Doc 6", "Doc 8"), ("Ministre",)) in named
    assert (("Doc 5", "Doc 6"), ("Ministre", "Puissance")) in named
    assert (("Doc 9",), ("Personnage",)) in named
    # canonical order and no duplicates
    keys = [canonical_key(c) for c in concepts]
    assert keys == sorted(keys)
    assert len(set(concepts)) == len(concepts)


def test_naive_enumeration_tiny_cases():
    one = FormalContext(("o",), ("a",), (1,))
    assert enumerate_concepts_naive(one) == [Concept(1, 1)]

    empty = FormalContext(("o1", "o2", "o3"), ("a", "b"), (0, 0, 0))
    concepts = enumerate_concepts_naive(empty)
    assert concepts == [Concept(0, 0b11), Concept(0b111, 0)]


def test_naive_enumeration_guard():
    n = NAIVE_ATTRIBUTE_LIMIT + 1
    ctx = FormalContext(("o",), tuple(f"a{i}" for i in range(n)), (0,))
    with pytest.raises(CapacityError):
        enumerate_concepts_naive(ctx)


def test_concepts_are_closed_everywhere():
    rnd = random.Random(11)
    for _ in range(25):
        ctx = random_context(rnd, 10, 8)
        for c in enumerate_concepts_naive(ctx):
            assert derive_intent(ctx, c.extent) == c.intent
            assert derive_extent(ctx, c.intent) == c.extent


def test_galois_laws_random():
    rnd = random.Random(7)
    for _ in range(100):
        ctx = random_context(rnd, 10, 8)
        x = rnd.getrandbits(ctx.n_objects)
        y = x | rnd.getrandbits(ctx.n_objects)  # x subseteq y
        # extensivity
        assert x & ~derive_extent(ctx, derive_intent(ctx, x)) == 0
        # antitonicity
        assert derive_intent(ctx, y) & ~derive_intent(ctx, x) == 0
        # idempotence
        ix = derive_intent(ctx, x)
        assert derive_intent(ctx, derive_extent(ctx, ix)) == ix


def test_csv_round_trip(tmp_path, ctx):
    out = tmp_path / "ctx.csv"
    save_context_csv(ctx, out)
    again = load_context_csv(out)
    assert again == ctx


def test_csv_bad_cell(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,a,b\nx,1,2\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_context_csv(bad)
    assert "row 2" in str(err.value) and "column 3" in str(err.value)


def test_csv_bad_width(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,a,b\nx,1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_context_csv(bad)


@pytest.mark.parametrize("data, message", [
    (b"id,a\nx,1\n\xff,0\n", "can't decode byte 0xff"),
    (b"id,a,a\nx,1,0\n", "row 1: duplicate attribute name 'a'"),
    (b"id,a,b\nx,1,0\ny,0,1\nx,0,0\n", "row 4: duplicate object id 'x'"),
    (b"", "missing header row"),
], ids=["not-utf8", "duplicate-attribute", "duplicate-object", "no-header"])
def test_csv_malformed_file_is_a_format_error_naming_it(tmp_path, data,
                                                        message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    with pytest.raises(FormatError, match=message) as err:
        load_context_csv(bad)
    assert str(err.value).startswith(f"{bad}: ")
