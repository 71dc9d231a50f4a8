"""Fuzzing the model loader: a mutated model document either loads, and
then survives a save/load round trip unchanged, or raises FormatError;
either way as ``reference_model_from_dict``, the per-fact loop, does. A
drawn list of ``[numerator, denominator]`` pairs parses in integers as
``reference_distribution_from_pairs`` parses it in ``Fraction``s."""

import copy
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (DEMO_CATEGORIES, assert_same_outcome, assert_same_result,
                     demo_context, demo_labels_map,
                     reference_distribution_from_pairs,
                     reference_model_from_dict)
from latticecell import (FormatError, build_lattice, compile_model,
                         load_model, save_model)
from latticecell.compiler import (_distribution_from_pairs, model_from_dict,
                                  model_to_dict)

DEMO_DICT = model_to_dict(compile_model(build_lattice(demo_context()),
                                        demo_labels_map(), DEMO_CATEGORIES))

# JSON values a model file can hold; ints near the fact and vocabulary
# sizes reach the index checks
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 16)
    | st.integers(-2**64, 2**64)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


def _paths(node, path=()):
    """The key path of every value nested inside ``node``."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _paths(node[key], path + (key,))


@st.composite
def mutated_models(draw):
    data = copy.deepcopy(DEMO_DICT)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = data
        for step in parent_path:
            parent = parent[step]
        action = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return data


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=mutated_models())
def test_mutated_model_loads_or_raises_format_error(model_path, data):
    try:
        model = model_from_dict(json.loads(json.dumps(data)))
    except FormatError:
        return
    save_model(model, model_path)
    assert load_model(model_path) == model


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=mutated_models())
def test_mutated_model_loads_as_the_reference_loader(data):
    assert_same_outcome(model_from_dict, reference_model_from_dict,
                        json.loads(json.dumps(data)))


def _demo_with(**edits):
    """The demo model document with ``fact<i>_<key>=value`` edits."""
    data = copy.deepcopy(DEMO_DICT)
    for name, value in edits.items():
        fact, key = name.split("_", 1)
        data["facts"][int(fact[4:])][key] = value
    return data


# facts 1, 5 and 11 share the distribution [[1, 1], [0, 1], [0, 1]], so
# facts 5 and 11 reuse the one parsed for fact 1
FLOAT = [[1.0, 1], [0, 1], [0, 1]]


@pytest.mark.parametrize("data, error", [
    (_demo_with(fact5_distribution=FLOAT),
     "fact 5: fraction [1.0, 1] is not a pair of integers"),
    (_demo_with(fact11_distribution=FLOAT, fact5_distribution=FLOAT),
     "fact 5: fraction [1.0, 1] is not a pair of integers"),
    # an earlier reused float pair wins over a later error of each kind
    (_demo_with(fact5_distribution=FLOAT, fact7_kind="bogus"),
     "fact 5: fraction [1.0, 1] is not a pair of integers"),
    (_demo_with(fact5_distribution=FLOAT, fact8_attributes=[0, 0]),
     "fact 5: fraction [1.0, 1] is not a pair of integers"),
    (_demo_with(fact5_distribution=FLOAT, fact9_distribution=7),
     "fact 5: fraction [1.0, 1] is not a pair of integers"),
    (_demo_with(fact5_distribution=FLOAT, fact13_distribution=[[1, 0]] * 3),
     "fact 5: fraction [1.0, 1] is not a pair of integers"),
    # and an earlier error wins over a later reused float pair
    (_demo_with(fact11_distribution=FLOAT, fact4_attributes=[0, 0]),
     "fact 4: attribute 0 repeated"),
    (_demo_with(fact11_distribution=FLOAT, fact3_distribution=[[1, 1]]),
     "fact 3: 1 fractions for 3 categories"),
    # a float pair parsed first is rejected where it stands
    (_demo_with(fact1_distribution=FLOAT),
     "fact 1: fraction [1.0, 1] is not a pair of integers"),
    # a bool pair parses as its int twin, reused or not
    (_demo_with(fact5_distribution=[[True, 1], [0, 1], [0, True]]), None),
    (_demo_with(fact1_distribution=[[1, 1], [False, 1], [0, 1]]), None),
])
def test_reused_distributions_load_as_the_reference_loader(data, error):
    got = assert_same_outcome(model_from_dict, reference_model_from_dict, data)
    if error is None:
        assert got == model_from_dict(DEMO_DICT)
    else:
        with pytest.raises(FormatError, match=re.escape(error) + "$"):
            model_from_dict(data)


@pytest.mark.parametrize("key", sorted(DEMO_DICT))
@pytest.mark.parametrize("value", [None, 5, 2.5, True, "x", [], {}],
                         ids=repr)
def test_a_replaced_top_level_value_loads_as_the_reference_loader(key, value):
    data = copy.deepcopy(DEMO_DICT)
    data[key] = value
    assert_same_outcome(model_from_dict, reference_model_from_dict, data)


@pytest.mark.parametrize("facts, error", [
    (None, "malformed fact entry: 'NoneType' object is not iterable"),
    (5, "malformed fact entry: 'int' object is not iterable"),
])
def test_facts_that_are_not_a_list_raise_format_error(facts, error):
    with pytest.raises(FormatError, match=re.escape(error) + "$"):
        model_from_dict({**DEMO_DICT, "facts": facts})


# what a pair's slot can hold: small ints (zero and negative included),
# ints far beyond a float's precision, bools, floats, strings and None
pair_items = (st.integers(-4, 12) | st.integers(-2**70, 2**70) | st.booleans()
              | st.floats(allow_nan=False) | st.text(max_size=2) | st.none())
int_pairs = st.lists(st.integers(-4, 12) | st.booleans(), min_size=2,
                     max_size=2)


@st.composite
def distributions_as_pairs(draw):
    """Counts over a drawn total, each as a pair scaled by a nonzero,
    possibly negative, factor: unreduced, and summing to 1. Half the
    time, each 0 and 1 is written as a bool."""
    total = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=3)))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    pairs = [[c * k, total * k] for c in counts
             for k in [draw(st.integers(-3, 3).filter(bool))]]
    if draw(st.booleans()):
        pairs = [[bool(v) if v in (0, 1) else v for v in pair]
                 for pair in pairs]
    return pairs


@st.composite
def pair_lists(draw):
    """A category count and, one time in ten, a value that is not a list;
    else pairs that sum to 1, or integer pairs, with 0-2 of them replaced
    by another integer pair, a 1- to 3-item list, or a value that is not
    a list. The count is, three times in four, the list's length."""
    if draw(st.integers(0, 9)) == 0:
        pairs = draw(pair_items)
    else:
        pairs = draw(distributions_as_pairs() | st.lists(int_pairs, max_size=4))
        replacements = (int_pairs, int_pairs,
                        st.lists(pair_items, min_size=1, max_size=3), pair_items)
        for _ in range(draw(st.integers(0, 2)) if pairs else 0):
            at = draw(st.integers(0, len(pairs) - 1))
            pairs[at] = draw(replacements[draw(st.integers(0, 3))])
    width = len(pairs) if isinstance(pairs, list) else 0
    if draw(st.integers(0, 3)) == 0:
        return pairs, draw(st.integers(0, 4))
    return pairs, width


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(drawn=pair_lists())
def test_pairs_parse_as_the_fraction_parser(drawn):
    """The integer parser gives an equal distribution of plain ints, or
    raises the same exception with the same text, for any category count,
    zero included."""
    pairs, n_categories = drawn
    got = assert_same_result(
        lambda: _distribution_from_pairs(7, pairs, n_categories),
        lambda: reference_distribution_from_pairs(7, pairs, n_categories))
    if got is not None:
        assert {type(v) for v in (*got.counts, got.total)} == {int}
