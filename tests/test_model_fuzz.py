"""Fuzzing the model loader: a mutated model document either loads, and
then survives a save/load round trip unchanged, or raises FormatError."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import DEMO_CATEGORIES, demo_context, demo_labels_map
from latticecell import (FormatError, build_lattice, compile_model,
                         load_model, save_model)
from latticecell.compiler import model_from_dict, model_to_dict

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
