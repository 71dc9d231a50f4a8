"""Fuzzing the lattice builder and loader.

On a random context, the divide-and-conquer builder gives the naive
oracle's concepts in its order, and the covers are the brute transitive
reduction. A mutated lattice document either raises FormatError on load,
or loads. A loaded document whose concepts are the recovered context's
concepts survives a save/load round trip unchanged and has the brute
transitive reduction as its covers; any other loaded document raises
FormatError when saved, since saving reads its covers."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_transitive_reduction, demo_context
from latticecell import (FormatError, build_lattice, enumerate_concepts_naive,
                         load_lattice, save_lattice)
from latticecell.lattice import lattice_from_dict, lattice_to_dict
from strategies import contexts

DEMO_DICT = lattice_to_dict(build_lattice(demo_context()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ctx=contexts())
def test_builder_matches_naive_oracle(ctx):
    lattice = build_lattice(ctx)
    naive = enumerate_concepts_naive(ctx)
    assert list(lattice.concepts) == naive  # extents, intents and order
    assert lattice.covers == brute_transitive_reduction(naive)


# JSON values a lattice file can hold; small ints reach the top/bottom
# range checks, and names drawn from the demo lattice reach the name lookups
names = st.sampled_from(DEMO_DICT["objects"] + DEMO_DICT["attributes"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10)
    | st.integers(-2**64, 2**64)
    | st.floats(allow_nan=False) | st.text(max_size=6) | names,
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
def mutated_lattices(draw):
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
def lattice_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "lattice.json"


def _saves_iff_a_lattice(lattice, path):
    """Save a loaded lattice if and only if its concepts, each once, are
    the concepts of its context; returns whether it was one."""
    is_lattice = (sorted(lattice.concepts)
                  == sorted(enumerate_concepts_naive(lattice.context)))
    if not is_lattice:
        with pytest.raises(FormatError):
            save_lattice(lattice, path)
        return False
    save_lattice(lattice, path)
    again = load_lattice(path)
    assert again.concepts == lattice.concepts
    assert again.context == lattice.context
    assert (again.top_index, again.bottom_index) == (lattice.top_index,
                                                     lattice.bottom_index)
    assert lattice.covers == brute_transitive_reduction(list(lattice.concepts))
    return True


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=mutated_lattices())
def test_mutated_lattice_loads_or_raises_format_error(lattice_path, data):
    try:
        lattice = lattice_from_dict(json.loads(json.dumps(data)))
    except FormatError:
        return
    _saves_iff_a_lattice(lattice, lattice_path)


def _single_edits():
    """Every demo lattice with one concept, one extent object or one intent
    attribute removed; a removed concept moves the top index down."""
    for k, concept in enumerate(DEMO_DICT["concepts"]):
        data = copy.deepcopy(DEMO_DICT)
        del data["concepts"][k]
        data["top"] = min(data["top"], len(data["concepts"]) - 1)
        yield data
        for key in ("extent", "intent"):
            for name in concept[key]:
                data = copy.deepcopy(DEMO_DICT)
                data["concepts"][k][key].remove(name)
                yield data


def test_single_edits_of_the_demo_lattice(lattice_path):
    saved = [_saves_iff_a_lattice(lattice_from_dict(data), lattice_path)
             for data in _single_edits()]
    # 9 deleted concepts, 23 extent objects and 16 intent attributes; nine
    # edits leave the lattice of the context they recover
    assert (len(saved), saved.count(True)) == (48, 9)
