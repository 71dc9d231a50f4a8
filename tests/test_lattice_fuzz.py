"""Fuzzing the lattice builder and loader.

On a random context, the divide-and-conquer builder gives the naive
oracle's concepts in its order, and the covers are the brute transitive
reduction. A mutated lattice document either loads, and then survives a
save/load round trip unchanged, or raises FormatError."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_transitive_reduction, demo_context
from latticecell import (FormalContext, FormatError, build_lattice,
                         enumerate_concepts_naive, load_lattice, save_lattice)
from latticecell.bits import list_to_bits, transpose
from latticecell.lattice import lattice_from_dict, lattice_to_dict

DEMO_DICT = lattice_to_dict(build_lattice(demo_context()))

@st.composite
def contexts(draw):
    """0-12 objects and attributes; each column is empty, full or random."""
    n_objects, n_attributes = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    random_column = st.lists(st.booleans(), min_size=n_objects,
                             max_size=n_objects).map(list_to_bits)
    columns = draw(st.lists(random_column
                            | st.sampled_from((0, (1 << n_objects) - 1)),
                            min_size=n_attributes, max_size=n_attributes))
    return FormalContext(tuple(f"o{i}" for i in range(n_objects)),
                         tuple(f"a{j}" for j in range(n_attributes)),
                         tuple(transpose(columns, n_objects)))


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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=mutated_lattices())
def test_mutated_lattice_loads_or_raises_format_error(lattice_path, data):
    try:
        lattice = lattice_from_dict(json.loads(json.dumps(data)))
    except FormatError:
        return
    save_lattice(lattice, lattice_path)
    again = load_lattice(lattice_path)
    assert again.concepts == lattice.concepts
    assert again.context == lattice.context
    assert (again.top_index, again.bottom_index) == (lattice.top_index,
                                                     lattice.bottom_index)
