"""Fuzzing the lattice builder and loader.

On a random context, the column-folding builder gives the halving
oracle's and the naive oracle's concepts in their order, ``assemble`` at
any split gives the naive oracle's, and the covers are the brute
transitive reduction. The int key the builders sort extents by orders
random extents as ``canonical_key`` does. A mutated lattice document
either raises FormatError on load, or loads as the lattice of the context
it recovers, with top and bottom in place; such a lattice survives a
save/load round trip unchanged and has the brute transitive reduction as
its covers. Either way the loader does as ``reference_lattice_from_dict``,
the per-name loop, does."""

import copy
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (assert_same_outcome, brute_transitive_reduction,
                     demo_context, names_mask, reference_build_lattice,
                     reference_lattice_from_dict)
from latticecell import (Concept, FormalContext, FormatError, assemble,
                         build_lattice, enumerate_concepts_naive, load_lattice,
                         save_lattice)
from latticecell.bits import mask_from_indices
from latticecell.context import canonical_key
from latticecell.lattice import (_closed_extents, _finish, lattice_from_dict,
                                 lattice_to_dict)
from strategies import contexts

DEMO_DICT = lattice_to_dict(build_lattice(demo_context()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ctx=contexts())
def test_builder_matches_naive_oracle(ctx):
    lattice = build_lattice(ctx)
    naive = enumerate_concepts_naive(ctx)
    # extents, intents and order
    assert list(lattice.concepts) == naive == reference_build_lattice(ctx)
    assert lattice.covers == brute_transitive_reduction(naive)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ctx=contexts(), data=st.data())
def test_assemble_matches_naive_oracle(ctx, data):
    """At any attribute split, in order."""
    k = data.draw(st.integers(0, ctx.n_attributes))
    low = (1 << k) - 1
    left = FormalContext(ctx.object_ids, ctx.attribute_names[:k],
                         tuple(r & low for r in ctx.rows))
    right = FormalContext(ctx.object_ids, ctx.attribute_names[k:],
                          tuple(r >> k for r in ctx.rows))
    lattice = assemble(build_lattice(left), build_lattice(right))
    assert list(lattice.concepts) == enumerate_concepts_naive(ctx)


@st.composite
def extent_sets(draw):
    """Extents over 0, 1, 7, 8, 9 or 17-70 objects, with the empty and
    the full extent; some drawn as index sets, so equal sizes are common."""
    n = draw(st.sampled_from((0, 1, 7, 8, 9)) | st.integers(17, 70))
    full = (1 << n) - 1
    index_set = st.sets(st.integers(0, max(n - 1, 0)), max_size=n).map(
        lambda indices: mask_from_indices(i for i in indices if i < n))
    extents = draw(st.sets(st.integers(0, full) | index_set, max_size=40))
    return n, extents | {0, full}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=extent_sets())
def test_finish_sorts_extents_as_canonical_key(case):
    """The int sort key crosses byte boundaries as ``canonical_key`` does."""
    n, extents = case
    ctx = FormalContext(tuple(f"o{i}" for i in range(n)), (), (0,) * n)
    got = [c.extent for c in _finish(ctx, extents).concepts]
    assert got == sorted(extents, key=lambda e: canonical_key(Concept(e, 0)))


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


def _is_the_lattice_of(ctx, concepts, top, bottom):
    """Whether ``concepts`` are the concepts of ``ctx``, each once, with
    ``top`` and ``bottom`` indexing the top and bottom concepts."""
    return (sorted(concepts) == sorted(enumerate_concepts_naive(ctx))
            and concepts[top].extent == ctx.full_object_mask
            and concepts[bottom].intent == ctx.full_attribute_mask)


def _round_trips(lattice, path):
    save_lattice(lattice, path)
    again = load_lattice(path)
    assert again.concepts == lattice.concepts
    assert again.context == lattice.context
    assert (again.top_index, again.bottom_index) == (lattice.top_index,
                                                     lattice.bottom_index)
    assert lattice.covers == brute_transitive_reduction(list(lattice.concepts))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=mutated_lattices())
def test_mutated_lattice_loads_or_raises_format_error(lattice_path, data):
    try:
        lattice = lattice_from_dict(json.loads(json.dumps(data)))
    except FormatError:
        return
    assert _is_the_lattice_of(lattice.context, lattice.concepts,
                              lattice.top_index, lattice.bottom_index)
    _round_trips(lattice, lattice_path)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=mutated_lattices())
def test_mutated_lattice_loads_as_the_reference_loader(data):
    assert_same_outcome(lattice_from_dict, reference_lattice_from_dict,
                        json.loads(json.dumps(data)))


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


def _recovered_lattice(data):
    """The concepts of a well-formed lattice document over the context it
    describes, read without the loader: an object has an attribute iff
    some concept holds both."""
    shared = {o: set() for o in data["objects"]}
    for concept in data["concepts"]:
        for o in concept["extent"]:
            shared[o].update(concept["intent"])
    attributes = data["attributes"]
    ctx = FormalContext(
        tuple(data["objects"]), tuple(attributes),
        tuple(mask_from_indices(j for j, a in enumerate(attributes)
                                if a in shared[o])
              for o in data["objects"]))
    concepts = [Concept(names_mask(ctx.object_ids, c["extent"]),
                        names_mask(ctx.attribute_names, c["intent"]))
                for c in data["concepts"]]
    return ctx, concepts


def _loads_iff_a_lattice(data, path):
    """Load a well-formed document if and only if it is the lattice of the
    context it describes; returns whether it loaded."""
    ctx, concepts = _recovered_lattice(data)
    if not _is_the_lattice_of(ctx, concepts, data["top"], data["bottom"]):
        with pytest.raises(FormatError):
            lattice_from_dict(data)
        return False
    lattice = lattice_from_dict(data)
    assert (lattice.context, list(lattice.concepts)) == (ctx, concepts)
    _round_trips(lattice, path)
    return True


def test_single_edits_of_the_demo_lattice(lattice_path):
    loaded = [_loads_iff_a_lattice(data, lattice_path)
              for data in _single_edits()]
    # 9 deleted concepts, 23 extent objects and 16 intent attributes; nine
    # edits leave the lattice of the context they recover
    assert (len(loaded), loaded.count(True)) == (48, 9)


def test_single_edits_load_as_the_reference_loader():
    for data in _single_edits():
        assert_same_outcome(lattice_from_dict, reference_lattice_from_dict,
                            data)


def _concept_with(k, **entry):
    data = copy.deepcopy(DEMO_DICT)
    data["concepts"][k].update(entry)
    return data


@pytest.mark.parametrize("data, error", [
    # the first bad name in order, the extent's before the intent's
    (_concept_with(3, extent=["Doc 1", "Doc 1", "zzz"]),
     "concept 3: 'Doc 1' repeated"),
    (_concept_with(3, extent=["zzz", "Doc 1", "Doc 1"]),
     "concept 3: unknown object or attribute 'zzz'"),
    (_concept_with(3, extent=["Doc 1", "Doc 1"], intent=["zzz"]),
     "concept 3: 'Doc 1' repeated"),
    (_concept_with(3, intent=["zzz", "Stade", "Stade"]),
     "concept 3: unknown object or attribute 'zzz'"),
    (_concept_with(3, intent=["Stade", "Pays", "Stade"]),
     "concept 3: 'Stade' repeated"),
    (_concept_with(3, extent=[["Doc 1"]]),
     "concept 3: unknown object or attribute unhashable type: 'list'"),
    (_concept_with(3, intent=["Stade"]),
     "concept 3: its extent is not closed; more objects share its objects' "
     "attributes"),
])
def test_bad_concepts_load_as_the_reference_loader(data, error):
    assert_same_outcome(lattice_from_dict, reference_lattice_from_dict, data)
    with pytest.raises(FormatError, match=re.escape(error) + "$"):
        lattice_from_dict(data)


@pytest.mark.parametrize("key", sorted(DEMO_DICT))
@pytest.mark.parametrize("value", [None, 5, 2.5, True, "x", [], {}],
                         ids=repr)
def test_a_replaced_top_level_value_loads_as_the_reference_loader(key, value):
    data = copy.deepcopy(DEMO_DICT)
    data[key] = value
    assert_same_outcome(lattice_from_dict, reference_lattice_from_dict, data)


def test_top_and_bottom_must_point_at_the_top_and_bottom():
    data = copy.deepcopy(DEMO_DICT)
    data["top"], data["bottom"] = 3, 5
    with pytest.raises(FormatError, match="top concept 3"):
        lattice_from_dict(data)
    data["top"] = DEMO_DICT["top"]
    with pytest.raises(FormatError, match="bottom concept 5"):
        lattice_from_dict(data)


def test_a_file_recovering_a_far_larger_lattice_fails_early():
    """One concept per object recovers the contranominal scale, whose
    lattice has 2**n concepts; the check stops after a few columns."""
    n = 16
    objects = [f"o{i}" for i in range(n)]
    attributes = [f"a{i}" for i in range(n)]
    data = {"objects": objects, "attributes": attributes,
            "concepts": [{"extent": [], "intent": attributes}]
            + [{"extent": [o], "intent": attributes[:i] + attributes[i + 1:]}
               for i, o in enumerate(objects)]
            + [{"extent": objects, "intent": []}],
            "covers": [], "top": n + 1, "bottom": 0}
    with pytest.raises(FormatError, match="no concept has the closed extent"):
        lattice_from_dict(data)
    full = (1 << n) - 1
    ctx = FormalContext(tuple(objects), tuple(attributes),
                        tuple(full ^ 1 << i for i in range(n)))
    assert n + 2 < len(_closed_extents(ctx, n + 2)) <= 2 * (n + 2)
    assert len(_closed_extents(ctx)) == 2 ** n
