"""The model and lattice writers against their oracle.

``save_model`` and ``save_lattice`` render their files from text
templates. ``write_json`` of ``model_to_dict`` and ``lattice_to_dict``,
that is ``json.dumps(..., ensure_ascii=False, indent=2)`` plus a newline,
defines the bytes they must write, for any names and labels: quotes,
backslashes, control characters, non-ASCII and astral text included.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_context_of_size
from latticecell import (CellularModel, ClassDistribution, FormalContext,
                         build_lattice, compile_model, save_lattice,
                         save_model)
from latticecell.compiler import load_model, model_from_dict, model_to_dict
from latticecell.errors import DimensionError
from latticecell.lattice import lattice_to_dict

# text that JSON must escape or pass through: quotes, backslashes,
# control characters, DEL, non-ASCII and astral characters
texts = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\té€\U0001f600a')
                | st.characters(exclude_categories=("Cs",)), max_size=6)


def oracle_bytes(data) -> bytes:
    return (json.dumps(data, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("writers") / "out.json"


@st.composite
def models(draw):
    """Up to 5 rules over arbitrary names, their facts in a shuffled order,
    some rules sharing a premise fact (with its one intent), drawing their
    distributions from a small pool so that some repeat."""
    categories = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    vocabulary = draw(st.lists(texts, max_size=6, unique=True))
    n_rules = draw(st.integers(0, 5))
    n_premises = draw(st.integers(min(n_rules, 1), n_rules))
    n_facts = n_premises + n_rules
    order = draw(st.permutations(range(n_facts)))
    intents = draw(st.lists(st.integers(0, (1 << len(vocabulary)) - 1),
                            min_size=n_premises, max_size=n_premises))
    # every premise is some rule's; the other rules draw theirs
    premises = draw(st.permutations(
        [*range(n_premises), *draw(st.lists(
            st.integers(0, max(n_premises - 1, 0)),
            min_size=n_rules - n_premises, max_size=n_rules - n_premises))]))
    counts = st.lists(st.integers(0, 150), min_size=len(categories),
                      max_size=len(categories)).filter(any)
    pool = [ClassDistribution.from_counts(c, sum(c))
            for c in draw(st.lists(counts, min_size=1, max_size=3))]
    return CellularModel(
        tuple(categories),
        tuple(draw(st.lists(texts, min_size=n_facts, max_size=n_facts))),
        tuple((order[p], intents[p]) for p in premises),
        tuple((e, draw(st.sampled_from(pool))) for e in order[n_premises:]),
        tuple(vocabulary))


@st.composite
def contexts(draw):
    """0-6 objects and 0-6 attributes with arbitrary names."""
    object_ids = draw(st.lists(texts, max_size=6, unique=True))
    attributes = draw(st.lists(texts, max_size=6, unique=True))
    rows = draw(st.lists(st.integers(0, (1 << len(attributes)) - 1),
                         min_size=len(object_ids), max_size=len(object_ids)))
    return FormalContext(tuple(object_ids), tuple(attributes), tuple(rows))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=models())
def test_save_model_writes_the_oracle_bytes(out, model):
    save_model(model, out)
    assert out.read_bytes() == oracle_bytes(model_to_dict(model))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=models())
def test_a_model_survives_its_file_and_its_dict(out, model):
    """Rules sharing a premise fact included, every model the constructor
    accepts loads back equal, from its file and from its dict form."""
    save_model(model, out)
    assert load_model(out) == model
    assert model_from_dict(model_to_dict(model)) == model


def test_save_model_without_rules_writes_empty_lists(out):
    model = CellularModel(("a",), (), (), (), ())
    save_model(model, out)
    assert out.read_bytes() == oracle_bytes(model_to_dict(model))
    assert b'"facts": [],\n  "rules": []\n}' in out.read_bytes()


HALF = ClassDistribution.from_counts((1, 1), 2)
THIRDS = ClassDistribution.from_counts((1, 1, 1), 3)


@pytest.mark.parametrize("n_facts, premises, conclusions, changes, error, "
                         "message", [
    (3, (0,), (1,), {}, ValueError, "fact 2 is referenced by no rule"),
    (3, (0, 1), (1, 2), {}, ValueError,
     "fact 1 is both a premise and a conclusion"),
    # as many facts of each kind as there are facts, one of them of both
    (4, (0, 1), (1, 2), {}, ValueError,
     "fact 1 is both a premise and a conclusion"),
    # the lowest of the two faulty facts is named, whichever its fault
    (4, (0, 3), (1, 3), {}, ValueError, "fact 2 is referenced by no rule"),
    # two rules share premise fact 0, each giving it its own intent
    (3, (0, 0), (1, 2), {}, ValueError, "fact 0 carries two intents"),
    # one rule, whose distribution or names its file cannot hold
    (2, (0,), (1,), {"dist": THIRDS}, DimensionError,
     "rule 0: 3 fractions for 2 categories"),
    (2, (0,), (1,), {"categories": ("a", "a")}, ValueError,
     "categories: repeated name 'a'"),
    (2, (0,), (1,), {"vocabulary": ("x", "x")}, ValueError,
     "vocabulary: repeated name 'x'"),
], ids=["unreferenced", "both", "both-and-unreferenced",
        "unreferenced-and-both", "two-intents", "distribution-width",
        "repeated-category", "repeated-term"])
@pytest.mark.parametrize("writer", ["save_model", "model_to_dict"])
def test_writers_reject_a_model_no_file_can_hold(tmp_path, writer, n_facts,
                                                 premises, conclusions,
                                                 changes, error, message):
    """A file gives each fact one kind, which the loader checks against the
    rules, each premise fact one intent, each distribution one fraction
    per category, and names each category and term once; a model that
    breaks any of these is refused where it is made, naming the fact, the
    rule or the name, so no writer is handed one and no file is written."""
    path = tmp_path / "model.json"
    fields = {"categories": ("a", "b"), "vocabulary": ("t", "u"),
              "dist": HALF, **changes}
    with pytest.raises(error, match=f"^{message}$"):
        model = CellularModel(
            fields["categories"], tuple(f"[f{i}]" for i in range(n_facts)),
            tuple((i, k + 1) for k, i in enumerate(premises)),
            tuple((e, fields["dist"]) for e in conclusions),
            fields["vocabulary"])
        save_model(model, path) if writer == "save_model" else model_to_dict(model)
    assert not path.exists()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ctx=contexts())
def test_save_lattice_writes_the_oracle_bytes(out, ctx):
    lattice = build_lattice(ctx)
    save_lattice(lattice, out)
    assert out.read_bytes() == oracle_bytes(lattice_to_dict(lattice))


@pytest.mark.parametrize("ctx", [
    FormalContext((), ("a", "b"), ()),
    FormalContext(("o", "p"), (), (0, 0)),
    FormalContext((), (), ()),
], ids=["no-objects", "no-attributes", "empty"])
def test_save_lattice_without_covers_writes_the_oracle_bytes(out, ctx):
    lattice = build_lattice(ctx)
    assert lattice.covers == frozenset()
    save_lattice(lattice, out)
    assert out.read_bytes() == oracle_bytes(lattice_to_dict(lattice))


def test_writers_match_the_oracle_on_a_large_lattice(out):
    rnd = random.Random(1)
    lattice = build_lattice(random_context_of_size(rnd, 100, 14))
    assert len(lattice.concepts) >= 1000
    save_lattice(lattice, out)
    assert out.read_bytes() == oracle_bytes(lattice_to_dict(lattice))
    categories = ("a", "b", "c")
    labels = [rnd.choice(categories) for _ in lattice.context.object_ids]
    model = compile_model(lattice, dict(zip(lattice.context.object_ids, labels)),
                          categories)
    save_model(model, out)
    assert out.read_bytes() == oracle_bytes(model_to_dict(model))
