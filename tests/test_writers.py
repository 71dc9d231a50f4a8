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
from latticecell.compiler import model_to_dict
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
    drawing their distributions from a small pool so that some repeat."""
    categories = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    vocabulary = draw(st.lists(texts, max_size=6, unique=True))
    n_rules = draw(st.integers(0, 5))
    order = draw(st.permutations(range(2 * n_rules)))
    counts = st.lists(st.integers(0, 150), min_size=len(categories),
                      max_size=len(categories)).filter(any)
    pool = [ClassDistribution.from_counts(c, sum(c))
            for c in draw(st.lists(counts, min_size=1, max_size=3))]
    intents = st.integers(0, (1 << len(vocabulary)) - 1)
    return CellularModel(
        tuple(categories),
        tuple(draw(st.lists(texts, min_size=2 * n_rules,
                            max_size=2 * n_rules))),
        tuple((i, draw(intents)) for i in order[:n_rules]),
        tuple((e, draw(st.sampled_from(pool))) for e in order[n_rules:]),
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


def test_save_model_without_rules_writes_empty_lists(out):
    model = CellularModel(("a",), (), (), (), ())
    save_model(model, out)
    assert out.read_bytes() == oracle_bytes(model_to_dict(model))
    assert b'"facts": [],\n  "rules": []\n}' in out.read_bytes()


HALF = ClassDistribution.from_counts((1, 1), 2)


@pytest.mark.parametrize("n_facts, premises, conclusions, message", [
    (3, (0,), (1,), "fact 2 is referenced by no rule"),
    (3, (0, 1), (1, 2), "fact 1 is both a premise and a conclusion"),
    # as many facts of each kind as there are facts, one of them of both
    (4, (0, 1), (1, 2), "fact 1 is both a premise and a conclusion"),
    # the lowest of the two faulty facts is named, whichever its fault
    (4, (0, 3), (1, 3), "fact 2 is referenced by no rule"),
], ids=["unreferenced", "both", "both-and-unreferenced",
        "unreferenced-and-both"])
@pytest.mark.parametrize("writer", ["save_model", "model_to_dict"])
def test_writers_reject_a_model_no_file_can_hold(tmp_path, writer, n_facts,
                                                 premises, conclusions,
                                                 message):
    """A file gives each fact one kind, which the loader checks against the
    rules; a model with a fact that is neither or both is refused where it
    is made, with a ``ValueError`` naming the fact, so no writer is handed
    one and no file is written."""
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match=f"^{message}$"):
        model = CellularModel(
            ("a", "b"), tuple(f"[f{i}]" for i in range(n_facts)),
            tuple((i, 1) for i in premises),
            tuple((e, HALF) for e in conclusions), ("t",))
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
