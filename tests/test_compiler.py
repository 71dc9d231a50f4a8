"""Lattice-to-model compilation and model serialization."""

import random
from fractions import Fraction

import pytest

from helpers import (DEMO_CATEGORIES, demo_context, demo_labels_map,
                     random_context)
from latticecell import (CellularModel, ClassDistribution, DimensionError,
                         EmptyInputError, FormatError, LabelingError,
                         build_lattice, compile_model, distribution_of,
                         load_fixture_model)
from latticecell.compiler import model_from_dict, model_to_dict


@pytest.fixture(scope="module")
def demo_model():
    lattice = build_lattice(demo_context())
    return compile_model(lattice, demo_labels_map(), DEMO_CATEGORIES)


def test_distribution_examples():
    ctx = demo_context()
    labels = ["Sport", "Sport", "Television", "Television", "Economie",
              "Economie", "Sport", "Economie", "Television"]
    d = distribution_of(ctx.object_mask(["Doc 5", "Doc 6", "Doc 8"]), labels,
                        DEMO_CATEGORIES)
    assert d.fractions == (0, 1, 0)
    d = distribution_of(ctx.object_mask(["Doc 3", "Doc 7"]), labels,
                        DEMO_CATEGORIES)
    assert d.fractions == (Fraction(1, 2), 0, Fraction(1, 2))
    d = distribution_of(ctx.object_mask(["Doc 9"]), labels, DEMO_CATEGORIES)
    assert d.fractions == (0, 0, 1)


def test_distribution_errors():
    with pytest.raises(EmptyInputError):
        distribution_of(0, ["Sport"], DEMO_CATEGORIES)
    with pytest.raises(LabelingError):
        distribution_of(0b1, [None], DEMO_CATEGORIES)
    with pytest.raises(LabelingError):
        distribution_of(0b1, ["Opera"], DEMO_CATEGORIES)


def test_class_distribution_invariants():
    with pytest.raises(ValueError):
        ClassDistribution((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        ClassDistribution((Fraction(3, 2), Fraction(-1, 2)))
    d = ClassDistribution((Fraction(2, 3), Fraction(1, 3)))
    assert d.percents() == (67, 33)
    assert d.argmax() == 0


def test_mean_is_exact():
    a = ClassDistribution((0, Fraction(67, 100), Fraction(33, 100)))
    b = ClassDistribution((0, 1, 0))
    mean = ClassDistribution.mean([a, b])
    assert mean.fractions == (0, Fraction(167, 200), Fraction(33, 200))


def test_compile_demo_counts(demo_model):
    eng = demo_model.engine_template
    assert eng.n_rules == 7
    assert eng.n_facts == 14
    intents = {demo_model.vocabulary[i] for _, mask in demo_model.intent_facts
               for i in range(len(demo_model.vocabulary)) if (mask >> i) & 1}
    assert intents <= set(demo_model.vocabulary)
    got = set()
    for _, mask in demo_model.intent_facts:
        labels = tuple(demo_model.vocabulary[i]
                       for i in range(len(demo_model.vocabulary))
                       if (mask >> i) & 1)
        got.add(labels)
    assert got == {("Stade",), ("Stade", "Pays"), ("Visage",),
                   ("Stade", "Visage"), ("Ministre",),
                   ("Ministre", "Puissance"), ("Personnage",)}


def test_compile_single_incidence_per_column(demo_model):
    eng = demo_model.engine_template
    re = eng.re_matrix()
    rs = eng.rs_matrix()
    for j in range(eng.n_rules):
        assert sum(re[i][j] for i in range(eng.n_facts)) == 1
        assert sum(rs[i][j] for i in range(eng.n_facts)) == 1


def test_compile_requires_all_labels():
    lattice = build_lattice(demo_context())
    labels = demo_labels_map()
    del labels["Doc 4"]
    with pytest.raises(LabelingError) as err:
        compile_model(lattice, labels, DEMO_CATEGORIES)
    assert "Doc 4" in str(err.value)


def test_compile_trivial_lattice_is_empty_model():
    from latticecell import FormalContext

    ctx = FormalContext(("1", "2"), ("a", "b"), (0, 0))
    lattice = build_lattice(ctx)  # top and bottom only
    model = compile_model(lattice, {"1": "x", "2": "y"}, ("x", "y"))
    assert model.engine_template.n_rules == 0
    assert model.engine_template.n_facts == 0


def test_compile_respects_skip_rule_random():
    rnd = random.Random(12)
    cats = ("A", "B", "C")
    for _ in range(30):
        ctx = random_context(rnd, 8, 6)
        lattice = build_lattice(ctx)
        labels = {oid: cats[rnd.randrange(3)] for oid in ctx.object_ids}
        model = compile_model(lattice, labels, cats)
        expected = sum(1 for c in lattice.concepts if c.extent and c.intent)
        assert model.engine_template.n_rules == expected
        assert model.engine_template.n_facts == 2 * expected
        for _, dist in model.extent_facts:
            assert sum(dist.fractions) == 1


def test_fixture_model_contents():
    model = load_fixture_model()
    eng = model.engine_template
    assert eng.n_facts == 12 and eng.n_rules == 6
    assert model.categories == ("Sport", "Economie", "Television")
    assert eng.fact_labels[0] == "[Pays, Stade]"
    assert eng.fact_labels[1] == "[S0 (100% S), (0% E), (0% T)]"
    assert eng.fact_labels[6] == "[Visage, Puissance, Ministre]"
    # S5 is pure Economie
    s5 = dict(model.extent_facts)[7]
    assert s5.fractions == (0, 1, 0)
    s4 = dict(model.extent_facts)[5]
    assert s4.fractions == (0, Fraction(67, 100), Fraction(33, 100))
    # all rules fresh (0, 1, 1)
    assert eng.er == 0
    assert eng.rule_ir == 0b111111
    assert eng.sr == 0b111111
    intents = [model.vocabulary[i]
               for _, mask in model.intent_facts
               for i in range(6) if (mask >> i) & 1]
    assert set(intents) <= set(model.vocabulary)


def test_fixture_intent_masks():
    model = load_fixture_model()
    vocab = model.vocabulary
    expected = [("Pays", "Stade"), ("Visage",), ("Ministre", "Puissance"),
                ("Ministre", "Puissance", "Visage"), ("Stade",),
                ("Personnage",)]
    for (_, mask), names in zip(model.intent_facts, expected):
        got = tuple(sorted(vocab[i] for i in range(6) if (mask >> i) & 1))
        assert got == tuple(sorted(names))


def test_model_round_trip(demo_model):
    data = model_to_dict(demo_model)
    again = model_from_dict(data)
    assert again == demo_model
    assert model_to_dict(again) == data


def test_fixture_round_trip(tmp_path):
    from latticecell import load_model, save_model

    model = load_fixture_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model


@pytest.mark.parametrize("kind, field, value, message", [
    ("intent", "attributes", [0, 6], "attribute 6 outside the 6-term vocabulary"),
    ("intent", "attributes", [-1], "attribute -1 outside"),
    ("extent", "distribution", [[1, 1], [0, 1], [0, 1], [0, 1]],
     "4 fractions for 3 categories"),
    ("extent", "distribution", [[1, 0], [0, 1], [0, 1]], "zero denominator"),
    ("extent", "distribution", [[1, 1, 1], [0, 1], [0, 1]], "too many values"),
])
def test_model_loader_rejects_malformed_facts(demo_model, kind, field, value,
                                              message):
    data = model_to_dict(demo_model)
    next(f for f in data["facts"] if f["kind"] == kind)[field] = value
    with pytest.raises(FormatError, match=message):
        model_from_dict(data)


def test_model_invariants_enforced():
    model = load_fixture_model()
    (intent, mask), (extent, dist) = model.intent_facts[0], model.extent_facts[0]
    outside = len(model.fact_labels)

    def build(intent_facts, extent_facts):
        return CellularModel(model.categories, model.fact_labels, intent_facts,
                             extent_facts, model.vocabulary)

    with pytest.raises(ValueError, match="one rule per"):
        build(model.intent_facts, model.extent_facts[1:])
    with pytest.raises(DimensionError):
        build(((outside, mask),), ((extent, dist),))
    with pytest.raises(DimensionError):
        build(((intent, mask),), ((outside, dist),))
    with pytest.raises(TypeError):
        CellularModel(model.engine_template, model.categories,
                      model.fact_labels, model.intent_facts,
                      model.extent_facts, model.vocabulary)
