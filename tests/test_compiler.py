"""Lattice-to-model compilation and model serialization."""

import gc
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (DEMO_CATEGORIES, DEMO_LABELS, benchmark_corpus,
                     demo_context, demo_labels_map, random_context,
                     reference_distribution, reference_fact_labels,
                     reference_mean)
from latticecell import (CellularModel, ClassDistribution, DimensionError,
                         FormatError, LabelingError, build_lattice,
                         compile_model, load_fixture_model, load_model,
                         save_model)
from latticecell.bits import iter_bits
from latticecell.compiler import model_from_dict, model_to_dict
from latticecell.engine import EngineState
from strategies import contexts


@pytest.fixture(scope="module")
def demo_model():
    lattice = build_lattice(demo_context())
    return compile_model(lattice, demo_labels_map(), DEMO_CATEGORIES)


def test_distribution_examples(demo_model):
    ctx = demo_context()
    eligible = [c for c in build_lattice(ctx).concepts if c.extent and c.intent]
    by_extent = {c.extent: dist for c, (_, dist)
                 in zip(eligible, demo_model.extent_facts)}
    for ids, want in ((["Doc 5", "Doc 6", "Doc 8"], (0, 1, 0)),
                      (["Doc 3", "Doc 7"], (Fraction(1, 2), 0, Fraction(1, 2))),
                      (["Doc 9"], (0, 0, 1))):
        extent = ctx.object_mask(ids)
        assert by_extent[extent].fractions == want
        assert want == reference_distribution(extent, DEMO_LABELS,
                                              DEMO_CATEGORIES)


def test_class_distribution_invariants():
    with pytest.raises(ValueError):
        ClassDistribution((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        ClassDistribution((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match="fractions sum to 0, expected 1"):
        ClassDistribution(())
    with pytest.raises(ValueError, match="not a distribution over 1"):
        ClassDistribution.from_counts((), 1)
    d = ClassDistribution((Fraction(2, 3), Fraction(1, 3)))
    assert d.percents() == (67, 33)
    assert d.argmax() == 0


def test_mean_is_exact():
    a = ClassDistribution((0, Fraction(67, 100), Fraction(33, 100)))
    b = ClassDistribution((0, 1, 0))
    mean = ClassDistribution.mean([a, b])
    assert mean.fractions == (0, Fraction(167, 200), Fraction(33, 200))


def test_mean_and_argmax_match_fraction_mean():
    rnd = random.Random(23)
    ties = 0
    for _ in range(300):
        width = rnd.randint(1, 4)
        dists = []
        for _ in range(rnd.randint(1, 5)):
            total = rnd.choice((1, 2, 3, 4, 6, 100, rnd.randint(1, 50)))
            cuts = sorted(rnd.randint(0, total) for _ in range(width - 1))
            counts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
            dists.append(ClassDistribution.from_counts(counts, total))
        want = reference_mean([d.fractions for d in dists])
        mean = ClassDistribution.mean(dists)
        assert mean.fractions == want
        assert mean == ClassDistribution(want)
        assert mean.argmax() == want.index(max(want))  # first of tied maxima
        ties += want.count(max(want)) > 1
    assert ties > 10


def test_compiled_distributions_match_recount():
    rnd = random.Random(31)
    cats = ("A", "B", "C", "D")
    for _ in range(40):
        ctx = random_context(rnd, 14, 8)
        lattice = build_lattice(ctx)
        used = rnd.randint(1, len(cats))
        labels = [cats[rnd.randrange(used)] for _ in ctx.object_ids]
        model = compile_model(lattice, dict(zip(ctx.object_ids, labels)), cats)
        eligible = [c for c in lattice.concepts if c.extent and c.intent]
        assert len(eligible) == len(model.extent_facts)
        for concept, (_, dist) in zip(eligible, model.extent_facts):
            want = reference_distribution(concept.extent, labels, cats)
            assert dist.fractions == want
            assert dist == ClassDistribution(want)
            assert dist.percents() == tuple(int(f * 100 + Fraction(1, 2))
                                            for f in want)


def test_equal_counts_share_one_distribution(tmp_path):
    """In a model of a 210-document benchmark corpus, extent facts with
    equal counts are one object, equal to the recounted distribution."""
    docs, ctx = benchmark_corpus(tmp_path, "train-wide", "train-wide/1/0")
    labels = {d.id: d.category for d in docs}
    cats = sorted(set(labels.values()))
    lattice = build_lattice(ctx)
    model = compile_model(lattice, labels, cats)
    eligible = [c for c in lattice.concepts if c.extent and c.intent]
    assert len(eligible) == len(model.extent_facts)
    shared: dict[tuple, ClassDistribution] = {}
    for concept, (_, dist) in zip(eligible, model.extent_facts):
        members = [labels[ctx.object_ids[o]] for o in iter_bits(concept.extent)]
        counts = tuple(members.count(cat) for cat in cats)
        assert dist == ClassDistribution.from_counts(counts, len(members))
        assert shared.setdefault(counts, dist) is dist
    assert len(shared) < len(eligible) / 10


def test_compile_rejects_objects_no_category_counts(demo_model):
    lattice = build_lattice(demo_context())
    for label, message in ((None, "Doc 5 unlabeled"),
                           ("Opera", "Doc 5 has unknown category 'Opera'")):
        labels = demo_labels_map()
        labels["Doc 5"] = label
        with pytest.raises(LabelingError, match=message):
            compile_model(lattice, labels, DEMO_CATEGORIES)
    # Doc 4 has no attributes, so it is in no compiled extent and its label
    # is never read
    labels = demo_labels_map()
    labels["Doc 4"] = None
    assert compile_model(lattice, labels, DEMO_CATEGORIES) == demo_model


def test_compile_rejects_a_repeated_category():
    """A repeated category would compile into a model file that the loader
    rejects, so compile refuses it first."""
    lattice = build_lattice(demo_context())
    categories = DEMO_CATEGORIES + (DEMO_CATEGORIES[1],)
    with pytest.raises(LabelingError,
                       match=f"category {DEMO_CATEGORIES[1]!r} repeated"):
        compile_model(lattice, demo_labels_map(), categories)


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
    for j in range(eng.n_rules):
        assert len(eng.premises[j]) == 1
        assert len(eng.conclusions[j]) == 1


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
    ("extent", "distribution", [[0.5, 1], [0, 1], [1, 2]],
     "not a pair of integers"),
    ("extent", "distribution", [[1, 1.0], [0, 1], [0, 1]],
     "not a pair of integers"),
    ("extent", "distribution", [["1", 1], [0, 1], [0, 1]],
     "not a pair of integers"),
    ("extent", "distribution", [[None, 1], [0, 1], [1, 1]],
     "not a pair of integers"),
    ("extent", "distribution", [[-1, 2], [1, 1], [1, 2]],
     r"must lie in \[0, 1\]"),
    ("extent", "distribution", [[1, -2], [1, 1], [1, 2]],
     r"must lie in \[0, 1\]"),
    ("extent", "distribution", [[3, 2], [0, 1], [-1, 2]],
     r"must lie in \[0, 1\]"),
    ("extent", "distribution", [[1, 2], [0, 1], [1, 3]],
     "sum to 5/6, expected 1"),
    ("extent", "distribution", [[1, 2], [1, 2], [1, 2]],
     "sum to 3/2, expected 1"),
    # bool is an int subclass, and True would read as attribute 1
    ("intent", "attributes", [True, 0], "attribute True is not an integer"),
    ("intent", "attributes", [1.0], "attribute 1.0 is not an integer"),
    ("intent", "attributes", [0, 1, 0], "attribute 0 repeated"),
])
def test_model_loader_rejects_malformed_facts(demo_model, kind, field, value,
                                              message):
    data = model_to_dict(demo_model)
    next(f for f in data["facts"] if f["kind"] == kind)[field] = value
    with pytest.raises(FormatError, match=message):
        model_from_dict(data)


@pytest.mark.parametrize("value, message", [
    ([[-1, 2], [1, 1], [1, 2]], "fractions must lie in [0, 1]"),
    ([[1, 2], [0, 1], [1, 3]], "fractions sum to 5/6, expected 1"),
    ([[2, 2], [0, 1], [1, 1]], "fractions sum to 2, expected 1"),
])
def test_model_loader_names_the_fact_of_a_bad_distribution(demo_model, value,
                                                           message):
    data = model_to_dict(demo_model)
    fact = next(i for i, f in enumerate(data["facts"]) if f["kind"] == "extent")
    data["facts"][fact]["distribution"] = value
    with pytest.raises(FormatError) as info:
        model_from_dict(data)
    assert str(info.value) == f"fact {fact}: {message}"


@pytest.mark.parametrize("key", ["categories", "vocabulary"])
def test_model_loader_rejects_a_repeated_name(demo_model, key):
    data = model_to_dict(demo_model)
    data[key][1] = data[key][0]
    with pytest.raises(FormatError) as info:
        model_from_dict(data)
    assert str(info.value) == f"{key}: repeated name {data[key][0]!r}"


def test_model_loader_accepts_repeated_fact_labels(demo_model):
    data = model_to_dict(demo_model)
    for fact in data["facts"]:
        fact["label"] = "[same]"
    model = model_from_dict(data)
    assert set(model.fact_labels) == {"[same]"}
    assert model_to_dict(model) == data


@pytest.mark.parametrize("value, message", [
    ("x", "rule 0: premise 'x'"),
    (float("inf"), "rule 0: premise inf"),
    (float("nan"), "rule 0: premise nan"),
    (None, "malformed rule entry"),
    (1, "rule 0 wiring does not match fact kinds"),
    # int() would read 0.5, 0.0, "0" and False as fact 0, and True as fact 1
    (0.5, "rule 0: premise 0.5 and conclusion 1 must be integers"),
    (0.0, "rule 0: premise 0.0 and conclusion 1 must be integers"),
    ("0", "rule 0: premise '0' and conclusion 1 must be integers"),
    (False, "rule 0: premise False and conclusion 1 must be integers"),
    (True, "rule 0: premise True and conclusion 1 must be integers"),
])
def test_model_loader_rejects_malformed_rules(demo_model, value, message):
    data = model_to_dict(demo_model)
    data["rules"][0]["premise"] = value
    with pytest.raises(FormatError, match=message):
        model_from_dict(data)


@pytest.mark.parametrize("value, fractions", [
    ([[True, True], [False, True], [0, 1]], (1, 0, 0)),
    ([[True, 2], [1, 2], [False, 1]], (Fraction(1, 2), Fraction(1, 2), 0)),
    ([[-1, -2], [0, -5], [2, 4]], (Fraction(1, 2), 0, Fraction(1, 2))),
])
def test_model_loader_accepts_equivalent_pairs(demo_model, value, fractions):
    data = model_to_dict(demo_model)
    fact = next(i for i, f in enumerate(data["facts"]) if f["kind"] == "extent")
    data["facts"][fact]["distribution"] = value
    assert dict(model_from_dict(data).extent_facts)[fact].fractions == fractions


@pytest.mark.parametrize("repeat, fractions", [
    ([[1.0, 1], [0, 1], [0, 1]], None),
    ([[True, True], [False, True], [0, 1]], (1, 0, 0)),
])
def test_model_loader_checks_every_repeated_distribution(demo_model, repeat,
                                                         fractions):
    """A distribution equal to an earlier one is still checked as written."""
    data = model_to_dict(demo_model)
    first, later = [i for i, f in enumerate(data["facts"])
                    if f["kind"] == "extent"][:2]
    data["facts"][first]["distribution"] = [[1, 1], [0, 1], [0, 1]]
    data["facts"][later]["distribution"] = repeat
    if fractions is None:
        with pytest.raises(FormatError, match="not a pair of integers"):
            model_from_dict(data)
    else:
        assert dict(model_from_dict(data).extent_facts)[later].fractions == \
            fractions


def test_loaded_pairs_match_fractions(demo_model):
    rnd = random.Random(41)
    data = model_to_dict(demo_model)
    extents = [i for i, f in enumerate(data["facts"]) if f["kind"] == "extent"]
    for _ in range(200):
        pairs_by_fact = {}
        for i in extents:
            total = rnd.randint(1, 60)
            a = rnd.randint(0, total)
            b = rnd.randint(0, total - a)
            pairs = []
            for c in (a, b, total - a - b):
                g = math.gcd(c, total)
                scale = rnd.choice((1, 1, 2, 7)) * rnd.choice((1, -1))
                pairs.append([c // g * scale, total // g * scale])
            data["facts"][i]["distribution"] = pairs
            pairs_by_fact[i] = pairs
        model = model_from_dict(data)
        for i, dist in model.extent_facts:
            assert dist.fractions == tuple(Fraction(n, d)
                                           for n, d in pairs_by_fact[i])
        assert model_from_dict(model_to_dict(model)) == model


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


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("models") / "model.json"


def test_derived_labels_equal_the_eager_reference(demo_model, model_path):
    """A compiled model's labels, derived on first read, are the ones built
    eagerly per concept; the engine reads the same sequence."""
    lattice = build_lattice(demo_context())
    want = reference_fact_labels(lattice, demo_labels_map(), DEMO_CATEGORIES)
    model = compile_model(lattice, demo_labels_map(), DEMO_CATEGORIES)
    assert model.fact_labels == want and want == model.fact_labels
    assert model.engine_template.fact_labels == want
    assert model.fact_labels[1] == "[S1 (100% S), (0% E), (0% T)]"
    save_model(model, model_path)
    assert load_model(model_path) == model == demo_model


# two categories share an initial half of the time, so labels then name
# each category in full
@settings(max_examples=150, deadline=None, derandomize=True)
@given(ctx=contexts(), categories=st.sampled_from((("Sport", "Economie"),
                                                   ("Sport", "Sante", "Tele"))),
       data=st.data())
def test_derived_labels_match_the_reference_on_random_lattices(
        model_path, ctx, categories, data):
    labels = {oid: data.draw(st.sampled_from(categories))
              for oid in ctx.object_ids}
    lattice = build_lattice(ctx)
    model = compile_model(lattice, labels, categories)
    # a pickled model renders the same labels
    sent = pickle.loads(pickle.dumps(model))
    want = reference_fact_labels(lattice, labels, categories)
    assert model.fact_labels == want
    assert tuple(model.engine_template.fact_labels) == want
    assert sent == model and tuple(sent.fact_labels) == want
    save_model(model, model_path)
    assert load_model(model_path) == model


def test_model_counts_come_without_labels(monkeypatch):
    """``n_facts`` and ``n_rules`` read no label; the first read of one
    renders them all."""
    def refuse(*args):
        raise AssertionError("a label was formatted")

    monkeypatch.setattr("latticecell.compiler._compiled_labels", refuse)
    monkeypatch.setattr("latticecell.compiler._rule_labels", refuse)
    model = compile_model(build_lattice(demo_context()), demo_labels_map(),
                          DEMO_CATEGORIES)
    assert (model.n_facts, model.n_rules) == (14, 7)
    assert (model.engine_template.n_facts,
            model.engine_template.n_rules) == (14, 7)
    with pytest.raises(AssertionError, match="a label was formatted"):
        model.fact_labels[0]
    with pytest.raises(AssertionError, match="a label was formatted"):
        model.engine_template.rule_labels[0]


def _wiring_bytes(n_rules: int) -> int:
    """Bytes a model's engine template holds for ``n_rules`` rules, each
    with a distinct intent fact and an extent fact shared by ten rules."""
    dist = ClassDistribution.from_counts((1, 1), 2)
    intent_facts = tuple((2 * k, 1) for k in range(n_rules))
    extent_facts = tuple((2 * (k // 10) + 1, dist) for k in range(n_rules))
    fact_labels = ("f",) * (2 * n_rules)
    gc.collect()  # a full collection empties the tuple free lists
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = CellularModel(("a", "b"), fact_labels, intent_facts,
                              extent_facts, ("t",))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert model.engine_template.n_rules == n_rules
    return held


def test_engine_wiring_memory_grows_linearly():
    """Index tuples hold a bounded size per rule; one ``1 << k`` int per
    rule and per fact would grow as rules squared (16x for 4x rules)."""
    small, large = _wiring_bytes(1000), _wiring_bytes(4000)
    assert large < 4.5 * small
    assert large < 300 * 4000


def test_engine_wiring_indices_are_checked():
    """Every premise and conclusion index must name a fact."""
    for premises, conclusions in (([(0, 2)], [(1,)]), ([(0,)], [(-1,)])):
        with pytest.raises(DimensionError, match="rule 0 wiring exceeds"):
            EngineState(["a", "b"], ["r"], premises, conclusions)
