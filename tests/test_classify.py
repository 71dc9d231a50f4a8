"""Similarity scoring, activation policies, inference, and voting."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import (DEMO_CATEGORIES, demo_context, demo_labels_map,
                     query_vector, random_context, reference_activate,
                     reference_classify, reference_distribution,
                     reference_score_key, reference_score_value)
from latticecell import (DimensionError, DocumentVector, EmptyInputError,
                         activate, build_lattice, classify, compile_model,
                         load_fixture_model, model_from_dict, model_to_dict,
                         vote)
from latticecell.bits import iter_bits
from latticecell.classify import (MEASURES, Prediction, _ranked, _score_ratio,
                                  _score_value)
from latticecell.compiler import CellularModel, ClassDistribution
from latticecell.engine import EngineState, run_inference, set_facts
from strategies import models


def test_similarity_reference_values():
    # the query {Puissance, Ministre} against the intents {Puissance,
    # Ministre} and {Visage, Puissance, Ministre}
    cases = [((2, 2, 2, "inner"), 2), ((2, 2, 3, "inner"), 2),
             ((2, 2, 2, "cosine"), 1.0), ((2, 2, 3, "cosine"), 2 / 6 ** 0.5),
             ((2, 2, 2, "jaccard"), 1.0), ((2, 2, 3, "jaccard"), 2 / 3),
             ((2, 2, 3, "dice"), 4 / 5)]
    for args, want in cases:
        assert _score_value(*args) == pytest.approx(want), args


def test_similarity_identical_and_disjoint():
    # v = {0, 2} against itself, then against the disjoint w = {1}
    for measure in ("jaccard", "dice", "cosine"):
        assert _score_value(2, 2, 2, measure) == pytest.approx(1.0)
    for measure in MEASURES:
        assert _score_value(0, 2, 1, measure) == 0


def test_similarity_empty_vectors_score_zero():
    for measure in MEASURES:
        assert _score_value(0, 0, 0, measure) == 0


@pytest.mark.parametrize("measure", MEASURES)
def test_scores_equal_their_own_formulas_on_a_grid(measure):
    """For |v1|, |v2| <= 60 and every overlap, the value equals the
    reference's in value and type."""
    for n1 in range(61):
        for n2 in range(61):
            for inter in range(min(n1, n2) + 1):
                want = reference_score_value(inter, n1, n2, measure)
                got = _score_value(inter, n1, n2, measure)
                assert type(got) is type(want) and got == want, \
                    (measure, inter, n1, n2, got, want)


def test_score_key_orders_like_value():
    """Two classes against one query: ``_ranked`` puts the one of higher
    value first, and merges them only when their values are equal."""
    rnd = random.Random(3)
    for measure in MEASURES:
        for _ in range(200):
            n1 = rnd.randint(0, 12)
            n2 = rnd.randint(0, 12)
            m2 = rnd.randint(0, 12)
            i1 = rnd.randint(0, min(n1, n2))
            i2 = rnd.randint(0, min(n1, m2))
            v1 = _score_value(i1, n1, n2, measure)
            v2 = _score_value(i2, n1, m2, measure)
            groups = _ranked([(i1, n2, 1), (i2, m2, 2)], n1, measure)
            if v1 < v2:
                assert groups == [2, 1]
            elif v1 > v2:
                assert groups == [1, 2]


def test_activate_fixture_inner_max():
    model = load_fixture_model()
    assert activate(model, query_vector(), "inner", "max") == (4, 6)


def test_activate_zero_document():
    model = load_fixture_model()
    assert activate(model, DocumentVector(0, 6), "inner", "max") == ()


def test_activate_cosine_unique_max():
    model = load_fixture_model()
    assert activate(model, query_vector(), "cosine", "max") == (4,)


def test_activate_topk():
    model = load_fixture_model()
    assert activate(model, query_vector(), "cosine", "topk:1") == (4,)
    assert activate(model, query_vector(), "inner", "topk:2") == (4, 6)


def test_activate_threshold():
    model = load_fixture_model()
    assert activate(model, query_vector(), "inner", "threshold:2") == (4, 6)
    assert activate(model, query_vector(), "inner", "threshold:3") == ()
    assert activate(model, query_vector(), "cosine", "threshold:0.9") == (4,)


def test_activate_vocabulary_mismatch():
    model = load_fixture_model()
    with pytest.raises(DimensionError):
        activate(model, DocumentVector(0, 5), "inner", "max")


def test_bad_policy_rejected():
    model = load_fixture_model()
    with pytest.raises(ValueError):
        activate(model, query_vector(), "inner", "best")
    with pytest.raises(ValueError):
        activate(model, query_vector(), "inner", "topk:0")


def test_unknown_measure_rejected():
    with pytest.raises(ValueError, match="unknown similarity measure 'l2'"):
        _score_ratio(1, 1, 1, "l2")
    with pytest.raises(ValueError, match="unknown similarity measure 'l2'"):
        activate(load_fixture_model(), query_vector(), "l2", "max")


def test_readme_library_example_predicts_economie(monkeypatch):
    """README's Python example runs as printed, from the repository root."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    scope = {}
    exec(example, scope)
    assert scope["prediction"].category == "Economie"


def test_classify_worked_example():
    model = load_fixture_model()
    pred = classify(model, query_vector(), "inner", "max")
    assert pred.category == "Economie"
    assert pred.distribution.fractions == (0, Fraction(167, 200),
                                           Fraction(33, 200))
    assert pred.fired_vertices == (5, 7)
    assert pred.activated_intents == (4, 6)


def test_a_rule_that_did_not_fire_casts_no_vote():
    """A rule that concludes an established fact, but whose premise does not
    hold, does not join the vote: the fixture plus [Personnage] -> S4's
    extent fact answers the query as the fixture does."""
    data = model_to_dict(load_fixture_model())
    data["rules"].append({"premise": 10, "conclusion": 5})
    model = model_from_dict(data)
    pred = classify(model, query_vector(), "inner", "max")
    assert pred.activated_intents == (4, 6)
    assert pred.fired_vertices == (5, 7)
    assert pred.distribution.fractions == (0, Fraction(167, 200),
                                           Fraction(33, 200))
    assert pred == reference_classify(model, query_vector(), "inner", "max")
    # once its premise holds, the rule votes beside the fixture's own rule
    personnage = classify(model, DocumentVector(1 << 2, 6), "inner", "max")
    assert personnage.fired_vertices == (11, 5)
    assert personnage.distribution.fractions == (0, Fraction(67, 200),
                                                 Fraction(133, 200))


def test_rules_sharing_a_premise_activate_it_once():
    """The fixture plus [Puissance, Ministre] -> S0's extent fact: the
    query activates facts 4 and 6 once each under every policy that picks
    two, and all three rules of those facts vote, in rule order."""
    data = model_to_dict(load_fixture_model())
    data["rules"].append({"premise": 4, "conclusion": 1})
    model = model_from_dict(data)
    for policy in ("max", "threshold:1", "topk:2"):
        pred = classify(model, query_vector(), "inner", policy)
        assert pred.activated_intents == (4, 6), policy
        assert pred.fired_vertices == (5, 7, 1), policy
        assert pred.distribution.fractions == (Fraction(1, 3),
                                               Fraction(167, 300),
                                               Fraction(11, 100))
        assert pred == reference_classify(model, query_vector(), "inner",
                                          policy)
    assert activate(model, query_vector(), "inner", "topk:1") == (4,)


def test_a_premise_fact_has_one_intent():
    """No file gives one premise fact two intents, so no model does: its
    rules all score alike, and activation never meets the fact twice."""
    dist = ClassDistribution.from_counts((1, 0), 1)
    with pytest.raises(ValueError, match="^fact 0 carries two intents$"):
        CellularModel(("A", "B"), ("[a]", "[S1]", "[S2]", "[b]", "[S3]"),
                      ((0, 0b001), (0, 0b011), (3, 0b010)),
                      ((1, dist), (2, dist), (4, dist)), ("a", "b", "c"))


def test_classify_single_vertex_returns_its_distribution():
    model = load_fixture_model()
    doc = DocumentVector(1 << 2, 6)  # Personnage only
    pred = classify(model, doc, "inner", "max")
    assert pred.activated_intents == (10,)
    assert pred.distribution.fractions == (0, 0, 1)
    assert pred.category == "Television"


def test_classify_zero_vector_unclassifiable():
    model = load_fixture_model()
    pred = classify(model, DocumentVector(0, 6), "inner", "max")
    assert pred.category is None
    assert pred.distribution is None
    assert pred.fired_vertices == ()


def test_classify_deterministic():
    model = load_fixture_model()
    a = classify(model, query_vector(), "inner", "max")
    b = classify(model, query_vector(), "inner", "max")
    assert a == b


def test_vote_reference():
    dists = [ClassDistribution((0, Fraction(67, 100), Fraction(33, 100))),
             ClassDistribution((0, 1, 0))]
    category, mean = vote(dists, DEMO_CATEGORIES)
    assert category == "Economie"
    assert mean.fractions == (0, Fraction(167, 200), Fraction(33, 200))


def test_vote_single_and_tie():
    d = ClassDistribution((Fraction(1, 2), Fraction(1, 2), 0))
    category, mean = vote([d], DEMO_CATEGORIES)
    assert mean == d
    assert category == "Sport"      # tie broken by category order
    with pytest.raises(EmptyInputError):
        vote([], DEMO_CATEGORIES)
    with pytest.raises(DimensionError, match="width does not match"):
        vote([d], DEMO_CATEGORIES[:2])


def test_vote_output_sums_to_one_random():
    rnd = random.Random(9)
    for _ in range(50):
        dists = []
        for _ in range(rnd.randint(1, 5)):
            a = rnd.randint(0, 4)
            b = rnd.randint(0, 4 - a)
            c = 4 - a - b
            dists.append(ClassDistribution((Fraction(a, 4), Fraction(b, 4),
                                            Fraction(c, 4))))
        category, mean = vote(dists, DEMO_CATEGORIES)
        assert sum(mean.fractions) == 1
        assert DEMO_CATEGORIES[mean.argmax()] == category


def test_monotone_measures_agree_on_equal_cardinality_intents():
    rnd = random.Random(10)
    for _ in range(100):
        size = rnd.randint(3, 10)
        card = rnd.randint(1, size)
        intents = []
        for _ in range(rnd.randint(2, 6)):
            intents.append(sum(1 << i for i in rnd.sample(range(size), card)))
        doc = rnd.getrandbits(size)
        argmaxes = {}
        for measure in ("jaccard", "dice", "cosine"):
            keys = [reference_score_key((doc & m).bit_count(),
                                        doc.bit_count(), m.bit_count(),
                                        measure) for m in intents]
            best = max(keys)
            argmaxes[measure] = {i for i, k in enumerate(keys) if k == best}
        assert argmaxes["jaccard"] == argmaxes["dice"] == argmaxes["cosine"]


def _direct_lattice_prediction(lattice, labels, categories, doc, measure):
    """Reference path: read the lattice directly, no engine involved."""
    eligible = [c for c in lattice.concepts if c.extent and c.intent]
    if not eligible:
        return None, ()
    keys = [reference_score_key((doc.bits & c.intent).bit_count(),
                                doc.bits.bit_count(), c.intent.bit_count(),
                                measure)
            for c in eligible]
    positive = [(c, k) for c, k, raw in zip(eligible, keys,
                                            (doc.bits & c.intent
                                             for c in eligible)) if raw]
    if not positive:
        return None, ()
    best = max(k for _, k in positive)
    chosen = [c for c, k in positive if k == best]
    dists = [ClassDistribution(reference_distribution(c.extent, labels,
                                                      categories))
             for c in chosen]
    category, _ = vote(dists, categories)
    return category, tuple(c.extent for c in chosen)


def test_representation_equivalence_demo():
    ctx = demo_context()
    lattice = build_lattice(ctx)
    model = compile_model(lattice, demo_labels_map(), DEMO_CATEGORIES)
    labels = [demo_labels_map()[oid] for oid in ctx.object_ids]
    rnd = random.Random(14)
    for _ in range(50):
        doc = DocumentVector(rnd.getrandbits(6), 6)
        for measure in MEASURES:
            pred = classify(model, doc, measure, "max")
            direct_cat, extents = _direct_lattice_prediction(
                lattice, labels, DEMO_CATEGORIES, doc, measure)
            assert pred.category == direct_cat


POLICIES = ("max", "topk:1", "topk:3", "threshold:0.3", "threshold:1.0")


def _random_model(rnd):
    ctx = random_context(rnd, rnd.choice((12, 30)), rnd.choice((10, 16)))
    labels = [rnd.choice("ABC") for _ in ctx.object_ids]
    return compile_model(build_lattice(ctx), dict(zip(ctx.object_ids, labels)),
                         ("A", "B", "C"))


def _shuffled_round_trip(model, rnd):
    """The model through its dict form, facts and rules listed out of order,
    plus one rule repeated (same premise and conclusion)."""
    data = model_to_dict(model)
    order = list(range(len(data["facts"])))
    rnd.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    data["facts"] = [data["facts"][old] for old in order]
    data["rules"] = [{"premise": new_index[r["premise"]],
                      "conclusion": new_index[r["conclusion"]]}
                     for r in data["rules"]]
    if data["rules"]:
        data["rules"].append(dict(rnd.choice(data["rules"])))
    rnd.shuffle(data["rules"])
    return model_from_dict(data)


def _assert_matches_full_scan(model, rnd, n_docs):
    width = len(model.vocabulary)
    for _ in range(n_docs):
        doc = DocumentVector(rnd.getrandbits(width), width)
        for measure in MEASURES:
            for policy in POLICIES:
                assert (activate(model, doc, measure, policy)
                        == reference_activate(model, doc, measure, policy))
                assert (classify(model, doc, measure, policy)
                        == reference_classify(model, doc, measure, policy))


def test_activate_and_classify_match_full_scan_random():
    rnd = random.Random(41)
    for _ in range(40):
        _assert_matches_full_scan(_random_model(rnd), rnd, 6)


def test_shuffled_model_matches_full_scan_random():
    rnd = random.Random(42)
    for _ in range(25):
        model = _shuffled_round_trip(_random_model(rnd), rnd)
        _assert_matches_full_scan(model, rnd, 6)


@pytest.mark.parametrize("source", ("compiled", "fixture", "shuffled"))
def test_engine_wiring_is_derived_from_rule_pairs(source):
    compiled = compile_model(build_lattice(demo_context()), demo_labels_map(),
                             DEMO_CATEGORIES)
    model = {"compiled": compiled,
             "fixture": load_fixture_model(),
             "shuffled": _shuffled_round_trip(compiled, random.Random(43)),
             }[source]
    eng = model.engine_template
    assert eng.n_rules == len(model.intent_facts) == len(model.extent_facts) > 0
    for k, ((intent, _), (extent, _)) in enumerate(zip(model.intent_facts,
                                                       model.extent_facts)):
        assert eng.premises[k] == (intent,)
        assert eng.conclusions[k] == (extent,)
    assert model.premise_rules == {
        i: tuple(k for k, (intent, _) in enumerate(model.intent_facts)
                 if intent == i) for i, _ in model.intent_facts}
    assert eng.rule_labels == tuple(f"R{k + 1}" for k in range(eng.n_rules))
    assert eng.fact_labels == model.fact_labels
    assert eng.ef == 0


def test_a_traced_classify_stores_no_engine_on_the_model():
    model = load_fixture_model()
    trace = []
    pred = classify(model, query_vector(), "inner", "max", trace)
    assert len(trace) == 3
    assert pred == classify(model, query_vector(), "inner", "max")
    assert not [value for value in vars(model).values()
                if isinstance(value, EngineState)]


def test_each_engine_template_read_is_a_fresh_engine():
    """A run of one read's engine leaves the next read's untouched."""
    model = load_fixture_model()
    ran = run_inference(set_facts(model.engine_template, (4, 6)))
    assert ran.er and ran.cycles == 2
    fresh = model.engine_template
    assert fresh is not ran
    n_facts, n_rules = fresh.n_facts, fresh.n_rules
    assert (fresh.ef, fresh.sf, fresh.er, fresh.cycles) == (0, 0, 0, 0)
    assert fresh.fact_if == (1 << n_facts) - 1
    assert fresh.rule_ir == fresh.sr == (1 << n_rules) - 1


@settings(max_examples=120, deadline=None, derandomize=True)
@given(models())
def test_classify_reads_the_engine_fixpoint(case):
    """On models whose rules share premises or repeat, an untraced
    classify equals a traced one, and both equal a vote over the ER of a
    full engine run, which takes two cycles whenever a fact is activated."""
    model, doc = case
    for measure in MEASURES:
        for policy in POLICIES:
            pred = classify(model, doc, measure, policy)
            trace = []
            assert classify(model, doc, measure, policy, trace) == pred
            activated = activate(model, doc, measure, policy)
            engine = run_inference(set_facts(model.engine_template,
                                             activated))
            fired = [model.extent_facts[k] for k in iter_bits(engine.er)]
            if activated:
                assert engine.cycles == 2 and len(trace) == 3
                category, mean = vote([dist for _, dist in fired],
                                      model.categories)
                want = Prediction(category, mean,
                                  tuple(fact for fact, _ in fired), activated)
            else:
                assert not fired and trace == []
                want = Prediction(None, None, (), ())
            assert pred == want
            assert pred == reference_classify(model, doc, measure, policy)
