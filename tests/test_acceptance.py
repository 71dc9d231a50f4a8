"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything is exact arithmetic unless a criterion states otherwise;
time budgets are asserted inside the tests.
"""

import json
import random
import time
from fractions import Fraction

from helpers import (DATA, DEMO_CATEGORIES, demo_context, demo_labels_map,
                     naive_forward_chain, query_vector, random_context,
                     reference_distribution, reference_score_key,
                     wiring_masks)
from latticecell import (ClassDistribution, DocumentVector, FormalContext,
                         assemble, build_lattice, classify, compile_model,
                         delta_fact, delta_rule, derive_extent, derive_intent,
                         enumerate_concepts_naive, load_fixture_model,
                         run_inference, set_facts, vote)
from latticecell.classify import MEASURES
from latticecell.cli import main


def _report(num: int, elapsed: float, text: str) -> None:
    print(f"[criterion {num}] PASS ({elapsed:.2f}s) {text}")


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    model = load_fixture_model()

    # (a) activation: EF lands exactly on the two reference intent cells
    doc = query_vector()
    pred = classify(model, doc, "inner", "max")
    labels = model.engine_template.fact_labels
    assert [labels[i] for i in pred.activated_intents] == \
        ["[Puissance, Ministre]", "[Visage, Puissance, Ministre]"]

    engine = model.fresh_engine()
    set_facts(engine, pred.activated_intents)
    assert engine.ef == sum(1 << i for i in pred.activated_intents)

    # (b) after inference exactly the S4 and S5 extent facts are established
    run_inference(engine)
    established_extents = [labels[i] for i, _ in model.extent_facts
                           if (engine.ef >> i) & 1]
    assert established_extents == ["[S4 (0% S), (67% E), (33% T)]",
                                   "[S5 (0% S), (100% E), (0% T)]"]
    assert pred.fired_vertices == (5, 7)

    # (c) the vote is exact: Economie at (0%, 83.5%, 16.5%)
    assert pred.category == "Economie"
    assert pred.distribution.fractions == (Fraction(0), Fraction(835, 1000),
                                           Fraction(165, 1000))

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "worked example: activation, inference, exact vote")


def test_criterion_2_lattice_correctness():
    t0 = time.perf_counter()
    ctx = demo_context()
    lattice = build_lattice(ctx)
    assert len(lattice.concepts) == 9
    assert len(lattice.covers) == 12
    naive = enumerate_concepts_naive(ctx)
    assert list(lattice.concepts) == naive
    # brute-force transitive reduction of the subconcept order
    from helpers import brute_transitive_reduction

    assert lattice.covers == brute_transitive_reduction(naive)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, elapsed, "bundled context: 9 concepts, 12 cover edges")


def test_criterion_3_oracle_equivalence_every_split():
    t0 = time.perf_counter()
    rnd = random.Random(2024)
    checked = 0
    for _ in range(500):
        ctx = random_context(rnd, 12, 10)
        expected = {(c.extent, c.intent) for c in enumerate_concepts_naive(ctx)}
        built = build_lattice(ctx)
        assert {(c.extent, c.intent) for c in built.concepts} == expected
        for k in range(1, ctx.n_attributes):
            low = (1 << k) - 1
            left = FormalContext(ctx.object_ids, ctx.attribute_names[:k],
                                 tuple(r & low for r in ctx.rows))
            right = FormalContext(ctx.object_ids, ctx.attribute_names[k:],
                                  tuple(r >> k for r in ctx.rows))
            merged = assemble(build_lattice(left), build_lattice(right))
            assert {(c.extent, c.intent) for c in merged.concepts} == expected
            assert merged.concepts == built.concepts
            assert (merged.top_index, merged.bottom_index) == (
                built.top_index, built.bottom_index)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 500
    assert elapsed < 60.0
    _report(3, elapsed, f"{checked} random contexts match the naive oracle "
                        "at every split point")


def _random_engine(rnd):
    from latticecell import EngineState

    n_facts = rnd.randint(1, 10)
    n_rules = rnd.randint(1, 10)
    premises = []
    conclusions = []
    for _ in range(n_rules):
        k = rnd.randint(1, min(3, n_facts))
        premises.append(tuple(rnd.sample(range(n_facts), k)))
        conclusions.append((rnd.randrange(n_facts),))
    eng = EngineState([f"f{i}" for i in range(n_facts)],
                      [f"r{j}" for j in range(n_rules)], premises, conclusions)
    set_facts(eng, [i for i in range(n_facts) if rnd.random() < 0.35])
    return eng


def test_criterion_4_engine_equivalence():
    t0 = time.perf_counter()
    rnd = random.Random(77)
    for _ in range(500):
        eng = _random_engine(rnd)
        initial = eng.ef
        run_inference(eng)
        assert eng.ef == naive_forward_chain(eng.n_facts, *wiring_masks(eng),
                                             initial)
        assert eng.cycles <= eng.n_rules + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, elapsed, "500 random rulesets match the worklist chainer "
                        "within the cycle bound")


def _direct_lattice_prediction(lattice, labels, categories, doc, measure):
    """Reference classification reading the lattice, no engine involved."""
    eligible = [c for c in lattice.concepts if c.extent and c.intent]
    positive = []
    for c in eligible:
        inter = (doc.bits & c.intent).bit_count()
        if inter:
            key = reference_score_key(inter, doc.bits.bit_count(),
                                      c.intent.bit_count(), measure)
            positive.append((c, key))
    if not positive:
        return None, None, ()
    best = max(k for _, k in positive)
    chosen = [c for c, k in positive if k == best]
    dists = [ClassDistribution(reference_distribution(c.extent, labels,
                                                      categories))
             for c in chosen]
    category, mean = vote(dists, categories)
    return category, mean, tuple(sorted(c.intent for c in chosen))


def test_criterion_5_representation_equivalence():
    t0 = time.perf_counter()
    rnd = random.Random(303)
    cats = ("A", "B", "C")
    triples = 0
    while triples < 200:
        ctx = random_context(rnd, 8, 6)
        lattice = build_lattice(ctx)
        labels = [cats[rnd.randrange(3)] for _ in ctx.object_ids]
        model = compile_model(lattice, dict(zip(ctx.object_ids, labels)), cats)
        doc = DocumentVector(rnd.getrandbits(ctx.n_attributes), ctx.n_attributes)
        measure = MEASURES[rnd.randrange(4)]
        pred = classify(model, doc, measure, "max")
        direct_cat, direct_mean, direct_intents = _direct_lattice_prediction(
            lattice, labels, cats, doc, measure)
        intent_by_idx = dict(model.intent_facts)
        assert tuple(sorted(intent_by_idx[i]
                            for i in pred.activated_intents)) == \
            (direct_intents or ())
        assert pred.category == direct_cat
        if direct_mean is not None:
            assert pred.distribution.fractions == direct_mean.fractions
        triples += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, elapsed, f"{triples} (context, labeling, query) triples: "
                        "engine path equals direct lattice path")


def test_criterion_6_galois_laws():
    t0 = time.perf_counter()
    rnd = random.Random(55)
    samples = 0
    while samples < 1000:
        ctx = random_context(rnd, 10, 8)
        x = rnd.getrandbits(ctx.n_objects)
        y = x | rnd.getrandbits(ctx.n_objects)
        assert x & ~derive_extent(ctx, derive_intent(ctx, x)) == 0
        assert derive_intent(ctx, y) & ~derive_intent(ctx, x) == 0
        ix = derive_intent(ctx, x)
        assert derive_intent(ctx, derive_extent(ctx, ix)) == ix
        samples += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(6, elapsed, f"{samples} samples: extensivity, antitonicity, "
                        "idempotence")


def test_criterion_7_end_to_end_evaluation(tmp_path, capsys):
    t0 = time.perf_counter()
    corpus = str(DATA / "corpus")
    args = ["--baselines", "nb,knn", "--seed", "11", "--split", "0.67"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["evaluate", corpus, "-o", str(out1), *args]) == 0
    assert main(["evaluate", corpus, "-o", str(out2), *args]) == 0
    capsys.readouterr()

    report = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    assert [r["name"] for r in report["rows"]] == \
        ["jaccard", "cosine", "dice", "inner", "naive-bayes", "knn"]
    for row in report["rows"]:
        exact = {k: Fraction(n, d) for k, (n, d) in row["exact"].items()}
        for value in exact.values():
            assert 0 <= value <= 1
        assert exact["accuracy"] + exact["error"] == 1
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    elapsed = time.perf_counter() - t0
    _report(7, elapsed, "evaluate: 4 measures + 2 baselines, exact "
                        "accuracy+error=1, byte-identical reruns")


def test_criterion_8_compile_skip_rule():
    t0 = time.perf_counter()
    lattice = build_lattice(demo_context())
    model = compile_model(lattice, demo_labels_map(), DEMO_CATEGORIES)
    eng = model.engine_template
    assert eng.n_rules == 7
    assert eng.n_facts == 14
    for j in range(eng.n_rules):
        assert len(eng.premises[j]) == 1
        assert len(eng.conclusions[j]) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, elapsed, "top/bottom skipped: 7 rules, 14 fact cells, "
                        "single-1 RE/RS columns")


def test_criterion_9_timing_and_single_pass(tmp_path, capsys):
    t0 = time.perf_counter()
    from latticecell.evaluate import PipelineConfig, run_experiment

    report = run_experiment(DATA / "corpus", PipelineConfig(measures=("inner",)))
    capsys.readouterr()
    assert "lattice_build_s" in report.timings
    assert report.timings["lattice_build_s"] >= 0
    row = report.timings["rows"]["inner"]
    assert row["per_document_s"] >= 0
    assert row["classify_total_s"] >= 0

    # single-pass property: on compiled models (depth-1 rules) one
    # delta_fact + delta_rule already is the fixpoint
    rnd = random.Random(909)
    cats = ("A", "B")
    for _ in range(50):
        ctx = random_context(rnd, 8, 6)
        labels = [cats[rnd.randrange(2)] for _ in ctx.object_ids]
        model = compile_model(build_lattice(ctx),
                              dict(zip(ctx.object_ids, labels)), cats)
        if model.engine_template.n_rules == 0:
            continue
        active = [i for i, _ in model.intent_facts if rnd.random() < 0.5]
        one = model.fresh_engine()
        set_facts(one, active)
        delta_rule(delta_fact(one))
        after_one = (one.ef, one.er)
        delta_rule(delta_fact(one))
        assert (one.ef, one.er) == after_one   # nothing left to derive
        full = model.fresh_engine()
        set_facts(full, active)
        run_inference(full)
        assert (full.ef, full.er) == after_one
        assert full.cycles <= full.n_rules + 1
    elapsed = time.perf_counter() - t0
    _report(9, elapsed, "separate build/classify timings; depth-1 models "
                        "reach fixpoint in one pass")
