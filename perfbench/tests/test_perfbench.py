"""Tests of the pipeline benchmark: generator, references, small runs."""

import csv
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from latticecell import default_stopwords, remove_stopwords, tokenize
from latticecell.cli import main as cli_main
from perfbench import reference as ref
from perfbench import run
from perfbench.corpus import CorpusShape, generate
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DATA = ROOT / "src" / "latticecell" / "data"
TINY = CorpusShape(docs_per_category=8, unlabeled=6,
                   background=150,
                   doc_tokens=20, topic_share=0.35)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_and_documents_are_not_empty(tmp_path):
    a = generate(tmp_path / "a", TINY, "s/1")
    b = generate(tmp_path / "b", TINY, "s/1")
    c = generate(tmp_path / "c", TINY, "s/2")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert a.labels == b.labels and len(a.labels) == 24
    assert len(a.unlabeled_labels) == 6 and len(a.categories) == 3
    stop = default_stopwords()
    for path in (tmp_path / "a").rglob("*.txt"):
        assert remove_stopwords(tokenize(path.read_text("utf-8")), stop), path


def _demo_context():
    with (DATA / "context.csv").open(newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    rows = [sum(1 << j for j, cell in enumerate(r[1:]) if cell == "1")
            for r in table[1:]]
    return table[0][1:], rows


def test_reference_reproduces_the_worked_example_lattice():
    attributes, rows = _demo_context()
    concepts = ref.concepts(rows, len(attributes))
    columns = ref.columns_of(rows, len(attributes))
    covers = sum(len(ref.upper_cover_extents(e, i, rows, columns))
                 for e, i in concepts)
    assert (len(concepts), covers) == (9, 12)


def test_reference_classifies_the_fixture_query_economie(tmp_path):
    path = tmp_path / "fixture.json"
    assert cli_main(["compile", "--paper-fixture", "-o", str(path)]) == 0
    model = json.loads(path.read_text("utf-8"))
    facts = model["facts"]
    rules = [(sum(1 << a for a in facts[r["premise"]]["attributes"]),
              tuple(Fraction(n, d) for n, d in facts[r["conclusion"]]["distribution"]))
             for r in model["rules"]]
    query = (1 << model["vocabulary"].index("Ministre")) | (
        1 << model["vocabulary"].index("Puissance"))
    category, mean, chosen = ref.predict(rules, query, "inner",
                                         model["categories"])
    assert category == "Economie"
    assert mean == (0, Fraction(835, 1000), Fraction(165, 1000))
    assert len(chosen) == 2


def _small(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, shape=TINY, corpora=1,
                               features=min(w.features, 12))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_untraced_run_passes_its_checks(name, tmp_path):
    record = run.run_workload(_small(name), 3, 0, False, tmp_path)
    assert record["correct"] and record["failed"] == 0, record["problems"]
    assert record["attempted"] == _small(name).ops_per_round()
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_small_traced_run_reports_every_layer(tmp_path):
    record = run.run_workload(_small("cli-classify"), 3, 0, True, tmp_path)
    assert record["correct"] and record["failed"] == 0, record["problems"]
    assert set(record["metrics"]) == set(run.PER_LAYER)
    layers = record["per_layer"]
    assert layers["lattice.concepts"] > 0 and layers["compiler.rules"] > 0
    assert layers["classify.docs"] == 4 * TINY.unlabeled
    for name in ("lattice.save_s", "lattice.dot_s", "compiler.load_s",
                 "classify.activate_dice_s"):
        assert layers[name] > 0


def test_checks_catch_a_wrong_prediction(tmp_path):
    w = _small("cli-classify")
    corpora = w.generate(tmp_path, 5)
    rnd = w.run_round(corpora, tmp_path, 5)
    assert not w.check(corpora, rnd, {}, 5).problems
    files = rnd.outputs[0]["files"]
    lines = files["predictions_inner.jsonl"].decode().splitlines()
    record = json.loads(lines[0])
    record["category"] = "UNCLASSIFIABLE" if record["category"] != \
        "UNCLASSIFIABLE" else corpora[0].categories[0]
    files["predictions_inner.jsonl"] = "\n".join(
        [json.dumps(record)] + lines[1:]).encode()
    verdict = w.check(corpora, rnd, {}, 5)
    assert verdict.failed == 1 and verdict.problems


def test_a_later_round_that_writes_nothing_is_a_mismatch(tmp_path, monkeypatch):
    import latticecell.cli

    calls = []

    def lazy_main(argv):
        calls.append(argv[0])
        # after the first round, classify exits 0 without writing
        if argv[0] == "classify" and calls.count("classify") > 4:
            return 0
        return cli_main(argv)

    monkeypatch.setattr(latticecell.cli, "main", lazy_main)
    record = run.run_workload(_small("cli-classify"), 3, 0.3, False, tmp_path)
    assert calls.count("build") >= 2
    assert not record["correct"] and record["failed"] > 0
    assert any("differ from the first round" in p for p in record["problems"])


def test_a_call_that_raises_makes_the_run_incorrect(tmp_path, monkeypatch):
    import latticecell

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(latticecell, "run_experiment", broken)
    w = _small("train-wide")
    record = run.run_workload(w, 3, 0, False, tmp_path)
    assert not record["correct"]
    assert record["failed"] == w.ops_per_round()


def test_times_are_scaled_by_the_speed_probe(tmp_path, monkeypatch):
    from perfbench import workloads

    # a probe twice as slow as the reference: the machine runs at half speed
    monkeypatch.setattr(workloads, "probe", lambda: 2 * workloads.PROBE_REF_S)
    record = run.run_workload(_small("train-wide"), 3, 0, False, tmp_path)
    assert record["rounds"]["untraced_speed"] == [0.5]
    assert record["metrics"]["docs_per_s"]["value"] == pytest.approx(
        2 * record["cpu_docs_per_s"])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)[:2]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
