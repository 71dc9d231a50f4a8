"""The bundled demo's outputs, byte for byte.

``tests/golden/`` holds what ``build --dot``, ``compile``, ``compile
--paper-fixture``, ``evaluate --baselines nb,knn --seed 7`` and one
``evaluate`` under ``--activation topk:2`` write for the bundled data,
the counts ``compile`` and ``inspect`` print for the demo model and the
fixture, and what ``classify`` writes for the bundled context and the
bundled corpus's text files against the demo model, with one ``--trace``
dump of the engine's fact and rule tables. ``build --dot`` runs on both
the bundled context and the bundled corpus, so the text path is covered
too. A change that alters any of these bytes changes behaviour, and must
regenerate the files on purpose.
"""

from pathlib import Path

import pytest

from helpers import DATA
from latticecell.classify import MEASURES
from latticecell.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for argv in (
            ["build", DATA / "context.csv", "-o", out / "lattice.json",
             "--dot", out / "lattice.dot"],
            ["build", DATA / "corpus", "-o", out / "corpus_lattice.json",
             "--dot", out / "corpus_lattice.dot"],
            ["compile", out / "lattice.json", DATA / "labels.csv",
             "-o", out / "model.json"],
            ["compile", "--paper-fixture", "-o", out / "fixture.json"],
            ["evaluate", DATA / "corpus", "-o", out / "report",
             "--baselines", "nb,knn", "--seed", "7"],
            ["evaluate", DATA / "corpus", "-o", out / "report_topk",
             "--similarity", "cosine,inner", "--activation", "topk:2",
             "--baselines", "knn", "--split", "0.5", "--seed", "3"]):
        assert main([str(a) for a in argv]) == 0
    return out


@pytest.mark.parametrize("golden, produced", [
    ("demo_lattice.json", "lattice.json"),
    ("demo_lattice.dot", "lattice.dot"),
    ("demo_corpus_lattice.json", "corpus_lattice.json"),
    ("demo_corpus_lattice.dot", "corpus_lattice.dot"),
    ("demo_model.json", "model.json"),
    ("fixture_model.json", "fixture.json"),
    ("demo_report.json", "report/report.json"),
    ("demo_report.txt", "report/report.txt"),
    ("demo_report_topk.json", "report_topk/report.json"),
])
def test_demo_output_matches_golden_bytes(outputs, golden, produced):
    assert (outputs / produced).read_bytes() == (GOLDEN / golden).read_bytes()


def test_demo_classify_matches_golden_bytes(tmp_path):
    """Every measure under max, topk:2 and threshold:0.5, in that order:
    max and topk rank by the exact keys, threshold compares the values."""
    out, produced = tmp_path / "rows.jsonl", b""
    for measure in MEASURES:
        for policy in ("max", "topk:2", "threshold:0.5"):
            assert main(["classify", str(GOLDEN / "demo_model.json"),
                         str(DATA / "context.csv"), "--similarity", measure,
                         "--activation", policy, "-o", str(out)]) == 0
            produced += out.read_bytes()
    assert produced == (GOLDEN / "demo_classify.jsonl").read_bytes()


def test_demo_corpus_classify_matches_golden_bytes(tmp_path):
    """The bundled corpus's text files, one category directory after the
    other, under every measure with max."""
    out, produced = tmp_path / "rows.jsonl", b""
    dirs = [str(DATA / "corpus" / c) for c in ("economie", "sport",
                                                "television")]
    for measure in MEASURES:
        assert main(["classify", str(GOLDEN / "demo_model.json"), *dirs,
                     "--similarity", measure, "--activation", "max",
                     "-o", str(out)]) == 0
        produced += out.read_bytes()
    assert produced == (GOLDEN / "demo_corpus_classify.jsonl").read_bytes()


def test_demo_model_trace_matches_golden_bytes(capsys):
    """The engine's snapshots for two corpus documents under cosine and
    topk:2: 14 facts with labels of up to 29 characters, and 7 rules."""
    corpus = DATA / "corpus"
    assert main(["classify", str(GOLDEN / "demo_model.json"),
                 str(corpus / "economie" / "doc5.txt"),
                 str(corpus / "television" / "doc3.txt"),
                 "--similarity", "cosine", "--activation", "topk:2",
                 "--trace"]) == 0
    assert (capsys.readouterr().err.encode("utf-8")
            == (GOLDEN / "demo_model_trace.txt").read_bytes())


def test_demo_compile_and_inspect_print_golden_counts(tmp_path, capsys):
    """``compile`` then ``inspect`` on the demo model, then on the fixture:
    the fact and rule counts come from the model, not its engine."""
    model, fixture = tmp_path / "model.json", tmp_path / "fixture.json"
    for argv in (["compile", GOLDEN / "demo_lattice.json",
                  DATA / "labels.csv", "-o", model],
                 ["inspect", model],
                 ["compile", "--paper-fixture", "-o", fixture],
                 ["inspect", fixture]):
        assert main([str(a) for a in argv]) == 0
    assert (capsys.readouterr().out.encode("utf-8")
            == (GOLDEN / "demo_inspect.txt").read_bytes())
