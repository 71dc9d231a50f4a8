"""Command-line surface: build, compile, classify, evaluate, inspect."""

import json
import re
from pathlib import Path

import pytest

from helpers import DATA, demo_context, demo_labels_map
from latticecell import build_lattice, compile_model, save_model
from latticecell.cli import main

QUERY_CSV = ("id,Stade,Pays,Personnage,Ministre,Puissance,Visage\n"
             "query,0,0,0,1,1,0\n")


@pytest.fixture()
def query_csv(tmp_path):
    path = tmp_path / "query.csv"
    path.write_text(QUERY_CSV, encoding="utf-8")
    return path


def test_build_from_context_csv(tmp_path, capsys):
    out = tmp_path / "lattice.json"
    rc = main(["build", str(DATA / "context.csv"), "-o", str(out),
               "--dot", str(tmp_path / "hasse.dot")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "9 concepts, 12 edges"
    data = json.loads(out.read_text(encoding="utf-8"))
    assert len(data["concepts"]) == 9
    assert (tmp_path / "hasse.dot").read_text(encoding="utf-8").startswith("digraph")


def test_build_from_corpus(tmp_path, capsys):
    out = tmp_path / "lattice.json"
    rc = main(["build", str(DATA / "corpus"), "-o", str(out), "--features", "6"])
    assert rc == 0
    assert "concepts" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["build", "evaluate"])
def test_a_corpus_without_documents_exits_2(tmp_path, capsys, command):
    corpus = tmp_path / "corpus"
    for category in ("sport", "economie"):
        (corpus / category).mkdir(parents=True)
    out = tmp_path / "out"
    rc = main([command, str(corpus), "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: corpus root {corpus} has no "
                                       f"documents\n")
    assert not out.exists()


def test_build_empty_incidence(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("id,a,b\nx,0,0\ny,0,0\n", encoding="utf-8")
    rc = main(["build", str(src), "-o", str(tmp_path / "l.json")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2 concepts, 1 edge"


def test_build_malformed_cell(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("id,a\nx,2\n", encoding="utf-8")
    rc = main(["build", str(src), "-o", str(tmp_path / "l.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "column 2" in err


def test_compile_demo(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    main(["build", str(DATA / "context.csv"), "-o", str(lattice)])
    capsys.readouterr()
    model = tmp_path / "model.json"
    rc = main(["compile", str(lattice), str(DATA / "labels.csv"),
               "-o", str(model)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "14 facts, 7 rules"


def test_compile_reads_a_labels_file_with_a_byte_order_mark(tmp_path):
    lattice, bommed = tmp_path / "lattice.json", tmp_path / "labels.csv"
    main(["build", str(DATA / "context.csv"), "-o", str(lattice)])
    bommed.write_bytes(b"\xef\xbb\xbf" + (DATA / "labels.csv").read_bytes())
    for labels, model in ((DATA / "labels.csv", "plain.json"),
                          (bommed, "bommed.json")):
        assert main(["compile", str(lattice), str(labels), "-o",
                     str(tmp_path / model)]) == 0
    assert ((tmp_path / "bommed.json").read_bytes()
            == (tmp_path / "plain.json").read_bytes())


def test_build_stopwords_match_whatever_their_case(tmp_path):
    """Tokens are lowercased, so a stopword entry ``Le`` drops ``le``."""
    stopwords = tmp_path / "stops.txt"
    stopwords.write_text("Le\nET\n", encoding="utf-8")
    out = tmp_path / "lattice.json"
    assert main(["build", str(DATA / "corpus"), "-o", str(out), "--features",
                 "200", "--stopwords", str(stopwords)]) == 0
    attributes = json.loads(out.read_text(encoding="utf-8"))["attributes"]
    assert "pays" in attributes
    assert not {"le", "et"} & set(attributes)


def test_compile_paper_fixture(tmp_path, capsys):
    model = tmp_path / "model.json"
    rc = main(["compile", "--paper-fixture", "-o", str(model)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "12 facts, 6 rules"
    data = json.loads(model.read_text(encoding="utf-8"))
    assert len(data["facts"]) == 12 and len(data["rules"]) == 6


def test_compile_missing_label(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    main(["build", str(DATA / "context.csv"), "-o", str(lattice)])
    capsys.readouterr()
    labels = tmp_path / "labels.csv"
    rows = (DATA / "labels.csv").read_text(encoding="utf-8").splitlines()
    labels.write_text("\n".join(r for r in rows if not r.startswith("Doc 4")) + "\n",
                      encoding="utf-8")
    rc = main(["compile", str(lattice), str(labels), "-o", str(tmp_path / "m.json")])
    assert rc == 2
    assert "Doc 4 unlabeled" in capsys.readouterr().err


def test_compile_unknown_object_in_lattice(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    main(["build", str(DATA / "context.csv"), "-o", str(lattice)])
    capsys.readouterr()
    data = json.loads(lattice.read_text(encoding="utf-8"))
    data["concepts"][1]["extent"].append("Doc 10")
    lattice.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["compile", str(lattice), str(DATA / "labels.csv"),
               "-o", str(tmp_path / "m.json")])
    assert rc == 2
    assert "Doc 10" in capsys.readouterr().err


def test_classify_worked_example(query_csv, capsys):
    rc = main(["classify", "--paper-fixture", str(query_csv),
               "--similarity", "inner"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    record = json.loads(line)
    assert record["id"] == "query"
    assert record["category"] == "Economie"
    assert record["distribution"] == [0, 0.835, 0.165]
    assert record["activated_intents"] == [4, 6]
    assert record["fired_vertices"] == [5, 7]


def test_classify_cosine_single_activation(query_csv, capsys):
    rc = main(["classify", "--paper-fixture", str(query_csv),
               "--similarity", "cosine"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["activated_intents"] == [4]
    assert record["category"] == "Economie"


def test_classify_text_document(tmp_path, capsys):
    doc = tmp_path / "article.txt"
    doc.write_text("Le ministre de la puissance.", encoding="utf-8")
    rc = main(["classify", "--paper-fixture", str(doc)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["category"] == "Economie"


def test_classify_empty_document_unclassifiable(tmp_path, capsys):
    doc = tmp_path / "blank.txt"
    doc.write_text("", encoding="utf-8")
    rc = main(["classify", "--paper-fixture", str(doc)])
    assert rc == 0  # unclassifiable documents are flagged, not fatal
    record = json.loads(capsys.readouterr().out.strip())
    assert record["category"] == "UNCLASSIFIABLE"
    assert record["distribution"] is None


def test_classify_undecodable_document_names_it(tmp_path, capsys):
    doc = tmp_path / "bad.txt"
    doc.write_bytes("le minist\xe8re".encode("latin-1"))
    assert main(["classify", "--paper-fixture", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read document {doc}: ")


def test_a_category_named_empty_is_a_category_not_unclassifiable(tmp_path,
                                                                 capsys):
    labels = {oid: "" if cat == "Sport" else cat
              for oid, cat in demo_labels_map().items()}
    model = tmp_path / "model.json"
    save_model(compile_model(build_lattice(demo_context()), labels,
                             ("", "Economie", "Television")), model)
    stade_pays = tmp_path / "query.csv"
    stade_pays.write_text(QUERY_CSV.replace("0,0,0,1,1,0", "1,1,0,0,0,0"),
                          encoding="utf-8")
    assert main(["classify", str(model), str(stade_pays)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["category"] == ""
    assert record["distribution"] == [1.0, 0.0, 0.0]


def test_classify_builds_one_token_map_per_run(tmp_path, monkeypatch, capsys):
    import latticecell.textprep as textprep

    calls = []
    token_masks = textprep._token_masks
    monkeypatch.setattr(textprep, "_token_masks",
                        lambda terms: calls.append(terms) or token_masks(terms))
    for name in ("a.txt", "b.txt", "c.txt"):
        (tmp_path / name).write_text("Le ministre de la puissance.",
                                     encoding="utf-8")
    assert main(["classify", "--paper-fixture", str(tmp_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(calls) == 1


def test_classify_model_file_round_trip(tmp_path, query_csv, capsys):
    model = tmp_path / "model.json"
    main(["compile", "--paper-fixture", "-o", str(model)])
    capsys.readouterr()
    rc = main(["classify", str(model), str(query_csv)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["category"] == "Economie"


def test_classify_vocabulary_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,x,y\nq,1,0\n", encoding="utf-8")
    rc = main(["classify", "--paper-fixture", str(bad)])
    assert rc == 2
    assert "vocabulary" in capsys.readouterr().err


REFERENCE_INITIAL_FACTS = [
    ("[Pays, Stade]", 0, 1, 0),
    ("[S0 (100% S), (0% E), (0% T)]", 0, 1, 0),
    ("[Visage]", 0, 1, 0),
    ("[S3 (50% S), (50% E), (0% T)]", 0, 1, 0),
    ("[Puissance, Ministre]", 1, 1, 0),
    ("[S4 (0% S), (67% E), (33% T)]", 0, 1, 0),
    ("[Visage, Puissance, Ministre]", 1, 1, 0),
    ("[S5 (0% S), (100% E), (0% T)]", 0, 1, 0),
    ("[Stade]", 0, 1, 0),
    ("[S6 (67% S), (0% E), (33% T)]", 0, 1, 0),
    ("[Personnage]", 0, 1, 0),
    ("[S7 (0% S), (0% E), (100% T)]", 0, 1, 0),
]


def _parse_fact_rows(snapshot):
    lines = snapshot.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Facts"))
    rows = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        label, ef, if_, sf = line.rsplit(None, 3)
        rows.append((label.rstrip(), int(ef), int(if_), int(sf)))
    return rows


def test_classify_trace_output_pinned(query_csv, capsys):
    """The fixture's --trace dump, byte for byte as the full-scan engine wrote it."""
    golden = Path(__file__).parent / "golden" / "classify_fixture_inner_trace.txt"
    rc = main(["classify", "--paper-fixture", str(query_csv),
               "--similarity", "inner", "--trace"])
    assert rc == 0
    assert capsys.readouterr().err == golden.read_text(encoding="utf-8")


def test_classify_trace_snapshots(query_csv, capsys):
    rc = main(["classify", "--paper-fixture", str(query_csv), "--trace"])
    assert rc == 0
    err = capsys.readouterr().err
    blocks = [b for b in err.split("# ---") if "Facts" in b]
    assert len(blocks) >= 2
    first = _parse_fact_rows(blocks[0].split("---", 1)[1])
    assert first == REFERENCE_INITIAL_FACTS
    # final snapshot: established extent facts are exactly S4 and S5;
    # the activated intent cells stay established (EF never shrinks)
    last = _parse_fact_rows(blocks[-1].split("---", 1)[1])
    is_extent = lambda label: re.match(r"\[S\d", label) is not None
    established_extents = [label.split(" ")[0].lstrip("[")
                           for (label, ef, _, _) in last
                           if ef and is_extent(label)]
    assert established_extents == ["S4", "S5"]
    established_intents = [label for (label, ef, _, _) in last
                           if ef and not is_extent(label)]
    assert established_intents == ["[Puissance, Ministre]",
                                   "[Visage, Puissance, Ministre]"]


def test_evaluate_bundled_corpus(tmp_path, capsys):
    out1 = tmp_path / "run1"
    rc = main(["evaluate", str(DATA / "corpus"), "-o", str(out1),
               "--baselines", "nb,knn", "--seed", "7"])
    assert rc == 0
    report = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    assert [r["name"] for r in report["rows"]] == \
        ["jaccard", "cosine", "dice", "inner", "naive-bayes", "knn"]
    timings = json.loads((out1 / "timings.json").read_text(encoding="utf-8"))
    assert "lattice_build_s" in timings
    out = capsys.readouterr().out
    assert "lattice build" in out and "per document" in out

    # repeated seeded run produces byte-identical reports
    out2 = tmp_path / "run2"
    main(["evaluate", str(DATA / "corpus"), "-o", str(out2),
          "--baselines", "nb,knn", "--seed", "7"])
    capsys.readouterr()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_evaluate_measure_subset(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = main(["evaluate", str(DATA / "corpus"), "-o", str(out),
               "--similarity", "cosine,inner"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [r["name"] for r in report["rows"]] == ["cosine", "inner"]


@pytest.mark.parametrize("flags, message", [
    (["--similarity", "inner,inner", "--baselines", "nb,nb"],
     "repeated similarity measure 'inner'"),
    (["--similarity", "inner", "--baselines", "nb,nb"], "repeated baseline 'nb'"),
    (["--similarity", ""], "no similarity measure or baseline to evaluate"),
], ids=["repeated-measure", "repeated-baseline", "no-rows"])
def test_evaluate_rejects_a_repeated_or_empty_row_list(tmp_path, capsys, flags,
                                                       message):
    out = tmp_path / "rep"
    rc = main(["evaluate", str(DATA / "corpus"), "-o", str(out), *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_evaluate_baselines_only(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = main(["evaluate", str(DATA / "corpus"), "-o", str(out),
               "--similarity", "", "--baselines", "nb"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
    assert [r["name"] for r in report["rows"]] == list(timings["rows"]) == \
        ["naive-bayes"]


@pytest.mark.parametrize("argv", [
    ["classify", "--paper-fixture", "{query}", "--activation", "threshold:nan"],
    ["evaluate", "{data}/corpus", "-o", "{tmp}/rep",
     "--activation", "threshold:inf"],
], ids=["classify-nan", "evaluate-inf"])
def test_a_threshold_that_is_not_finite_is_rejected(tmp_path, query_csv, capsys,
                                                    argv):
    rc = main([a.format(tmp=tmp_path, data=DATA, query=query_csv) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: threshold needs a finite T")
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("policy, message", [
    ("bogus", "error: unknown activation policy 'bogus'"),
    ("threshold:nan", "error: threshold needs a finite T"),
    ("topk:0", "error: topk needs K >= 1"),
])
@pytest.mark.parametrize("source", ["empty-dir", "header-only-csv"])
def test_classify_checks_the_policy_without_documents(tmp_path, capsys, policy,
                                                      message, source):
    if source == "empty-dir":
        inputs = tmp_path / "docs"
        inputs.mkdir()
    else:
        inputs = tmp_path / "empty.csv"
        inputs.write_text(QUERY_CSV.splitlines()[0] + "\n", encoding="utf-8")
    rc = main(["classify", "--paper-fixture", str(inputs),
               "--activation", policy])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_evaluate_missing_corpus(tmp_path, capsys):
    rc = main(["evaluate", str(tmp_path / "nowhere"), "-o", str(tmp_path / "r")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compile", "{tmp}/missing.json", "{data}/labels.csv", "-o", "{tmp}/m.json"],
    ["classify", "{tmp}/missing.json", "{tmp}/x.txt"],
    ["build", "{tmp}/missing.csv", "-o", "{tmp}/l.json"],
    ["evaluate", "{data}/corpus", "-o", "{tmp}/rep",
     "--stopwords", "{tmp}/missing.txt"],
    ["inspect", "{tmp}/missing.json"],
])
def test_missing_input_file_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    rc = main([a.format(tmp=tmp_path, data=DATA) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "missing" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compile", "inspect"])
@pytest.mark.parametrize("key, value", [
    ("top", float("inf")), ("top", 1.5), ("objects", ["Doc 1", "Doc 1"]),
], ids=["infinite-top", "fractional-top", "duplicate-object"])
def test_malformed_lattice_is_an_error_not_a_traceback(tmp_path, capsys,
                                                       command, key, value):
    path = tmp_path / "lattice.json"
    assert main(["build", str(DATA / "context.csv"), "-o", str(path)]) == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    data[key] = value
    path.write_text(json.dumps(data), encoding="utf-8")  # inf as Infinity
    argv = {"compile": ["compile", str(path), str(DATA / "labels.csv"),
                        "-o", str(tmp_path / "model.json")],
            "inspect": ["inspect", str(path)]}[command]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("argv, bad", [
    (["compile", "{bad}", "{data}/labels.csv", "-o", "{tmp}/m.json"],
     b'{"objects": ["\xff"]}'),
    (["classify", "{bad}", "{tmp}/q.csv"], b'{"facts": ["\xff"]}'),
    (["inspect", "{bad}"], b"not json"),
    (["inspect", "{bad}"], b'{"\xff": 1}'),
    (["compile", "{tmp}/lattice.json", "{bad}", "-o", "{tmp}/m.json"],
     b"Doc 1,Sport\nDoc 2,\xffconomie\n"),
], ids=["lattice-not-utf8", "model-not-utf8", "inspect-not-json",
        "inspect-not-utf8", "labels-not-utf8"])
def test_undecodable_input_names_the_file(tmp_path, capsys, argv, bad):
    assert main(["build", str(DATA / "context.csv"), "-o",
                 str(tmp_path / "lattice.json")]) == 0
    path = tmp_path / "bad.input"
    path.write_bytes(bad)
    capsys.readouterr()
    rc = main([a.format(bad=path, data=DATA, tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {path}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "m.json").exists()


def test_repeated_label_names_its_row(tmp_path, capsys):
    lattice, labels = tmp_path / "lattice.json", tmp_path / "labels.csv"
    main(["build", str(DATA / "context.csv"), "-o", str(lattice)])
    labels.write_bytes((DATA / "labels.csv").read_bytes() + b"Doc 1,Economie\n")
    capsys.readouterr()
    assert main(["compile", str(lattice), str(labels), "-o",
                 str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (f"error: {labels}: row 10: repeated "
                                       f"object id 'Doc 1'\n")
    assert not (tmp_path / "m.json").exists()


def test_a_label_with_an_empty_category_names_its_row(tmp_path, capsys):
    lattice, labels = tmp_path / "lattice.json", tmp_path / "labels.csv"
    main(["build", str(DATA / "context.csv"), "-o", str(lattice)])
    labels.write_bytes((DATA / "labels.csv").read_bytes()
                       .replace(b"Doc 1,Sport", b"Doc 1,"))
    capsys.readouterr()
    assert main(["compile", str(lattice), str(labels), "-o",
                 str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (f"error: {labels}: row 1: object "
                                       f"'Doc 1' has an empty category\n")
    assert not (tmp_path / "m.json").exists()


FOREIGN_CONCEPTS = pytest.mark.parametrize("mutate", [
    lambda d: (d["concepts"].pop(1), d.__setitem__("top", 7)),
    lambda d: d["concepts"][3]["intent"].pop(),
    lambda d: d["attributes"].append("Stadium"),
], ids=["concept-deleted", "intent-attribute-dropped", "attribute-in-no-intent"])


def _foreign_lattice(tmp_path, mutate):
    """The demo lattice file, edited so that its concepts are not the
    concepts of the context it recovers."""
    path = tmp_path / "lattice.json"
    main(["build", str(DATA / "context.csv"), "-o", str(path)])
    data = json.loads(path.read_text(encoding="utf-8"))
    mutate(data)
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@FOREIGN_CONCEPTS
def test_inspect_rejects_a_lattice_of_foreign_concepts(tmp_path, capsys,
                                                       mutate):
    path = _foreign_lattice(tmp_path, mutate)
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error: (no )?concept ", captured.err)
    assert "Traceback" not in captured.err


@FOREIGN_CONCEPTS
def test_compile_rejects_a_lattice_of_foreign_concepts(tmp_path, capsys,
                                                       mutate):
    path = _foreign_lattice(tmp_path, mutate)
    model = tmp_path / "model.json"
    capsys.readouterr()
    assert main(["compile", str(path), str(DATA / "labels.csv"), "-o",
                 str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error: (no )?concept ", captured.err)
    assert not model.exists()


def test_inspect_files(tmp_path, capsys):
    main(["inspect", str(DATA / "context.csv")])
    assert "9 objects x 6 attributes" in capsys.readouterr().out
    lattice = tmp_path / "lattice.json"
    main(["build", str(DATA / "context.csv"), "-o", str(lattice)])
    capsys.readouterr()
    main(["inspect", str(lattice)])
    assert "9 concepts" in capsys.readouterr().out
    model = tmp_path / "model.json"
    main(["compile", "--paper-fixture", "-o", str(model)])
    capsys.readouterr()
    main(["inspect", str(model)])
    out = capsys.readouterr().out
    assert "12 facts" in out and "6 rules" in out


def test_inspect_tells_a_report_from_its_timings(tmp_path, capsys):
    main(["evaluate", str(DATA / "corpus"), "-o", str(tmp_path / "report"),
          "--similarity", "inner", "--baselines", "nb"])
    listing = tmp_path / "list.json"
    listing.write_text("[]", encoding="utf-8")
    capsys.readouterr()
    for name, rc, out in (
            ("report/report.json", 0, "report: 2 configurations, "
                                      "categories: economie, sport, television"),
            ("report/timings.json", 1, "unrecognized file"),
            ("list.json", 1, "unrecognized file")):
        assert main(["inspect", str(tmp_path / name)]) == rc
        assert capsys.readouterr() == (out + "\n", "")


@pytest.mark.parametrize("kind, key, value, rc, out", [
    ("lattice", "covers", None, 0, "9 concepts, 12 edges"),
    ("lattice", "covers", [[0, 1]], 0, "9 concepts, 12 edges"),
    ("model", "rules", None, 2, ""),
])
def test_inspect_reads_files_through_their_loaders(tmp_path, capsys, kind, key,
                                                   value, rc, out):
    """A missing (None) or tampered key: covers are derived, rules required."""
    path = tmp_path / f"{kind}.json"
    if kind == "lattice":
        main(["build", str(DATA / "context.csv"), "-o", str(path)])
    else:
        main(["compile", "--paper-fixture", "-o", str(path)])
    data = json.loads(path.read_text(encoding="utf-8"))
    if value is None:
        del data[key]
    else:
        data[key] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", str(path)]) == rc
    captured = capsys.readouterr()
    assert out in captured.out
    if rc:
        assert captured.out == "" and "malformed model" in captured.err


def test_classify_rejects_phantom_attribute(tmp_path, query_csv, capsys):
    model = tmp_path / "model.json"
    main(["compile", "--paper-fixture", "-o", str(model)])
    data = json.loads(model.read_text(encoding="utf-8"))
    data["facts"][0]["attributes"].append(len(data["vocabulary"]))
    model.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", str(model), str(query_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside the 6-term vocabulary" in captured.err


def test_classify_rejects_a_fractional_rule_index(tmp_path, query_csv, capsys):
    model = tmp_path / "model.json"
    main(["compile", "--paper-fixture", "-o", str(model)])
    data = json.loads(model.read_text(encoding="utf-8"))
    data["rules"][0]["premise"] = 0.5  # int() would read fact 0
    model.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", str(model), str(query_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "premise 0.5 and conclusion 1 must be integers" in captured.err


def test_model_with_a_fact_no_rule_joins_is_rejected(tmp_path, query_csv,
                                                      capsys):
    from latticecell import FormatError
    from latticecell.compiler import model_from_dict

    model = tmp_path / "model.json"
    main(["compile", "--paper-fixture", "-o", str(model)])
    data = json.loads(model.read_text(encoding="utf-8"))
    data["rules"].pop()
    with pytest.raises(FormatError, match="fact 10 is referenced by no rule"):
        model_from_dict(data)
    model.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", str(model), str(query_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fact 10 is referenced by no rule" in captured.err


@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.__setitem__("categories", "SET"), "categories"),
    (lambda d: d["vocabulary"].__setitem__(0, 7), "vocabulary"),
    (lambda d: d["facts"][0].__setitem__("label", 5), "fact labels"),
], ids=["categories-string", "vocabulary-integer", "label-integer"])
def test_classify_rejects_names_that_are_not_strings(tmp_path, capsys, mutate,
                                                     message, trace):
    model, doc = tmp_path / "model.json", tmp_path / "article.txt"
    main(["compile", "--paper-fixture", "-o", str(model)])
    data = json.loads(model.read_text(encoding="utf-8"))
    mutate(data)
    model.write_text(json.dumps(data), encoding="utf-8")
    doc.write_text("Le ministre de la puissance.", encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", str(model), str(doc), *trace]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}: expected a list of strings\n"


@pytest.mark.parametrize("command", ["classify", "inspect"])
@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.__setitem__("categories", ["Sport", "Sport", "Television"]),
     "categories: repeated name 'Sport'"),
    (lambda d: d["vocabulary"].__setitem__(1, "Stade"),
     "vocabulary: repeated name 'Stade'"),
    (lambda d: d["facts"][0].__setitem__("attributes", [True, 0]),
     "fact 0: attribute True is not an integer"),
], ids=["repeated-category", "repeated-term", "boolean-attribute"])
def test_model_file_with_repeated_names_or_a_boolean_index_is_rejected(
        tmp_path, query_csv, capsys, mutate, message, command):
    model = tmp_path / "model.json"
    main(["compile", "--paper-fixture", "-o", str(model)])
    data = json.loads(model.read_text(encoding="utf-8"))
    mutate(data)
    model.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    argv = {"classify": ["classify", str(model), str(query_csv)],
            "inspect": ["inspect", str(model)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["classify", "inspect"])
def test_model_with_no_categories_is_rejected(tmp_path, query_csv, capsys,
                                              command):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "categories": [],
        "vocabulary": QUERY_CSV.splitlines()[0].split(",")[1:],
        "facts": [{"label": "[Stade]", "kind": "intent", "attributes": [0]},
                  {"label": "[S0]", "kind": "extent", "distribution": []}],
        "rules": [{"premise": 0, "conclusion": 1}]}), encoding="utf-8")
    argv = {"classify": ["classify", str(model), str(query_csv)],
            "inspect": ["inspect", str(model)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fact 1: fractions sum to 0, expected 1\n"


def test_lattice_with_integer_names_is_rejected(tmp_path, capsys):
    path, model = tmp_path / "lattice.json", tmp_path / "model.json"
    main(["build", str(DATA / "context.csv"), "-o", str(path)])
    data = json.loads(path.read_text(encoding="utf-8"))
    index = {name: i for i, name in enumerate(data["attributes"])}
    data["attributes"] = list(index.values())
    for concept in data["concepts"]:
        concept["intent"] = [index[name] for name in concept["intent"]]
    path.write_text(json.dumps(data), encoding="utf-8")
    for argv in (["inspect", str(path)],
                 ["compile", str(path), str(DATA / "labels.csv"), "-o",
                  str(model)]):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: attributes: expected a list of "
                                "strings\n")
    assert not model.exists()


@pytest.mark.parametrize("command", ["build", "evaluate"])
def test_undecodable_stopwords_name_the_file(tmp_path, capsys, command):
    stopwords = tmp_path / "bad.txt"
    stopwords.write_bytes(b"le\n\xff\n")
    rc = main([command, str(DATA / "corpus"), "-o", str(tmp_path / "out"),
               "--stopwords", str(stopwords)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {stopwords}: 'utf-8' codec can't decode")
    assert "Traceback" not in err
