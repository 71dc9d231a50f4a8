"""Metrics, baselines, and the end-to-end experiment runner."""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings

from helpers import (DATA, reference_classify, reference_naive_bayes_table,
                     reference_transpose, reference_vectorize,
                     reference_vocabulary)
import latticecell
from latticecell import (ConfusionMatrix, CorpusError, DocumentVector,
                         EmptyInputError, LabelingError, PipelineConfig,
                         build_context, build_lattice, compile_model,
                         default_stopwords, load_corpus, metrics,
                         run_experiment, split_corpus)
from latticecell.classify import MEASURES
from latticecell.cli import main
from latticecell.compiler import index_masks
from latticecell.evaluate import (_knn_predict, _naive_bayes_predict,
                                  _naive_bayes_table)
from latticecell.textprep import Document
from strategies import labeled_vectors

CATS = ("S", "E", "T")


def test_metrics_perfect():
    cm = ConfusionMatrix.from_pairs(CATS, [("S", "S"), ("E", "E"), ("T", "T")])
    m = metrics(cm)
    assert m.precision == m.recall == m.accuracy == m.f_measure == 1
    assert m.error == 0


def test_metrics_hand_example():
    # truth (S, E, T), predictions (S, E, E)
    cm = ConfusionMatrix.from_pairs(CATS, [("S", "S"), ("E", "E"), ("T", "E")])
    m = metrics(cm)
    assert m.accuracy == Fraction(2, 3)
    assert m.error == Fraction(1, 3)
    assert m.precision == Fraction(1, 2)          # (1 + 1/2 + 0) / 3
    assert m.recall == Fraction(2, 3)             # (1 + 1 + 0) / 3
    assert m.accuracy + m.error == 1
    p, r = m.precision, m.recall
    assert m.f_measure == 2 * p * r / (p + r)


def test_metrics_single_class_predictor():
    cm = ConfusionMatrix.from_pairs(CATS, [("S", "S"), ("E", "S"), ("T", "S")])
    assert metrics(cm).accuracy == Fraction(1, 3)


def test_metrics_unclassified_counts_against():
    cm = ConfusionMatrix.from_pairs(CATS, [("S", "S"), ("E", None), ("T", "T")])
    m = metrics(cm)
    assert cm.total == 3
    assert m.accuracy == Fraction(2, 3)
    assert m.recall == Fraction(2, 3)              # E recalls 0 of 1
    assert m.accuracy + m.error == 1


def test_metrics_empty_matrix():
    with pytest.raises(EmptyInputError):
        metrics(ConfusionMatrix.from_pairs(CATS, []))


def _vec(bits, size, cat, n):
    return DocumentVector(bits, size, cat, f"d{n}")


def _naive_bayes(train, doc, categories):
    """Naive Bayes as ``run_experiment`` trains it, on the training
    vectors' columns."""
    columns = reference_transpose([v.bits for v in train], train[0].size)
    return _naive_bayes_predict(
        _naive_bayes_table(train, categories, columns), doc)


def _knn(train, doc, categories):
    """k-NN as ``run_experiment`` trains it, on an index of the training
    vectors' columns."""
    masks = [v.bits for v in train]
    index = index_masks(masks, reference_transpose(masks, train[0].size))
    return _knn_predict(index, [v.category for v in train], categories, doc)


def _reference_naive_bayes_predict(nb_table, doc):
    """The first category of the highest log posterior, each summed in
    attribute order."""
    size, table = nb_table

    def score(row):
        _, total, log_p, log_q = row
        for i in range(size):
            total += log_p[i] if (doc.bits >> i) & 1 else log_q[i]
        return total
    return max(table, key=score)[0]


def test_naive_bayes_disjoint_vocab():
    train = [_vec(0b0011, 4, "A", 0), _vec(0b1100, 4, "B", 1)]
    assert _naive_bayes(train, _vec(0b0011, 4, None, 9), ("A", "B")) == "A"
    assert _naive_bayes(train, _vec(0b1100, 4, None, 9), ("A", "B")) == "B"


def test_naive_bayes_uniform_tie_first_category():
    train = [_vec(0b01, 2, "A", 0), _vec(0b01, 2, "B", 1)]
    assert _naive_bayes(train, _vec(0b01, 2, None, 9), ("A", "B")) == "A"
    assert _naive_bayes(train, _vec(0b01, 2, None, 9), ("B", "A")) == "B"


def test_naive_bayes_hand_posteriors():
    # vocab (t, u); A = {(t), (t,u)}, B = {(u), ()}; query = (t)
    # P(t|A) = 3/4, P(u|A) = 1/2; P(t|B) = 1/4, P(u|B) = 1/2
    # score(A) = log(1/2 * 3/4 * 1/2) > score(B) = log(1/2 * 1/4 * 1/2)
    train = [_vec(0b01, 2, "A", 0), _vec(0b11, 2, "A", 1),
             _vec(0b10, 2, "B", 2), _vec(0b00, 2, "B", 3)]
    for cats in (("A", "B"), ("B", "A")):
        assert _naive_bayes(train, _vec(0b01, 2, None, 9), cats) == "A"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=labeled_vectors())
def test_naive_bayes_table_equals_member_count(case):
    """The table counts each attribute member by member, and a query,
    drawn or all-zero, gets the first category of the highest posterior,
    with the categories in both orders."""
    train, query, categories = case
    size = train[0].size
    columns = reference_transpose([v.bits for v in train], size)
    for cats in (categories, categories[::-1]):
        table = _naive_bayes_table(train, cats, columns)
        want = reference_naive_bayes_table(train, cats)
        assert table == want
        for bits in (query, 0):
            doc = DocumentVector(bits, size)
            assert (_naive_bayes_predict(table, doc)
                    == _reference_naive_bayes_predict(want, doc)), (bits, cats)


# the k-NN cases are for k = 3 by cosine, the settings the report states


def test_knn_exact_match():
    # the exact match and the query's two halves, all A, outvote B, which
    # is larger but shares no term with the query
    train = [_vec(0b1100, 4, "B", 0), _vec(0b0011, 4, "A", 1),
             _vec(0b1000, 4, "B", 2), _vec(0b0001, 4, "A", 3),
             _vec(0b1100, 4, "B", 4), _vec(0b0010, 4, "A", 5),
             _vec(0b0100, 4, "B", 6)]
    assert _knn(train, _vec(0b0011, 4, None, 9), ("A", "B")) == "A"
    assert _knn(train, _vec(0b0011, 4, None, 9), ("B", "A")) == "A"


def test_knn_majority_of_three():
    # cosine 1, 1/sqrt(2) and 1/2: the exact match is A, the other two B
    train = [_vec(0b110, 3, "A", 0), _vec(0b100, 3, "B", 1),
             _vec(0b101, 3, "B", 2)]
    assert _knn(train, _vec(0b110, 3, None, 9), ("A", "B")) == "B"


def test_knn_global_tie_first_category():
    # three neighbours of three categories, one vote each
    train = [_vec(0b01, 2, "C", 0), _vec(0b10, 2, "B", 1),
             _vec(0b11, 2, "A", 2)]
    query = _vec(0b11, 2, None, 9)
    for cats in (("A", "B", "C"), ("C", "B", "A"), ("B", "C", "A")):
        assert _knn(train, query, cats) == cats[0]
    # fewer training vectors than k: each votes once
    two = [_vec(0b01, 2, "B", 0), _vec(0b10, 2, "A", 1)]
    for cats in (("A", "B"), ("B", "A")):
        assert _knn(two, query, cats) == cats[0]


def test_knn_distance_ties_keep_training_order():
    # the exact match first, then four vectors tied at 1/sqrt(2), of
    # which the two earliest in training order vote
    tied = [_vec(0b01, 2, "B", 0), _vec(0b10, 2, "B", 1),
            _vec(0b01, 2, "A", 2), _vec(0b10, 2, "A", 3)]
    exact = _vec(0b11, 2, "A", 4)
    query = _vec(0b11, 2, None, 9)
    assert _knn(tied + [exact], query, ("A", "B")) == "B"
    assert _knn(tied[2:] + tied[:2] + [exact], query, ("A", "B")) == "A"


def test_split_corpus_stratified_and_seeded():
    docs = [Document(f"{c}{i}", c, "") for c in "ABC" for i in range(6)]
    train1, test1 = split_corpus(docs, 2 / 3, seed=5)
    train2, test2 = split_corpus(docs, 2 / 3, seed=5)
    assert train1 == train2 and test1 == test2
    for cat in "ABC":
        assert sum(1 for d in train1 if d.category == cat) == 4
        assert sum(1 for d in test1 if d.category == cat) == 2
    train3, _ = split_corpus(docs, 2 / 3, seed=6)
    assert train3 != train1  # different seed shuffles differently


def test_run_experiment_bundled_corpus():
    config = PipelineConfig(baselines=("nb", "knn"), seed=1)
    report = run_experiment(DATA / "corpus", config)
    names = [row.name for row in report.rows]
    assert names == ["jaccard", "cosine", "dice", "inner", "naive-bayes", "knn"]
    for row in report.rows:
        m = row.metrics
        for value in (m.precision, m.recall, m.accuracy, m.error, m.f_measure):
            assert 0 <= value <= 1
        assert m.accuracy + m.error == 1
    assert report.timings["lattice_build_s"] >= 0
    assert report.timings["compile_s"] >= 0
    for name in names:
        assert report.timings["rows"][name]["classify_total_s"] >= 0
        assert report.timings["rows"][name]["per_document_s"] >= 0


def _counting(monkeypatch, name):
    """Record each call of ``latticecell.textprep.<name>``: its first
    argument, and its result."""
    calls = []
    real = getattr(latticecell.textprep, name)

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args[0], result))
        return result
    monkeypatch.setattr(latticecell.textprep, name, counted)
    return calls


def test_training_tokenizes_each_document_once(tmp_path, monkeypatch):
    """Training documents are tokenized once, for feature selection and
    for their vectors; test documents once, for their vectors."""
    texts = Counter(d.text for d in load_corpus(DATA / "corpus"))
    calls = _counting(monkeypatch, "tokenize")
    report = run_experiment(DATA / "corpus", PipelineConfig(seed=7))
    assert len(calls) == report.n_train + report.n_test
    assert Counter(text for text, _ in calls) == texts
    calls.clear()
    assert main(["build", str(DATA / "corpus"), "-o",
                 str(tmp_path / "lattice.json")]) == 0
    assert Counter(text for text, _ in calls) == texts


def test_training_selects_features_once(tmp_path, monkeypatch):
    """One ``select_features`` call per training run, whose vocabulary is
    the oracle's: the benchmark's traced run checks that vocabulary."""
    config = PipelineConfig(features=12, seed=7)
    docs = load_corpus(DATA / "corpus")
    train, _ = split_corpus(docs, config.split, config.seed)
    stops = default_stopwords()
    calls = _counting(monkeypatch, "select_features")
    run_experiment(DATA / "corpus", config)
    assert [vocab for _, vocab in calls] == [
        reference_vocabulary(train, 12, stops)]
    calls.clear()
    assert main(["build", str(DATA / "corpus"), "-o",
                 str(tmp_path / "lattice.json"), "--features", "12"]) == 0
    assert [vocab for _, vocab in calls] == [
        reference_vocabulary(docs, 12, stops)]


def test_run_experiment_deterministic():
    config = PipelineConfig(baselines=("nb",), seed=3)
    a = run_experiment(DATA / "corpus", config)
    b = run_experiment(DATA / "corpus", config)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert a.to_text() == b.to_text()


def test_run_experiment_formats_no_label(monkeypatch):
    """Labels are display text: an experiment compiles, classifies and
    reports without rendering one."""
    def refuse(*args):
        raise AssertionError("a label was formatted")

    for helper in ("_compiled_labels", "_rule_labels", "_percent_text",
                   "_short_category_names"):
        monkeypatch.setattr(f"latticecell.compiler.{helper}", refuse)
    report = run_experiment(DATA / "corpus",
                            PipelineConfig(baselines=("nb", "knn"), seed=3))
    assert set(report.timings["rows"]) >= {"inner", "cosine"}


def test_the_rule_index_is_built_with_the_model(monkeypatch):
    """``compile_s`` includes the rule index and the engine template that
    every measure row reads, so the first row is not charged with them; a
    run without measures compiles no model."""
    models = []
    real_compile = latticecell.evaluate.compile_model
    real_classify = latticecell.evaluate.classify

    def compiled(*args):
        models.append(real_compile(*args))
        return models[-1]

    def checked(model, *args):
        assert {"rule_index", "engine_template"} <= set(vars(model))
        return real_classify(model, *args)
    monkeypatch.setattr(latticecell.evaluate, "compile_model", compiled)
    monkeypatch.setattr(latticecell.evaluate, "classify", checked)
    report = run_experiment(DATA / "corpus", PipelineConfig(seed=3))
    assert [row.name for row in report.rows] == list(MEASURES)
    report = run_experiment(DATA / "corpus",
                            PipelineConfig(measures=(), baselines=("nb",), seed=3))
    assert len(models) == 1
    assert report.timings["lattice_build_s"] == report.timings["compile_s"] == 0.0


@pytest.mark.parametrize("policy", ["topk:2", "threshold:0.5"])
def test_run_experiment_rows_match_reference_classify(policy):
    """Every measure row under a non-default policy scores what the
    reference classifier predicts on the same split and vectors."""
    config = PipelineConfig(activation=policy, seed=3)
    report = run_experiment(DATA / "corpus", config)
    train, test = split_corpus(load_corpus(DATA / "corpus"), config.split,
                               config.seed)
    stops = default_stopwords()
    vocab = reference_vocabulary(train, config.features, stops)
    train_vectors = [reference_vectorize(d, vocab, stops) for d in train]
    test_vectors = [reference_vectorize(d, vocab, stops) for d in test]
    categories = tuple(sorted({d.category for d in train}))
    model = compile_model(build_lattice(build_context(train_vectors, vocab)),
                          {d.id: d.category for d in train}, categories)
    assert [row.name for row in report.rows] == list(config.measures)
    for row in report.rows:
        cm = ConfusionMatrix.from_pairs(categories, (
            (v.category, reference_classify(model, v, row.name, policy).category)
            for v in test_vectors))
        assert row.metrics == metrics(cm)
        assert row.unclassified == sum(cm.unclassified)


def test_import_leaves_process_pool_unloaded():
    # nothing in the package starts a process pool
    src = str(Path(latticecell.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, latticecell; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # they cost more CPU to import than a CLI call spends on its work; the
    # check is on what the import adds, whatever ``site`` loaded before
    src = str(Path(latticecell.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import latticecell.cli; "
            "print(sorted({'dataclasses', 'inspect'} & "
            "(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _copy_corpus(root, layout):
    """``layout`` maps a subtree of ``root`` to {category: bundled file names}."""
    import shutil

    for part, categories in layout.items():
        for cat, names in categories.items():
            (root / part / cat).mkdir(parents=True)
            for name in names:
                shutil.copy(str(DATA / "corpus" / cat / name),
                            root / part / cat / name)
    return root


def _evaluate_fails(root, tmp_path, capsys, message):
    capsys.readouterr()
    assert main(["evaluate", str(root), "-o", str(tmp_path / "report")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_run_experiment_explicit_split(tmp_path):
    # train/ and test/ subtrees take precedence over the ratio split
    root = _copy_corpus(tmp_path / "corpus", {
        "train": {"sport": ["doc1.txt", "doc2.txt"],
                  "economie": ["doc5.txt", "doc6.txt"],
                  "television": ["doc3.txt", "doc4.txt"]},
        "test": {"sport": ["doc7.txt"], "economie": ["doc8.txt"],
                 "television": ["doc9.txt"]}})
    report = run_experiment(root, PipelineConfig(measures=("inner",)))
    assert report.n_train == 6 and report.n_test == 3


def test_one_document_per_category_leaves_the_test_split_empty(tmp_path,
                                                                capsys):
    root = _copy_corpus(tmp_path / "corpus", {".": {
        "economie": ["doc5.txt"], "sport": ["doc1.txt"],
        "television": ["doc3.txt"]}})
    with pytest.raises(CorpusError, match="^test split is empty$"):
        run_experiment(root, PipelineConfig(measures=("inner",)))
    _evaluate_fails(root, tmp_path, capsys, "test split is empty")


def test_a_test_category_missing_from_training_names_the_document(tmp_path,
                                                                  capsys):
    root = _copy_corpus(tmp_path / "corpus", {
        "train": {"economie": ["doc5.txt", "doc6.txt"],
                  "sport": ["doc1.txt", "doc2.txt"]},
        "test": {"economie": ["doc8.txt"], "television": ["doc9.txt"]}})
    message = ("test document 'doc9.txt' has category 'television' absent "
               "from training data")
    with pytest.raises(LabelingError) as err:
        run_experiment(root, PipelineConfig(measures=("inner",)))
    assert str(err.value) == message
    _evaluate_fails(root, tmp_path, capsys, message)


def test_report_text_layout():
    config = PipelineConfig(measures=("inner",), seed=1)
    report = run_experiment(DATA / "corpus", config)
    text = report.to_text()
    header = text.splitlines()[0].split()
    assert header == ["Configuration", "Precision", "Recall", "Accuracy",
                      "Error", "F-Measure"]
    assert "macro" in text


def test_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        PipelineConfig(measures=("euclid",))
    with pytest.raises(ValueError):
        PipelineConfig(features=0)
    with pytest.raises(ValueError):
        PipelineConfig(split=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(baselines=("svm",))
    # classification runs in one process; the field accepts only 1
    assert PipelineConfig(jobs=1) == PipelineConfig()
    for jobs in (0, 2):
        with pytest.raises(ValueError, match="runs in one process"):
            PipelineConfig(jobs=jobs)
    out = tmp_path / "report"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", str(DATA / "corpus"), "-o", str(out), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()
