"""Metrics, reference baselines, and the end-to-end experiment runner.

The runner loads a labeled corpus, splits it, builds the vocabulary and
lattice from the training half only, compiles the cellular model, and
classifies the test half once per configured similarity measure plus once
per baseline. Every classifier consumes the same binary vectors, so the
comparison isolates the classification method. Precision and recall are
macro-averaged over categories; unclassifiable documents count as wrong
for accuracy and as misses for recall.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path

from .bits import iter_bits, transpose
from .classify import (MEASURES, _best_first, _exact_keys, _score_ratio,
                       classify, parse_activation)
from .compiler import compile_model
from .errors import (CorpusError, DimensionError, EmptyInputError,
                     LabelingError)
from .lattice import build_lattice
from .textprep import (DEFAULT_FEATURE_COUNT, Document, DocumentVector,
                       _train_vectors, build_context, category_masks,
                       default_stopwords, load_corpus, load_stopwords,
                       vectorize)

BASELINES = ("nb", "knn")


@dataclass
class ConfusionMatrix:
    """Counts indexed [true][predicted], plus per-true unclassified counts."""

    categories: tuple[str, ...]
    counts: list[list[int]]
    unclassified: list[int]

    @classmethod
    def empty(cls, categories: Sequence[str]) -> "ConfusionMatrix":
        n = len(categories)
        return cls(tuple(categories), [[0] * n for _ in range(n)], [0] * n)

    def record(self, true_category: str, predicted: str | None) -> None:
        t = self.categories.index(true_category)
        if predicted is None:
            self.unclassified[t] += 1
        else:
            self.counts[t][self.categories.index(predicted)] += 1

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts)) + sum(self.unclassified)


@dataclass(frozen=True)
class MetricsReport:
    """Macro-averaged metrics as exact rationals in [0, 1]."""

    precision: Fraction
    recall: Fraction
    accuracy: Fraction
    error: Fraction
    f_measure: Fraction

    def as_floats(self) -> dict[str, float]:
        return {name: float(getattr(self, name))
                for name in ("precision", "recall", "accuracy", "error",
                             "f_measure")}


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Macro precision/recall, accuracy = trace/total, F = 2PR/(P+R)."""
    total = cm.total
    if total == 0:
        raise EmptyInputError("metrics over an empty confusion matrix")
    n = len(cm.categories)
    precisions = []
    recalls = []
    for c in range(n):
        tp = cm.counts[c][c]
        col = sum(cm.counts[r][c] for r in range(n))
        row = sum(cm.counts[c]) + cm.unclassified[c]
        precisions.append(Fraction(tp, col) if col else Fraction(0))
        recalls.append(Fraction(tp, row) if row else Fraction(0))
    precision = sum(precisions) / n
    recall = sum(recalls) / n
    accuracy = Fraction(sum(cm.counts[c][c] for c in range(n)), total)
    f = (2 * precision * recall / (precision + recall)
         if precision + recall else Fraction(0))
    return MetricsReport(precision, recall, accuracy, 1 - accuracy, f)


def _categories_of(train: Sequence[DocumentVector],
                   categories: Sequence[str] | None = None) -> list[str]:
    """``categories``, or else the training categories in first-seen order.

    Every training vector must carry one of them: a baseline would
    otherwise count a vector whose category it cannot predict. Every one
    must also have the first one's size, which is the size a query is
    checked against.
    """
    cats = [] if categories is None else list(categories)
    known = set(cats)
    for v in train:
        if v.size != train[0].size:
            raise DimensionError(f"training vector {v.doc_id!r} has {v.size} "
                                 f"bits, the first has {train[0].size}")
        if v.category not in known:
            if v.category is None:
                raise LabelingError(f"training vector {v.doc_id!r} is unlabeled")
            if categories is not None:
                raise LabelingError(f"training vector {v.doc_id!r} has "
                                    f"unknown category {v.category!r}")
            cats.append(v.category)
            known.add(v.category)
    return cats


def _naive_bayes_table(train: Sequence[DocumentVector],
                       categories: Sequence[str] | None = None):
    """The vector size and, per category with training members, its log
    prior and per-attribute log p and log(1 - p), p add-one smoothed."""
    if not train:
        raise EmptyInputError("naive Bayes needs a nonempty training set")
    cats = _categories_of(train, categories)
    size = train[0].size
    n_total = len(train)
    by_category = category_masks(train)
    columns = transpose((v.bits for v in train), size)
    table = []
    for cat in cats:
        members = by_category.get(cat, 0)
        n_c = members.bit_count()
        if n_c == 0:
            continue
        log_p = []
        log_q = []
        for column in columns:
            df = (column & members).bit_count()
            p = (df + 1) / (n_c + 2)
            log_p.append(math.log(p))
            log_q.append(math.log(1.0 - p))
        table.append((cat, math.log(n_c / n_total), log_p, log_q))
    return size, table


def _naive_bayes_predict(nb_table, doc: DocumentVector) -> str:
    size, table = nb_table
    if doc.size != size:
        raise DimensionError("query vector size does not match training vectors")
    best_cat = None
    best_score = -math.inf
    for cat, score, log_p, log_q in table:
        for i in range(size):
            score += log_p[i] if (doc.bits >> i) & 1 else log_q[i]
        if score > best_score:
            best_score = score
            best_cat = cat
    return best_cat


def baseline_naive_bayes(train: Sequence[DocumentVector], doc: DocumentVector,
                         categories: Sequence[str] | None = None) -> str:
    """Bernoulli naive Bayes with add-one smoothing; ties by category order."""
    return _naive_bayes_predict(_naive_bayes_table(train, categories), doc)


def _knn_table(train: Sequence[DocumentVector],
               categories: Sequence[str] | None = None):
    """The categories, the vector size and each training vector's bits,
    popcount and category."""
    if not train:
        raise EmptyInputError("k-NN needs a nonempty training set")
    cats = _categories_of(train, categories)
    return cats, train[0].size, [(v.bits, v.bits.bit_count(), v.category)
                                 for v in train]


def _knn_predict(knn_table, doc: DocumentVector, k: int, measure: str) -> str:
    cats, size, rows = knn_table
    if doc.size != size:
        raise DimensionError("query vector size does not match training vectors")
    # every training vector of one (intersection, size) class has one key
    classes: dict[tuple[int, int], int] = {}
    for i, (bits, n2, _) in enumerate(rows):
        c = ((doc.bits & bits).bit_count(), n2)
        classes[c] = classes.get(c, 0) | 1 << i
    n1 = doc.bits.bit_count()
    keys = _exact_keys([_score_ratio(inter, n1, n2, measure)
                        for inter, n2 in classes])
    ranked = (i for members in _best_first(zip(keys, classes.values()))
              for i in iter_bits(members))
    votes: dict[str, int] = {}
    for i in islice(ranked, k):
        votes[rows[i][2]] = votes.get(rows[i][2], 0) + 1
    return max(cats, key=lambda c: (votes.get(c, 0), -cats.index(c)))


def baseline_knn(train: Sequence[DocumentVector], doc: DocumentVector,
                 k: int = 3, measure: str = "cosine",
                 categories: Sequence[str] | None = None) -> str:
    """Majority label of the k most similar training vectors.

    Training vectors that share an intersection and a size with the query
    share a score, so it is computed once per such class. Similarity ties
    keep training order; label ties fall back to category order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _knn_predict(_knn_table(train, categories), doc, k, measure)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything an experiment run needs, with the stock defaults."""

    measures: tuple[str, ...] = MEASURES
    activation: str = "max"
    features: int = DEFAULT_FEATURE_COUNT
    stopwords_path: Path | None = None
    split: float = 2 / 3
    seed: int = 0
    baselines: tuple[str, ...] = ()
    knn_k: int = 3
    knn_measure: str = "cosine"
    # only for perfbench/workloads.py, which passes jobs=1; goes when it stops
    jobs: int = 1

    def __post_init__(self):
        if self.features < 1:
            raise ValueError("feature count must be >= 1")
        for kind, names, known in (("similarity measure", self.measures, MEASURES),
                                   ("baseline", self.baselines, BASELINES)):
            for i, name in enumerate(names):
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}")
                if name in names[:i]:
                    raise ValueError(f"repeated {kind} {name!r}")
        if not self.measures and not self.baselines:
            raise ValueError("no similarity measure or baseline to evaluate")
        if not 0 < self.split < 1:
            raise ValueError("split ratio must be in (0, 1)")
        if self.jobs != 1:
            raise ValueError("jobs must be 1: classification runs in one process")
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if self.knn_measure not in MEASURES:
            raise ValueError(f"unknown k-NN similarity measure "
                             f"{self.knn_measure!r}")
        parse_activation(self.activation)


@dataclass
class ReportRow:
    name: str
    metrics: MetricsReport
    unclassified: int


@dataclass
class ExperimentReport:
    categories: tuple[str, ...]
    n_train: int
    n_test: int
    config: PipelineConfig
    rows: list[ReportRow] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Deterministic report payload; timings are deliberately excluded."""
        return {
            "averaging": "macro",
            "categories": list(self.categories),
            "documents": {"train": self.n_train, "test": self.n_test},
            "config": {
                "measures": list(self.config.measures),
                "activation": self.config.activation,
                "features": self.config.features,
                "split": self.config.split,
                "seed": self.config.seed,
                "baselines": list(self.config.baselines),
                "knn_k": self.config.knn_k,
                "knn_measure": self.config.knn_measure,
            },
            "rows": [
                {
                    "name": row.name,
                    **{k: round(v, 12) for k, v in row.metrics.as_floats().items()},
                    "exact": {
                        name: [getattr(row.metrics, name).numerator,
                               getattr(row.metrics, name).denominator]
                        for name in ("precision", "recall", "accuracy",
                                     "error", "f_measure")
                    },
                    "unclassified": row.unclassified,
                }
                for row in self.rows
            ],
        }

    def to_text(self) -> str:
        """Aligned table: Precision Recall Accuracy Error F-Measure."""
        header = ["Configuration", "Precision", "Recall", "Accuracy", "Error",
                  "F-Measure"]
        body = []
        for row in self.rows:
            vals = row.metrics.as_floats()
            body.append([row.name] + [f"{vals[k]:.4f}" for k in
                                      ("precision", "recall", "accuracy",
                                       "error", "f_measure")])
        width0 = max(len(header[0]), *(len(r[0]) for r in body)) if body else len(header[0])
        widths = [width0] + [max(len(h), 6) for h in header[1:]]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
                 "  ".join("-" * w for w in widths)]
        for r in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        lines.append("")
        lines.append("averaging: macro; unclassified documents count as errors")
        return "\n".join(lines) + "\n"


def split_corpus(docs: Sequence[Document], ratio: float,
                 seed: int) -> tuple[list[Document], list[Document]]:
    """Seeded per-category (stratified) shuffle split; train share = ratio."""
    rnd = random.Random(seed)
    by_cat: dict[str, list[Document]] = {}
    for doc in docs:
        by_cat.setdefault(doc.category, []).append(doc)
    train: list[Document] = []
    test: list[Document] = []
    for cat in sorted(by_cat):
        members = list(by_cat[cat])
        rnd.shuffle(members)
        n = len(members)
        n_train = min(max(int(n * ratio + 0.5), 1), n - 1) if n > 1 else 1
        train.extend(members[:n_train])
        test.extend(members[n_train:])
    train.sort(key=lambda d: (d.category, d.id))
    test.sort(key=lambda d: (d.category, d.id))
    return train, test


def _load_split(corpus_root: Path, config: PipelineConfig):
    train_dir = corpus_root / "train"
    test_dir = corpus_root / "test"
    if train_dir.is_dir() and test_dir.is_dir():
        return load_corpus(train_dir), load_corpus(test_dir)
    docs = load_corpus(corpus_root)
    return split_corpus(docs, config.split, config.seed)


def run_experiment(corpus_root: str | Path,
                   config: PipelineConfig = PipelineConfig()) -> ExperimentReport:
    """Train, compile, classify, and score; returns the full report.

    Wall-clock timings for the lattice build, the compilation, and each
    configuration's classification pass land in ``report.timings``.
    """
    corpus_root = Path(corpus_root)
    train_docs, test_docs = _load_split(corpus_root, config)
    if not train_docs:
        raise CorpusError("training split is empty")
    if not test_docs:
        raise CorpusError("test split is empty")
    stopwords = (load_stopwords(config.stopwords_path)
                 if config.stopwords_path else default_stopwords())

    t0 = time.perf_counter()
    vocab, train_vectors = _train_vectors(train_docs, config.features,
                                          stopwords)
    vocabulary_s = time.perf_counter() - t0

    test_vectors = [vectorize(d, vocab, stopwords=stopwords) for d in test_docs]
    categories = tuple(sorted({d.category for d in train_docs}))
    for d in test_docs:
        if d.category not in categories:
            raise LabelingError(f"test document {d.id!r} has category "
                                f"{d.category!r} absent from training data")

    ctx = build_context(train_vectors, vocab)
    t0 = time.perf_counter()
    lattice = build_lattice(ctx)
    lattice_build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = compile_model(lattice, {d.id: d.category for d in train_docs},
                          categories)
    compile_s = time.perf_counter() - t0

    report = ExperimentReport(categories, len(train_docs), len(test_docs), config)
    report.timings = {
        "vocabulary_s": vocabulary_s,
        "lattice_build_s": lattice_build_s,
        "compile_s": compile_s,
        "rows": {},
    }

    # one row per measure, then per baseline; each row's time includes
    # building its baseline's table
    for row in (*config.measures, *config.baselines):
        t0 = time.perf_counter()
        name = row
        if row == "nb":
            name = "naive-bayes"
            table = _naive_bayes_table(train_vectors, categories)
            predicted = [_naive_bayes_predict(table, v) for v in test_vectors]
        elif row == "knn":
            table = _knn_table(train_vectors, categories)
            predicted = [_knn_predict(table, v, config.knn_k, config.knn_measure)
                         for v in test_vectors]
        else:
            predicted = [classify(model, v, row, config.activation).category
                         for v in test_vectors]
        elapsed = time.perf_counter() - t0
        cm = ConfusionMatrix.empty(categories)
        for v, category in zip(test_vectors, predicted):
            cm.record(v.category, category)
        report.rows.append(ReportRow(name, metrics(cm), sum(cm.unclassified)))
        report.timings["rows"][name] = {
            "classify_total_s": elapsed,
            "per_document_s": elapsed / len(test_vectors),
        }
    return report
