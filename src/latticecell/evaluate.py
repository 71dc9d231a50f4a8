"""Metrics and the end-to-end experiment runner.

The runner loads a labeled corpus, splits it, builds the vocabulary and
lattice from the training half only, compiles the cellular model, and
classifies the test half once per configured similarity measure plus once
per baseline: Bernoulli naive Bayes, and k-NN at ``KNN_K`` by
``KNN_MEASURE``. Each baseline is trained once per run, on the training
context's columns. Every classifier consumes the same binary vectors, so
the comparison isolates the classification method. Precision and recall are
macro-averaged over categories; unclassifiable documents count as wrong
for accuracy and as misses for recall.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import islice
from pathlib import Path

from .bits import iter_bits
from .classify import (MEASURES, _classes, _ranked, classify,
                       parse_activation)
from .compiler import RuleIndex, compile_model, index_masks
from .errors import CorpusError, EmptyInputError, LabelingError
from .lattice import build_lattice
from .textprep import (DEFAULT_FEATURE_COUNT, Document, DocumentVector,
                       build_context, category_masks, default_stopwords,
                       load_corpus, load_stopwords, train_vectors, vectorize)
from .value import Value

BASELINES = ("nb", "knn")
# the k-NN baseline's settings, which ``run_experiment`` runs and reports
KNN_K = 3
KNN_MEASURE = "cosine"


class ConfusionMatrix(Value):
    """Counts indexed [true][predicted], plus per-true unclassified counts."""

    _fields = ("categories", "counts", "unclassified")

    def __init__(self, categories: tuple[str, ...],
                 counts: tuple[tuple[int, ...], ...],
                 unclassified: tuple[int, ...]) -> None:
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "unclassified", unclassified)

    @classmethod
    def from_pairs(cls, categories: tuple[str, ...],
                   pairs: Iterable[tuple[str, str | None]]) -> "ConfusionMatrix":
        """Counts of (true, predicted) pairs; None predicts no category."""
        n = len(categories)
        counts = [[0] * n for _ in range(n)]
        unclassified = [0] * n
        for true_category, predicted in pairs:
            t = categories.index(true_category)
            if predicted is None:
                unclassified[t] += 1
            else:
                counts[t][categories.index(predicted)] += 1
        return cls(categories, tuple(map(tuple, counts)), tuple(unclassified))

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts)) + sum(self.unclassified)


class MetricsReport(Value):
    """Macro-averaged metrics as exact rationals (``Fraction``s) in
    [0, 1]."""

    _fields = ("precision", "recall", "accuracy", "error", "f_measure")

    def __init__(self, precision, recall, accuracy, error,
                 f_measure) -> None:
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "recall", recall)
        object.__setattr__(self, "accuracy", accuracy)
        object.__setattr__(self, "error", error)
        object.__setattr__(self, "f_measure", f_measure)

    def as_floats(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in self._fields}


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Macro precision/recall, accuracy = trace/total, F = 2PR/(P+R)."""
    from fractions import Fraction

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


def _naive_bayes_table(train: Sequence[DocumentVector],
                       categories: Sequence[str], columns: Sequence[int]):
    """The vector size and, per category, its log prior and per-attribute
    log p and log(1 - p), p add-one smoothed. Bit r of ``columns[j]`` is
    bit j of ``train[r]``, as the training context holds them."""
    n_total = len(train)
    by_category = category_masks(train)
    table = []
    for cat in categories:
        members = by_category[cat]
        n_c = members.bit_count()
        log_p = []
        log_q = []
        for column in columns:
            df = (column & members).bit_count()
            p = (df + 1) / (n_c + 2)
            log_p.append(math.log(p))
            log_q.append(math.log(1.0 - p))
        table.append((cat, math.log(n_c / n_total), log_p, log_q))
    return len(columns), table


def _naive_bayes_predict(nb_table, doc: DocumentVector) -> str:
    """Bernoulli naive Bayes: the category of the highest log posterior,
    ties by category order."""
    size, table = nb_table
    best_cat = None
    best_score = -math.inf
    for cat, score, log_p, log_q in table:
        for i in range(size):
            score += log_p[i] if (doc.bits >> i) & 1 else log_q[i]
        if score > best_score:
            best_score = score
            best_cat = cat
    return best_cat


def _knn_predict(index: RuleIndex, labels: Sequence[str],
                 categories: Sequence[str], doc: DocumentVector) -> str:
    """The majority label of the ``KNN_K`` training vectors most similar
    to ``doc`` by ``KNN_MEASURE``. ``index`` is ``index_masks`` over the
    training vectors, and ``labels`` are their categories.

    Training vectors that share an intersection with the query and a size
    share a score, so it is computed once per such class, by the kernel
    activation uses. Similarity ties keep training order; label ties fall
    back to category order.
    """
    groups = _ranked(_classes(index, doc.bits), doc.bits.bit_count(),
                     KNN_MEASURE)
    # the vectors sharing no term with the query score 0, so they come last
    untouched = (1 << len(labels)) - 1
    for members in groups:
        untouched ^= members
    ranked = (i for members in (*groups, untouched) for i in iter_bits(members))
    votes = Counter(labels[i] for i in islice(ranked, KNN_K))
    # max keeps the first of equal counts
    return max(categories, key=votes.__getitem__)


class PipelineConfig(Value):
    """Everything an experiment run needs, with the stock defaults."""

    _fields = ("measures", "activation", "features", "stopwords_path", "split",
               "seed", "baselines", "jobs")

    def __init__(self, measures: tuple[str, ...] = MEASURES,
                 activation: str = "max",
                 features: int = DEFAULT_FEATURE_COUNT,
                 stopwords_path: Path | None = None, split: float = 2 / 3,
                 seed: int = 0, baselines: tuple[str, ...] = (),
                 # only for perfbench/workloads.py, which passes jobs=1;
                 # goes when it stops
                 jobs: int = 1) -> None:
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "activation", activation)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "stopwords_path", stopwords_path)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "baselines", baselines)
        object.__setattr__(self, "jobs", jobs)
        if features < 1:
            raise ValueError("feature count must be >= 1")
        for kind, names, known in (("similarity measure", measures, MEASURES),
                                   ("baseline", baselines, BASELINES)):
            for i, name in enumerate(names):
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}")
                if name in names[:i]:
                    raise ValueError(f"repeated {kind} {name!r}")
        if not measures and not baselines:
            raise ValueError("no similarity measure or baseline to evaluate")
        if not 0 < split < 1:
            raise ValueError("split ratio must be in (0, 1)")
        if jobs != 1:
            raise ValueError("jobs must be 1: classification runs in one process")
        parse_activation(activation)


class ReportRow(Value):
    _fields = ("name", "metrics", "unclassified")

    def __init__(self, name: str, metrics: MetricsReport,
                 unclassified: int) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "unclassified", unclassified)


class ExperimentReport(Value):
    """One experiment's rows, one per measure and then per baseline, and
    its wall-clock ``timings``. A dict is unhashable, so a report is too."""

    _fields = ("categories", "n_train", "n_test", "config", "rows", "timings")

    def __init__(self, categories: tuple[str, ...], n_train: int, n_test: int,
                 config: PipelineConfig, rows: tuple[ReportRow, ...],
                 timings: dict) -> None:
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "n_train", n_train)
        object.__setattr__(self, "n_test", n_test)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "timings", timings)

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
                "knn_k": KNN_K,
                "knn_measure": KNN_MEASURE,
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
    import random

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

    Wall-clock timings for the lattice build, the compilation (with the
    model's rule index and fact-to-rules map that classification reads;
    no engine is built), and each configuration's classification pass
    land in ``report.timings``. A run with no similarity measure builds no
    lattice or model, and times both as 0.0.
    """
    corpus_root = Path(corpus_root)
    train_docs, test_docs = _load_split(corpus_root, config)
    if not test_docs:
        raise CorpusError("test split is empty")
    stopwords = (load_stopwords(config.stopwords_path)
                 if config.stopwords_path else default_stopwords())

    t0 = time.perf_counter()
    vocab, training = train_vectors(train_docs, config.features,
                                    stopwords=stopwords)
    vocabulary_s = time.perf_counter() - t0

    test_vectors = [vectorize(d, vocab, stopwords=stopwords) for d in test_docs]
    categories = tuple(sorted({d.category for d in train_docs}))
    for d in test_docs:
        if d.category not in categories:
            raise LabelingError(f"test document {d.id!r} has category "
                                f"{d.category!r} absent from training data")

    # its columns are the one transpose of the training vectors, which
    # the baselines' tables read too
    ctx = build_context(training, vocab)
    lattice_build_s = compile_s = 0.0
    if config.measures:
        t0 = time.perf_counter()
        lattice = build_lattice(ctx)
        lattice_build_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        model = compile_model(lattice, {d.id: d.category for d in train_docs},
                              categories)
        # the index and the fact-to-rules map every measure row reads are
        # charged to the model, not to whichever row runs first
        model.rule_index, model.premise_rules
        compile_s = time.perf_counter() - t0

    timings = {
        "vocabulary_s": vocabulary_s,
        "lattice_build_s": lattice_build_s,
        "compile_s": compile_s,
        "rows": {},
    }
    rows: list[ReportRow] = []
    truth = [v.category for v in test_vectors]
    # one row per measure, then per baseline; a baseline row's time
    # includes training it
    for row in (*config.measures, *config.baselines):
        t0 = time.perf_counter()
        name = row
        if row == "nb":
            name = "naive-bayes"
            table = _naive_bayes_table(training, categories, ctx.columns)
            predicted = [_naive_bayes_predict(table, v) for v in test_vectors]
        elif row == "knn":
            index = index_masks([v.bits for v in training], ctx.columns)
            labels = [v.category for v in training]
            predicted = [_knn_predict(index, labels, categories, v)
                         for v in test_vectors]
        else:
            predicted = [classify(model, v, row, config.activation).category
                         for v in test_vectors]
        elapsed = time.perf_counter() - t0
        cm = ConfusionMatrix.from_pairs(categories, zip(truth, predicted))
        rows.append(ReportRow(name, metrics(cm), sum(cm.unclassified)))
        timings["rows"][name] = {
            "classify_total_s": elapsed,
            "per_document_s": elapsed / len(test_vectors),
        }
    return ExperimentReport(categories, len(train_docs), len(test_docs),
                            config, tuple(rows), timings)
