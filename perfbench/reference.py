"""Reference computations for the benchmark's output checks.

Nothing here imports the package. Each step is recomputed from the
generated files with the plainest method that is fast enough: concepts as
the intersection closure of the object rows, upper covers as the minimal
closures of ``extent + {o}``, predictions by reading the concepts
directly, and the two baselines written out again. Masks are int bitsets:
bit i of an extent is object i, bit j of an intent is attribute j.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

MEASURES = ("jaccard", "cosine", "dice", "inner")

# The generated documents are ASCII; on ASCII text the package's tokenizer
# (runs of letters, lowercased, at least two characters) is this pattern.
_TOKEN = re.compile(r"[a-z]+")


def read_stopwords(path: Path) -> frozenset[str]:
    return frozenset(w.strip() for w in path.read_text("utf-8").splitlines()
                     if w.strip())


def terms_of(text: str, stopwords: frozenset[str]) -> frozenset[str]:
    return frozenset(t for t in _TOKEN.findall(text.lower())
                     if len(t) >= 2 and t not in stopwords)


def read_labeled(root: Path) -> list[tuple[str, str, str]]:
    """(id, category, text) in sorted category then sorted file order."""
    docs = []
    for cat_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for path in sorted(p for p in cat_dir.iterdir() if p.is_file()):
            docs.append((path.name, cat_dir.name, path.read_text("utf-8")))
    return docs


def read_unlabeled(root: Path) -> list[tuple[str, str]]:
    return [(p.name, p.read_text("utf-8"))
            for p in sorted(q for q in root.iterdir() if q.is_file())]


def stratified_split(docs, ratio: float, seed: int):
    """Seeded per-category shuffle split, as the experiment runner documents."""
    rnd = random.Random(seed)
    by_cat: dict[str, list] = {}
    for doc in docs:
        by_cat.setdefault(doc[1], []).append(doc)
    train, test = [], []
    for cat in sorted(by_cat):
        members = list(by_cat[cat])
        rnd.shuffle(members)
        n = len(members)
        n_train = min(max(int(n * ratio + 0.5), 1), n - 1) if n > 1 else 1
        train.extend(members[:n_train])
        test.extend(members[n_train:])
    train.sort(key=lambda d: (d[1], d[0]))
    test.sort(key=lambda d: (d[1], d[0]))
    return train, test


def _entropy(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def information_gains(term_sets, labels) -> dict[str, float]:
    """IG of every term from recounted per-category document frequencies.

    IG(t) = H(C) - P(t) H(C | t) - P(not t) H(C | not t), categories in
    sorted order (the order the runner's sorted documents present them).
    """
    categories = sorted(set(labels))
    order = {c: i for i, c in enumerate(categories)}
    sizes = [0] * len(categories)
    for label in labels:
        sizes[order[label]] += 1
    df: dict[str, list[int]] = {}
    for terms, label in zip(term_sets, labels):
        k = order[label]
        for t in terms:
            df.setdefault(t, [0] * len(categories))[k] += 1
    n = len(labels)
    h_total = _entropy(sizes)
    gains = {}
    for t, present in df.items():
        absent = [s - p for s, p in zip(sizes, present)]
        n_present = sum(present)
        gains[t] = (h_total - (n_present / n) * _entropy(present)
                    - ((n - n_present) / n) * _entropy(absent))
    return gains


def select_top(gains: dict[str, float], n: int) -> list[str]:
    """Top ``n`` terms by gain; ties broken lexicographically."""
    return sorted(gains, key=lambda t: (-gains[t], t))[:n]


def row(terms: frozenset[str], vocab) -> int:
    mask = 0
    for j, t in enumerate(vocab):
        if t in terms:
            mask |= 1 << j
    return mask


def concepts(rows, n_attributes: int) -> list[tuple[int, int]]:
    """All (extent, intent) pairs, in canonical order.

    Intents are the intersections of every nonempty family of object rows,
    plus the full attribute set. Canonical order: extent size ascending,
    then the extent's sorted object indices.
    """
    full = (1 << n_attributes) - 1
    intents = {full}
    for r in rows:
        intents |= {i & r for i in intents}
    columns = columns_of(rows, n_attributes)
    out = [(extent_of(columns, i, len(rows)), i) for i in intents]
    out.sort(key=lambda c: (c[0].bit_count(), bit_list(c[0])))
    return out


def columns_of(rows, n_attributes: int) -> list[int]:
    cols = [0] * n_attributes
    for o, r in enumerate(rows):
        for j in bit_list(r):
            cols[j] |= 1 << o
    return cols


def extent_of(columns, intent: int, n_objects: int) -> int:
    extent = (1 << n_objects) - 1
    for j in bit_list(intent):
        extent &= columns[j]
    return extent


def bit_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def upper_cover_extents(extent: int, intent: int, rows, columns) -> set[int]:
    """Extents of the upper covers: minimal closures of extent + {o}."""
    closures = {extent_of(columns, intent & r, len(rows))
                for o, r in enumerate(rows) if not (extent >> o) & 1}
    return {e for e in closures
            if not any(f != e and f & ~e == 0 for f in closures)}


def distribution(extent: int, labels, categories) -> tuple[Fraction, ...]:
    counts = Counter(labels[o] for o in bit_list(extent))
    total = extent.bit_count()
    return tuple(Fraction(counts[c], total) for c in categories)


def rules(lattice_concepts, labels, categories):
    """(intent, distribution) per concept with nonempty intent and extent."""
    return [(i, distribution(e, labels, categories))
            for e, i in lattice_concepts if e and i]


def _key(inter: int, n1: int, n2: int, measure: str) -> tuple[int, int]:
    """Exact similarity as a (numerator, denominator) pair."""
    if measure == "inner":
        return inter, 1
    if measure == "jaccard":
        den = n1 + n2 - inter
    elif measure == "dice":
        den = n1 + n2
        inter = 2 * inter
    else:  # cosine, compared squared
        den = n1 * n2
        inter = inter * inter
    return (inter, den) if den else (0, 1)


def predict(rule_list, doc: int, measure: str, categories):
    """Most similar intents (exact), their mean distribution, its argmax.

    Returns (category or None, distribution or None, activated rule
    indices). Ties of the argmax go to the earlier category.
    """
    n1 = doc.bit_count()
    best = None
    chosen: list[int] = []
    for k, (intent, _) in enumerate(rule_list):
        inter = (doc & intent).bit_count()
        if not inter:
            continue
        num, den = _key(inter, n1, intent.bit_count(), measure)
        if best is None or num * best[1] > best[0] * den:
            best = (num, den)
            chosen = [k]
        elif num * best[1] == best[0] * den:
            chosen.append(k)
    if not chosen:
        return None, None, []
    width = len(categories)
    mean = tuple(sum(rule_list[k][1][i] for k in chosen) / len(chosen)
                 for i in range(width))
    top = max(range(width), key=lambda i: (mean[i], -i))
    return categories[top], mean, chosen


def naive_bayes(train_rows, train_labels, docs, size: int, categories) -> list[str]:
    """Bernoulli naive Bayes, add-one smoothing, ties to the earlier category."""
    n_total = len(train_rows)
    tables = []
    for cat in categories:
        members = [r for r, lab in zip(train_rows, train_labels) if lab == cat]
        if members:
            df = [sum(1 for r in members if (r >> i) & 1) for i in range(size)]
            tables.append((cat, len(members), df))
    out = []
    for doc in docs:
        best_cat, best_score = None, -math.inf
        for cat, n_c, df in tables:
            score = math.log(n_c / n_total)
            for i in range(size):
                p = (df[i] + 1) / (n_c + 2)
                score += math.log(p if (doc >> i) & 1 else 1.0 - p)
            if score > best_score:
                best_cat, best_score = cat, score
        out.append(best_cat)
    return out


def knn(train_rows, train_labels, docs, categories, k: int = 3) -> list[str]:
    """Majority of the k nearest by exact cosine; earlier rows and
    earlier categories win ties."""
    out = []
    for doc in docs:
        n1 = doc.bit_count()
        keys = []
        for i, r in enumerate(train_rows):
            num, den = _key((doc & r).bit_count(), n1, r.bit_count(), "cosine")
            keys.append((-Fraction(num, den), i))
        keys.sort()
        votes = Counter(train_labels[i] for _, i in keys[:k])
        out.append(max(categories,
                       key=lambda c: (votes[c], -categories.index(c))))
    return out


def macro_metrics(truth, predicted, categories) -> dict[str, Fraction]:
    """Macro precision and recall; unclassified (None) counts as wrong."""
    n = len(categories)
    precisions, recalls = [], []
    for c in categories:
        tp = sum(1 for t, p in zip(truth, predicted) if t == c and p == c)
        col = sum(1 for p in predicted if p == c)
        row_total = sum(1 for t in truth if t == c)
        precisions.append(Fraction(tp, col) if col else Fraction(0))
        recalls.append(Fraction(tp, row_total) if row_total else Fraction(0))
    precision = sum(precisions, Fraction(0)) / n
    recall = sum(recalls, Fraction(0)) / n
    accuracy = Fraction(sum(1 for t, p in zip(truth, predicted) if t == p),
                        len(truth))
    f = (2 * precision * recall / (precision + recall)
         if precision + recall else Fraction(0))
    return {"precision": precision, "recall": recall, "accuracy": accuracy,
            "error": 1 - accuracy, "f_measure": f}
