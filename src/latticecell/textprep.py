"""Corpus ingestion and preprocessing.

Documents become binary term-presence vectors: tokenize, drop stopwords,
rank candidate terms by information gain against the category labels, keep
the top N, and set one bit per selected term that occurs in the document.
The resulting vectors stack into the formal context the lattice is built
from.

Training tokenizes each document once: its post-filter term set gives
both its vector over the candidate terms, which ``select_features``
scores, and its vector over the selected terms. A vector looks each
distinct term up in a map from folded term to vocabulary bits, built once
per vocabulary, so it never scans the vocabulary. ``select_features``
transposes the vectors into one document bitset per term and one per
category; a term's per-category document counts are then popcounts of
their intersections, taken one category at a time over every term at C
speed. The class entropy is computed once, and the information gain once
per distinct count vector, which many terms share.
"""

from __future__ import annotations

import math
import os
import re
import unicodedata
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from operator import neg, or_
from pathlib import Path

from .bits import transpose
from .context import FormalContext
from .errors import (CorpusError, DimensionError, EmptyInputError,
                     FormatError, LabelingError)

# letter runs of two or more: a run of one never starts a match, and a
# longer run matches whole from its first letter
_WORD_RE = re.compile(r"[^\W\d_]{2,}")

DEFAULT_FEATURE_COUNT = 500


@dataclass(frozen=True)
class Document:
    id: str
    category: str | None
    text: str


@dataclass(frozen=True)
class Vocabulary:
    """Selected terms, ordered by (score descending, term ascending).

    ``ig_scores`` is None for externally given vocabularies (for example a
    context file's column order), in which case the order is kept as-is.
    """

    terms: tuple[str, ...]
    ig_scores: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("vocabulary terms must be unique")
        if self.ig_scores is not None:
            if len(self.ig_scores) != len(self.terms):
                raise ValueError("one score per term required")
            ranking = sorted(zip(self.terms, self.ig_scores),
                             key=lambda ts: (-ts[1], ts[0]))
            if tuple(t for t, _ in ranking) != self.terms:
                raise ValueError("terms must be sorted by score desc, term asc")

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def token_masks(self) -> dict[str, int]:
        """Folded term -> mask of the vocabulary bits it sets."""
        return _token_masks(self.terms)


@dataclass(frozen=True)
class DocumentVector:
    """Binary presence vector over a vocabulary."""

    bits: int
    size: int
    category: str | None = None
    doc_id: str | None = None

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.size:
            raise DimensionError("vector bits exceed the vocabulary size")


def _fold(text: str) -> str:
    # NFC keeps an accent stored as a combining mark inside its letter
    return unicodedata.normalize("NFC", text).lower()


def tokenize(text: str) -> list[str]:
    """NFC and lowercase, then every run of two or more letters: the runs
    between non-letters, without the one-letter ones."""
    return _WORD_RE.findall(_fold(text))


def remove_stopwords(tokens: Sequence[str], stoplist: Iterable[str]) -> list[str]:
    stop = stoplist if isinstance(stoplist, (set, frozenset)) else set(stoplist)
    return [t for t in tokens if t not in stop]


def _stopword_lines(text: str) -> frozenset[str]:
    # folded, as ``tokenize`` folds every token
    return frozenset(w for w in (_fold(line.strip())
                                 for line in text.splitlines()) if w)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One term per line, UTF-8 with or without a byte-order mark; blank
    lines ignored. Text that is not UTF-8 raises ``FormatError`` naming
    the file."""
    try:
        return _stopword_lines(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def default_stopwords() -> frozenset[str]:
    """The small French stoplist bundled with the package."""
    from importlib.resources import files

    return _stopword_lines(
        (files("latticecell") / "data" / "stopwords_fr.txt").read_text("utf-8"))


def _doc_terms(doc: Document, stopwords: Iterable[str]) -> set[str]:
    return set(tokenize(doc.text)).difference(stopwords)


def candidate_terms(docs: Sequence[Document],
                    stopwords: Iterable[str] = ()) -> tuple[str, ...]:
    """All distinct post-filter tokens across the corpus, sorted."""
    stop = frozenset(stopwords)
    terms: set[str] = set()
    for doc in docs:
        terms |= _doc_terms(doc, stop)
    return tuple(sorted(terms))


def _token_masks(terms: Sequence[str]) -> dict[str, int]:
    # terms differing only in case (display-cased headers) share one key
    masks: dict[str, int] = {}
    for i, term in enumerate(terms):
        key = _fold(term)
        masks[key] = masks.get(key, 0) | 1 << i
    return masks


def vectorize(doc: Document, vocab: Vocabulary, *,
              stopwords: Iterable[str] = ()) -> DocumentVector:
    """Presence bit per vocabulary term (binary weighting).

    Vocabulary terms are matched after the same NFC and lowercasing as
    tokens, so display-cased context headers line up with the token
    stream. The token map is built once per ``Vocabulary``.
    """
    return _vector(doc, _doc_terms(doc, frozenset(stopwords)), vocab)


def _vector(doc: Document, terms: Iterable[str],
            vocab: Vocabulary) -> DocumentVector:
    bits = reduce(or_, map(vocab.token_masks.get, terms, repeat(0)), 0)
    return DocumentVector(bits, len(vocab), doc.category, doc.id)


def _entropy(counts: Sequence[int]) -> float:
    """Shannon entropy in bits; zero counts contribute nothing."""
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def category_masks(vectors: Sequence[DocumentVector]) -> dict[str | None, int]:
    """Bitset of vector positions per category, in first-seen order."""
    masks: dict[str | None, int] = {}
    for i, v in enumerate(vectors):
        masks[v.category] = masks.get(v.category, 0) | 1 << i
    return masks


def select_features(vectors: Sequence[DocumentVector], terms: Sequence[str],
                    n: int = DEFAULT_FEATURE_COUNT) -> Vocabulary:
    """Top ``n`` candidate terms by information gain (ties: lexicographic).

    IG(t) = H(C) - P(t) H(C | t present) - P(not t) H(C | t absent), where
    C is a document's category: the per-category counts come from
    popcounts over term columns, H(C) is computed once, and IG once per
    distinct tuple of per-category counts.
    """
    if n < 1:
        raise ValueError("feature count must be >= 1")
    terms = tuple(terms)
    if not terms:  # nothing is scored, so the vectors are not checked
        return Vocabulary((), ())
    if not vectors:
        raise EmptyInputError("information gain over an empty corpus is undefined")
    by_category = category_masks(vectors)
    unlabeled = by_category.get(None, 0)
    if unlabeled:
        first = (unlabeled & -unlabeled).bit_length() - 1
        raise LabelingError(f"document {vectors[first].doc_id!r} is unlabeled")
    masks = list(by_category.values())
    totals = [m.bit_count() for m in masks]
    n_docs = len(vectors)
    h_class = _entropy(totals)
    columns = transpose((v.bits for v in vectors), len(terms))
    # term -> its per-category document counts
    counts = list(zip(*[list(map(int.bit_count, map(m.__and__, columns)))
                        for m in masks]))
    gain = {}
    for present in set(counts):
        absent = [t - p for t, p in zip(totals, present)]
        n_present = sum(present)
        gain[present] = (h_class
                         - (n_present / n_docs) * _entropy(present)
                         - ((n_docs - n_present) / n_docs) * _entropy(absent))
    # (-score, term) pairs sort as (score descending, term ascending)
    kept = sorted(zip(map(neg, map(gain.__getitem__, counts)), terms))[:n]
    return Vocabulary(tuple(t for _, t in kept), tuple(-s for s, _ in kept))


def build_vocabulary(docs: Sequence[Document], n: int = DEFAULT_FEATURE_COUNT, *,
                     stopwords: Iterable[str] = ()) -> Vocabulary:
    """Candidate extraction + information-gain selection in one step."""
    return _train_vectors(docs, n, stopwords)[0]


def _train_vectors(docs: Sequence[Document], n: int, stopwords: Iterable[str]
                   ) -> tuple[Vocabulary, list[DocumentVector]]:
    """``build_vocabulary(docs, n, stopwords=stopwords)`` and each
    document's vector over it, tokenizing each document once."""
    stop = frozenset(stopwords)
    term_sets = [_doc_terms(d, stop) for d in docs]
    candidates = Vocabulary(tuple(sorted(set().union(*term_sets))))
    vocab = select_features([_vector(d, terms, candidates)
                             for d, terms in zip(docs, term_sets)],
                            candidates.terms, n)
    return vocab, [_vector(d, terms, vocab) for d, terms in zip(docs, term_sets)]


def build_context(vectors: Sequence[DocumentVector],
                  vocab: Vocabulary) -> FormalContext:
    """Stack document vectors into a formal context (docs x terms)."""
    ids = []
    rows = []
    for i, v in enumerate(vectors):
        if v.size != len(vocab):
            raise DimensionError(f"vector {i} has size {v.size}, "
                                 f"vocabulary has {len(vocab)} terms")
        if v.doc_id is None:
            raise DimensionError(f"vector {i} carries no document id")
        ids.append(v.doc_id)
        rows.append(v.bits)
    return FormalContext(tuple(ids), vocab.terms, tuple(rows))


def load_corpus(root: str | Path) -> list[Document]:
    """Labeled corpus: one subdirectory per category, one file per document.

    Document ids are file names; order is sorted categories then sorted
    file names, so loading is deterministic. ``CorpusError`` if the root
    has no category directory or they hold no file.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    docs: list[Document] = []
    seen: dict[str, Path] = {}
    categories = _entry_names(root, os.DirEntry.is_dir)
    if not categories:
        raise CorpusError(f"corpus root {root} has no category directories")
    for category in categories:
        sub = root / category
        for name in _entry_names(sub, os.DirEntry.is_file):
            path = sub / name
            if name in seen:
                raise CorpusError(f"duplicate document id {name!r}: "
                                  f"{seen[name]} and {path}")
            seen[name] = path
            docs.append(_read_document(path, category))
    if not docs:
        raise CorpusError(f"corpus root {root} has no documents")
    return docs


def _entry_names(directory: Path, keep) -> list[str]:
    """Sorted names of the entries of ``directory`` that ``keep`` accepts.

    ``DirEntry.is_dir`` and ``is_file`` follow symlinks, as ``Path``'s do,
    and on POSIX sorted names are the order of the sorted child paths.
    """
    with os.scandir(directory) as entries:
        return sorted([entry.name for entry in entries if keep(entry)])


def _read_document(path: Path, category: str | None = None) -> Document:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read document {path}: {exc}") from exc
    return Document(path.name, category, text)


def load_documents(path: str | Path) -> list[Document]:
    """Unlabeled input: a single file or a flat directory of files."""
    path = Path(path)
    if path.is_file():
        return [_read_document(path)]
    if path.is_dir():
        return [_read_document(path / name)
                for name in _entry_names(path, os.DirEntry.is_file)]
    raise CorpusError(f"no such file or directory: {path}")
