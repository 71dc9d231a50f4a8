"""Corpus ingestion and preprocessing.

Documents become binary term-presence vectors: tokenize, drop stopwords,
rank candidate terms by information gain against the category labels, keep
the top N, and set one bit per selected term that occurs in the document.
The resulting vectors stack into the formal context the lattice is built
from.

Both steps are linear in the corpus. ``vectorize`` looks each distinct
token of a document up in a map from lowercased term to vocabulary bits,
built once per vocabulary, so it never scans the vocabulary.
``select_features`` transposes the vectors into one document bitset per
term and one per category; a term's per-category document counts are then
popcounts of their intersections, and the class entropy is computed once.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .bits import bits_to_list, transpose
from .context import FormalContext
from .errors import (CorpusError, DimensionError, EmptyInputError,
                     FormatError, LabelingError)

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

Stemmer = Callable[[str], str]

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
        """Lowercased term -> mask of the vocabulary bits it sets."""
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

    def tolist(self) -> list[int]:
        return bits_to_list(self.bits, self.size)


def tokenize(text: str, stemmer: Stemmer | None = None) -> list[str]:
    """Lowercase, split on non-letters, drop tokens shorter than 2 chars."""
    tokens = [t for t in _WORD_RE.findall(text.lower()) if len(t) >= 2]
    if stemmer is not None:
        tokens = [stemmer(t) for t in tokens]
    return tokens


def remove_stopwords(tokens: Sequence[str], stoplist: Iterable[str]) -> list[str]:
    stop = stoplist if isinstance(stoplist, (set, frozenset)) else set(stoplist)
    return [t for t in tokens if t not in stop]


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One term per line, UTF-8; blank lines ignored. Text that is not
    UTF-8 raises ``FormatError`` naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    words = set()
    for line in text.splitlines():
        word = line.strip()
        if word:
            words.add(word)
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The small French stoplist bundled with the package."""
    from importlib.resources import files

    text = (files("latticecell") / "data" / "stopwords_fr.txt").read_text("utf-8")
    return frozenset(w for w in (line.strip() for line in text.splitlines()) if w)


def _doc_terms(doc: Document, stopwords: Iterable[str],
               stemmer: Stemmer | None) -> set[str]:
    return set(remove_stopwords(tokenize(doc.text, stemmer), stopwords))


def candidate_terms(docs: Sequence[Document], stopwords: Iterable[str] = (),
                    stemmer: Stemmer | None = None) -> tuple[str, ...]:
    """All distinct post-filter tokens across the corpus, sorted."""
    stop = frozenset(stopwords)
    terms: set[str] = set()
    for doc in docs:
        terms |= _doc_terms(doc, stop, stemmer)
    return tuple(sorted(terms))


def _token_masks(terms: Sequence[str]) -> dict[str, int]:
    # terms differing only in case (display-cased headers) share one key
    masks: dict[str, int] = {}
    for i, term in enumerate(terms):
        key = term.lower()
        masks[key] = masks.get(key, 0) | 1 << i
    return masks


def vectorize(doc: Document, vocab: Vocabulary | Sequence[str], *,
              stopwords: Iterable[str] = (),
              stemmer: Stemmer | None = None) -> DocumentVector:
    """Presence bit per vocabulary term (binary weighting).

    Vocabulary terms are matched case-insensitively so display-cased
    context headers line up with the lowercase token stream. A
    ``Vocabulary`` caches its token map; a plain sequence builds it on
    each call.
    """
    if isinstance(vocab, Vocabulary):
        size, masks = len(vocab.terms), vocab.token_masks
    else:
        terms = tuple(vocab)
        size, masks = len(terms), _token_masks(terms)
    bits = 0
    for token in _doc_terms(doc, frozenset(stopwords), stemmer):
        bits |= masks.get(token, 0)
    return DocumentVector(bits, size, doc.category, doc.id)


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


def information_gain(term: str, vectors: Sequence[DocumentVector],
                     terms: Sequence[str]) -> float:
    """Entropy reduction of the category given the term's presence bit.

    IG(t) = H(C) - P(t) H(C | t present) - P(not t) H(C | t absent).
    """
    if not vectors:
        raise EmptyInputError("information gain over an empty corpus is undefined")
    try:
        idx = list(terms).index(term)
    except ValueError:
        raise KeyError(f"term {term!r} is not a candidate") from None
    categories: list[str] = []
    for v in vectors:
        if v.category is None:
            raise LabelingError(f"document {v.doc_id!r} is unlabeled")
        if v.category not in categories:
            categories.append(v.category)
    order = {c: i for i, c in enumerate(categories)}
    present = [0] * len(categories)
    absent = [0] * len(categories)
    for v in vectors:
        if (v.bits >> idx) & 1:
            present[order[v.category]] += 1
        else:
            absent[order[v.category]] += 1
    n = len(vectors)
    n_present = sum(present)
    total = [p + a for p, a in zip(present, absent)]
    return (_entropy(total)
            - (n_present / n) * _entropy(present)
            - ((n - n_present) / n) * _entropy(absent))


def category_masks(vectors: Sequence[DocumentVector]) -> dict[str | None, int]:
    """Bitset of vector positions per category, in first-seen order."""
    masks: dict[str | None, int] = {}
    for i, v in enumerate(vectors):
        masks[v.category] = masks.get(v.category, 0) | 1 << i
    return masks


def select_features(vectors: Sequence[DocumentVector], terms: Sequence[str],
                    n: int = DEFAULT_FEATURE_COUNT) -> Vocabulary:
    """Top ``n`` candidate terms by information gain (ties: lexicographic).

    Each score equals ``information_gain(term, vectors, terms)``: the
    per-category counts come from popcounts over term columns, and the
    entropies are summed in the same order.
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
    scored = []
    for term, column in zip(terms, transpose((v.bits for v in vectors),
                                             len(terms))):
        present = [(column & m).bit_count() for m in masks]
        absent = [t - p for t, p in zip(totals, present)]
        n_present = sum(present)
        scored.append((term, h_class
                       - (n_present / n_docs) * _entropy(present)
                       - ((n_docs - n_present) / n_docs) * _entropy(absent)))
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    kept = scored[:min(n, len(scored))]
    return Vocabulary(tuple(t for t, _ in kept), tuple(s for _, s in kept))


def build_vocabulary(docs: Sequence[Document], n: int = DEFAULT_FEATURE_COUNT, *,
                     stopwords: Iterable[str] = (),
                     stemmer: Stemmer | None = None) -> Vocabulary:
    """Candidate extraction + information-gain selection in one step."""
    stop = frozenset(stopwords)
    candidates = Vocabulary(candidate_terms(docs, stop, stemmer))
    vectors = [vectorize(d, candidates, stopwords=stop, stemmer=stemmer)
               for d in docs]
    return select_features(vectors, candidates.terms, n)


def build_context(vectors: Sequence[DocumentVector],
                  vocab: Vocabulary | Sequence[str]) -> FormalContext:
    """Stack document vectors into a formal context (docs x terms)."""
    terms = vocab.terms if isinstance(vocab, Vocabulary) else tuple(vocab)
    ids = []
    rows = []
    for i, v in enumerate(vectors):
        if v.size != len(terms):
            raise DimensionError(f"vector {i} has size {v.size}, "
                                 f"vocabulary has {len(terms)} terms")
        if v.doc_id is None:
            raise DimensionError(f"vector {i} carries no document id")
        ids.append(v.doc_id)
        rows.append(v.bits)
    return FormalContext(tuple(ids), terms, tuple(rows))


def load_corpus(root: str | Path) -> list[Document]:
    """Labeled corpus: one subdirectory per category, one file per document.

    Document ids are file names; order is sorted categories then sorted
    file names, so loading is deterministic.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    docs: list[Document] = []
    seen: dict[str, Path] = {}
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not subdirs:
        raise CorpusError(f"corpus root {root} has no category directories")
    for sub in subdirs:
        for path in sorted(p for p in sub.iterdir() if p.is_file()):
            if path.name in seen:
                raise CorpusError(f"duplicate document id {path.name!r}: "
                                  f"{seen[path.name]} and {path}")
            seen[path.name] = path
            docs.append(_read_document(path, sub.name))
    return docs


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
        return [_read_document(p)
                for p in sorted(q for q in path.iterdir() if q.is_file())]
    raise CorpusError(f"no such file or directory: {path}")
