"""Corpus ingestion and preprocessing.

Documents become binary term-presence vectors: tokenize, drop stopwords,
rank candidate terms by information gain against the category labels, keep
the top N, and set one bit per selected term that occurs in the document.
The resulting vectors stack into the formal context the lattice is built
from.

``train_vectors`` tokenizes each document once: its post-filter term set
gives both its vector over the candidate terms, which ``select_features``
scores, and its vector over the selected terms. Tokens come out folded
(NFC, lowercase), so the candidate vectors map each token straight to its
bit. Any other vector looks each distinct term up in a map from folded
term to vocabulary bits, built once per vocabulary, so it never scans the
vocabulary. ``select_features`` adds each category's vectors into
bit-sliced counters (O'Neil & Quass, "Improved Query Performance with
Variant Indexes", SIGMOD 1997), whose slice b holds bit b of every term's
document count, and splits the terms by those counts into the classes
that share a per-category count vector. The class entropy is computed
once, and the information gain once per class.
"""

from __future__ import annotations

import math
import os
import re
import unicodedata
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import repeat
from operator import or_
from pathlib import Path

from .bits import bit_sliced_counts, iter_bits, split_by_count
from .context import FormalContext
from .errors import (CorpusError, DimensionError, EmptyInputError,
                     FormatError, LabelingError)
from .value import Value

# letter runs of two or more: a run of one never starts a match, and a
# longer run matches whole from its first letter
_WORD_RE = re.compile(r"[^\W\d_]{2,}")

DEFAULT_FEATURE_COUNT = 500


class Document(Value):
    _fields = ("id", "category", "text")

    def __init__(self, id: str, category: str | None, text: str) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "text", text)


class Vocabulary(Value):
    """Selected terms, ordered by (score descending, term ascending).

    ``ig_scores`` is None for externally given vocabularies (for example a
    context file's column order), in which case the order is kept as-is.
    ``token_masks`` maps each folded term to the mask of the vocabulary
    bits it sets; it is derived, and left out of equality and repr.
    """

    _fields = ("terms", "ig_scores")

    def __init__(self, terms: tuple[str, ...],
                 ig_scores: tuple[float, ...] | None = None) -> None:
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "ig_scores", ig_scores)
        if len(set(terms)) != len(terms):
            raise ValueError("vocabulary terms must be unique")
        if ig_scores is not None:
            if len(ig_scores) != len(terms):
                raise ValueError("one score per term required")
            ranking = sorted(zip(terms, ig_scores),
                             key=lambda ts: (-ts[1], ts[0]))
            if tuple(t for t, _ in ranking) != terms:
                raise ValueError("terms must be sorted by score desc, term asc")
        object.__setattr__(self, "token_masks", _token_masks(terms))

    def __len__(self) -> int:
        return len(self.terms)


class DocumentVector(Value):
    """Binary presence vector over a vocabulary."""

    _fields = ("bits", "size", "category", "doc_id")

    def __init__(self, bits: int, size: int, category: str | None = None,
                 doc_id: str | None = None) -> None:
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "doc_id", doc_id)
        if bits < 0 or bits >> size:
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
    # what ``pkgutil.get_data`` does, without importing it or
    # ``importlib.resources``; the package loader reads from a zip too
    path = os.path.join(os.path.dirname(__file__), "data", "stopwords_fr.txt")
    return _stopword_lines(__spec__.loader.get_data(path).decode("utf-8"))


def _doc_terms(doc: Document, stopwords: Iterable[str]) -> set[str]:
    return set(tokenize(doc.text)).difference(stopwords)


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
    stream. The token map is built with the ``Vocabulary``.
    """
    return _vector(doc, _doc_terms(doc, frozenset(stopwords)),
                   vocab.token_masks, len(vocab))


def _vector(doc: Document, terms: Iterable[str], masks: dict[str, int],
            size: int) -> DocumentVector:
    """``doc``'s vector of ``size`` bits: the union of the ``masks`` of its
    ``terms``, a term without one setting none."""
    bits = reduce(or_, map(masks.get, terms, repeat(0)), 0)
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
    C is a document's category. Each category's vectors are added into
    bit-sliced counters: bit t of slice b is bit b of term t's document
    count in that category. The terms are split by those counts, one
    category after another, into classes that share a per-category count
    vector. H(C) is computed once and IG once per class; classes of equal
    gain are merged, and only those that reach the top ``n`` list their
    terms.
    """
    if n < 1:
        raise ValueError("feature count must be >= 1")
    terms = tuple(terms)
    if not terms:  # nothing is scored, so the vectors are not checked
        return Vocabulary((), ())
    if not vectors:
        raise EmptyInputError("information gain over an empty corpus is undefined")
    rows: dict[str | None, list[int]] = {}
    for v in vectors:
        rows.setdefault(v.category, []).append(v.bits)
    if None in rows:
        first = next(v for v in vectors if v.category is None)
        raise LabelingError(f"document {first.doc_id!r} is unlabeled")
    totals = [len(r) for r in rows.values()]
    n_docs = len(vectors)
    h_class = _entropy(totals)
    # (per-category document counts, the terms that have them); bits of a
    # vector at or above len(terms) fall outside every class
    classes = [((), (1 << len(terms)) - 1)]
    for slices in map(bit_sliced_counts, rows.values()):
        classes = [(present + (count,), members)
                   for present, group in classes
                   for count, members in split_by_count(group, slices)]
    by_gain: dict[float, int] = {}
    for present, members in classes:
        absent = [t - p for t, p in zip(totals, present)]
        n_present = sum(present)
        gain = (h_class
                - (n_present / n_docs) * _entropy(present)
                - ((n_docs - n_present) / n_docs) * _entropy(absent))
        by_gain[gain] = by_gain.get(gain, 0) | members
    kept: list[str] = []
    scores: list[float] = []
    for gain in sorted(by_gain, reverse=True):
        tied = sorted(map(terms.__getitem__,
                          iter_bits(by_gain[gain])))[:n - len(kept)]
        kept += tied
        scores += [gain] * len(tied)
        if len(kept) == n:
            break
    return Vocabulary(tuple(kept), tuple(scores))


def train_vectors(docs: Sequence[Document], n: int = DEFAULT_FEATURE_COUNT,
                  *, stopwords: Iterable[str] = ()
                  ) -> tuple[Vocabulary, list[DocumentVector]]:
    """The vocabulary of ``docs`` and each document's vector over it.

    The candidates are all distinct post-filter tokens of the corpus,
    sorted; ``select_features`` keeps the top ``n``. Each document is
    tokenized once.
    """
    stop = frozenset(stopwords)
    term_sets = [_doc_terms(d, stop) for d in docs]
    # tokens are folded already, so each candidate is its own map key
    candidates = {term: 1 << i
                  for i, term in enumerate(sorted(set().union(*term_sets)))}
    vocab = select_features([_vector(d, terms, candidates, len(candidates))
                             for d, terms in zip(docs, term_sets)],
                            tuple(candidates), n)
    masks, size = vocab.token_masks, len(vocab)
    return vocab, [_vector(d, terms, masks, size)
                   for d, terms in zip(docs, term_sets)]


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

    Each document is read as bytes with ``os.read`` and decoded as UTF-8
    once; ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as in a text-mode
    ``open``. A file that cannot be read or decoded is a ``CorpusError``
    naming it.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    docs: list[Document] = []
    seen: dict[str, str] = {}
    categories = _entry_names(root, os.DirEntry.is_dir)
    if not categories:
        raise CorpusError(f"corpus root {root} has no category directories")
    for category in categories:
        for name, path in _file_paths(root / category):
            if name in seen:
                raise CorpusError(f"duplicate document id {name!r}: "
                                  f"{seen[name]} and {path}")
            seen[name] = path
            docs.append(Document(name, category, _read_text(path)))
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


def _file_paths(directory: Path) -> list[tuple[str, str]]:
    """``(name, path)`` of each file in ``directory``, sorted by name.

    Each path is spelled as ``str(directory / name)``, from one ``Path``
    per directory: its prefix is ``directory / "_"`` without the ``_``,
    which is empty for ``.``, where joining by ``os.path.join`` would
    add ``./``.
    """
    prefix = os.fspath(directory / "_")[:-1]
    return [(name, prefix + name)
            for name in _entry_names(directory, os.DirEntry.is_file)]


# O_BINARY keeps Windows from translating line endings itself
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_READ_CHUNK = 1 << 16


def _read_text(path: str) -> str:
    """The text of the file at ``path``, as ``Path.read_text`` reads it
    as UTF-8, without a buffered text stream per file."""
    try:
        fd = os.open(path, _READ_FLAGS)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
        # decoded whole, as a text stream's read() does, so an invalid
        # byte is reported at its offset in the file
        text = b"".join(chunks).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read document {path}: {exc}") from exc
    if "\r" in text:  # universal newlines
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_documents(path: str | Path) -> list[Document]:
    """Unlabeled input: a single file or a flat directory of files, read
    as ``load_corpus`` reads a document."""
    path = Path(path)
    if path.is_file():
        return [Document(path.name, None, _read_text(os.fspath(path)))]
    if path.is_dir():
        return [Document(name, None, _read_text(file))
                for name, file in _file_paths(path)]
    if path.exists():
        raise CorpusError(f"not a regular file or directory: {path}")
    raise CorpusError(f"no such file or directory: {path}")
