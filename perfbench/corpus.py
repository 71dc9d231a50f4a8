"""Seeded synthetic corpus generator.

Writes a labeled corpus (one directory per category, one text file per
document) and, optionally, a flat directory of unlabeled documents drawn
from the same categories. The same seed and shape always give the same
files.

Words are letters only: the package tokenizer keeps runs of letters and
drops digits and ``_``, so tokens such as ``w0001`` would leave documents
empty. Every category owns a list of topic words, and each list shares
part of its words with the next category's list, so categories overlap
and accuracy stays below 1. Background words are shared by all categories
and drawn with a rank-skewed (Zipf) frequency, which gives information
gain thousands of candidate terms to rank. Documents also carry French
function words (removed as stopwords), one-letter words and numbers
(dropped by the tokenizer), and capitalised sentence starts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_FUNCTION_WORDS = ("le", "la", "les", "de", "des", "du", "et", "en", "un",
                   "une", "dans", "pour", "sur", "avec")
_SHORT_WORDS = ("a", "y", "l", "d")
CATEGORIES = 3   # categories of every corpus
# topic words owned by one category, and shared by each category and the next
_TOPIC_WORDS = 60
_SHARED_TOPIC = 15
# rank exponents of the topic and background word frequencies
_TOPIC_ZIPF = 0.6
_BACKGROUND_ZIPF = 1.0


@dataclass(frozen=True)
class CorpusShape:
    """Make-up of one generated corpus."""

    docs_per_category: int
    unlabeled: int
    background: int       # size of the shared background lexicon
    doc_tokens: int       # content words per document
    topic_share: float    # share of a document's content words that are topic words

    @property
    def labeled(self) -> int:
        return CATEGORIES * self.docs_per_category


@dataclass(frozen=True)
class GeneratedCorpus:
    root: Path                   # category directories of labeled documents
    unlabeled: Path | None       # flat directory of unlabeled documents
    categories: tuple[str, ...]
    labels: dict[str, str]       # document id -> category, labeled docs
    unlabeled_labels: dict[str, str]


def _lexicon(rnd: random.Random, n: int, avoid: set[str]) -> list[str]:
    """``n`` distinct pseudo-words of two to four consonant-vowel syllables."""
    words: list[str] = []
    seen = set(avoid)
    while len(words) < n:
        syllables = rnd.choice((2, 2, 3, 3, 3, 4))
        word = "".join(rnd.choice(_CONSONANTS) + rnd.choice(_VOWELS)
                       for _ in range(syllables))
        if rnd.random() < 0.3:
            word += rnd.choice(_CONSONANTS)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank ** exponent)
                                     for rank in range(1, n + 1)))


def _document(rnd: random.Random, topic: list[str], topic_cum: list[float],
              background: list[str], background_cum: list[float],
              shape: CorpusShape) -> str:
    n = shape.doc_tokens
    n_topic = round(n * shape.topic_share)
    content = (rnd.choices(topic, cum_weights=topic_cum, k=n_topic)
               + rnd.choices(background, cum_weights=background_cum, k=n - n_topic))
    rnd.shuffle(content)
    sentences = []
    i = 0
    while i < len(content):
        length = rnd.randint(6, 12)
        words = []
        for word in content[i:i + length]:
            r = rnd.random()
            if r < 0.25:
                words.append(rnd.choice(_FUNCTION_WORDS))
            elif r < 0.30:
                words.append(rnd.choice(_SHORT_WORDS))
            elif r < 0.33:
                words.append(str(rnd.randint(1, 2999)))
            words.append(word)
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + rnd.choice((".", ".", ",", ";", "!")))
        i += length
    return " ".join(sentences) + "\n"


def generate(out_dir: str | Path, shape: CorpusShape,
             seed: int | str) -> GeneratedCorpus:
    """Write the corpus for ``shape`` and ``seed`` under ``out_dir``.

    Labeled documents go to ``out_dir/labeled/<category>/<id>.txt`` and
    unlabeled ones to ``out_dir/unlabeled/<id>.txt``; ids are unique
    across both sets.
    """
    rnd = random.Random(seed)
    out_dir = Path(out_dir)
    categories = sorted(_lexicon(rnd, CATEGORIES, set()))
    words = _lexicon(rnd, CATEGORIES * (_TOPIC_WORDS + _SHARED_TOPIC)
                     + shape.background, set(categories))
    k = CATEGORIES
    own = _TOPIC_WORDS
    n_shared = _SHARED_TOPIC
    words = iter(words)
    owned = [[next(words) for _ in range(own)] for _ in range(k)]
    bridges = [[next(words) for _ in range(n_shared)] for _ in range(k)]
    # Category c ranks its own words and the bridges to c + 1 and from
    # c - 1 by fixed, evenly spread positions, so the frequency profile
    # is the same for every seed; only the spellings and the sampled
    # documents change with the seed.
    topics = []
    for c in range(k):
        slots = ([((i + 0.5) / own, w) for i, w in enumerate(owned[c])]
                 + [((j + 0.25) / n_shared, w) for j, w in enumerate(bridges[c])]
                 + [((j + 0.75) / n_shared, w)
                    for j, w in enumerate(bridges[c - 1])])
        topics.append([w for _, w in sorted(slots)])
    topic_cums = [_zipf_weights(len(topic), _TOPIC_ZIPF) for topic in topics]
    background = list(words)
    background_cum = _zipf_weights(len(background), _BACKGROUND_ZIPF)

    labeled_root = out_dir / "labeled"
    labels: dict[str, str] = {}
    unlabeled_labels: dict[str, str] = {}
    counter = itertools.count()
    for c, name in enumerate(categories):
        cat_dir = labeled_root / name
        cat_dir.mkdir(parents=True, exist_ok=True)
        for _ in range(shape.docs_per_category):
            doc_id = f"d{next(counter):05d}.txt"
            text = _document(rnd, topics[c], topic_cums[c], background,
                             background_cum, shape)
            (cat_dir / doc_id).write_text(text, encoding="utf-8")
            labels[doc_id] = name
    unlabeled_root = None
    if shape.unlabeled:
        unlabeled_root = out_dir / "unlabeled"
        unlabeled_root.mkdir(parents=True, exist_ok=True)
        for _ in range(shape.unlabeled):
            c = rnd.randrange(CATEGORIES)
            doc_id = f"u{next(counter):05d}.txt"
            text = _document(rnd, topics[c], topic_cums[c], background,
                             background_cum, shape)
            (unlabeled_root / doc_id).write_text(text, encoding="utf-8")
            unlabeled_labels[doc_id] = categories[c]
    return GeneratedCorpus(labeled_root, unlabeled_root, tuple(categories),
                           labels, unlabeled_labels)
