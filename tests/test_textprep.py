"""Tokenization, feature selection, vectorization, context construction."""

import math
import random
import re
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (DATA, benchmark_corpus, demo_context,
                     reference_information_gain, reference_load_corpus,
                     reference_load_documents, reference_select_by_columns,
                     reference_select_features, reference_tokenize,
                     reference_vectorize, reference_vocabulary)
from latticecell import (CorpusError, DimensionError, Document,
                         DocumentVector, EmptyInputError, LabelingError,
                         Vocabulary, build_context, default_stopwords,
                         load_corpus, load_documents, load_stopwords,
                         remove_stopwords, select_features, tokenize,
                         train_vectors, vectorize)
from latticecell import textprep

FR_STOPS = default_stopwords()


def test_tokenize_basic():
    assert tokenize("Le ministre, la puissance.") == ["le", "ministre", "la",
                                                      "puissance"]
    assert tokenize("") == []
    assert tokenize("A1-B2") == []          # one-letter fragments dropped
    assert tokenize("Déjà-vu à Paris") == ["déjà", "vu", "paris"]
    # NFD stores "é" as "e" and a combining accent, which is not a letter
    assert tokenize(unicodedata.normalize("NFD", "Équipe du ministère")) == [
        "équipe", "du", "ministère"]


# digits, "_", separators, letters that make one-letter words, combining
# marks, letters outside Latin, and letters whose lowercase is two
# characters ("İ") or that NFC composes with a following mark
_TEXT_CHARACTERS = st.sampled_from(list("ab Zé_1-9 .'\n\t") + [
    "\u0301", "\u0308", "\u0327", "ж", "Ж", "α", "Ω", "日", "本", "ß", "ǅ",
    "İ", "\u0660", "\u2163", "\u00aa", "\u02b0", "\u3005"])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=st.text(_TEXT_CHARACTERS | st.characters(), max_size=40))
def test_tokenize_equals_find_then_filter(text):
    assert tokenize(text) == reference_tokenize(text)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=st.text(_TEXT_CHARACTERS | st.characters(), max_size=40))
def test_every_token_is_its_own_fold(text):
    """Training maps each token straight to its candidate bit, with no
    NFC or lowercasing of its own, so each token must already be folded."""
    for token in tokenize(text):
        assert textprep._fold(token) == token


def test_remove_stopwords():
    toks = ["le", "ministre", "la", "puissance"]
    assert remove_stopwords(toks, FR_STOPS) == ["ministre", "puissance"]
    assert remove_stopwords(toks, ()) == toks
    assert remove_stopwords(["le", "la"], FR_STOPS) == []


def test_load_stopwords(tmp_path):
    f = tmp_path / "stops.txt"
    f.write_text("un\ndeux\n\n  trois  \n", encoding="utf-8")
    assert load_stopwords(f) == {"un", "deux", "trois"}
    f.write_text("Un\nDEUX\n", encoding="utf-8")
    assert load_stopwords(f) == {"un", "deux"}
    # a byte-order mark is not part of the first entry
    f.write_text("\ufeffle\net\n", encoding="utf-8")
    assert load_stopwords(f) == {"le", "et"}
    # an NFD entry filters the NFC token
    f.write_text(unicodedata.normalize("NFD", "Été\nà\n"), encoding="utf-8")
    assert load_stopwords(f) == {"été", "à"}
    vocab, _ = train_vectors([Document("d", "A", "Été à Paris")],
                             stopwords=load_stopwords(f))
    assert vocab.terms == ("paris",)


def _labeled_vectors(bit_rows, labels, terms):
    return [DocumentVector(bits, len(terms), cat, f"d{i}")
            for i, (bits, cat) in enumerate(zip(bit_rows, labels))]


def _from_columns(columns, labels, terms, high=()):
    """Vectors whose term j occurs in the documents of ``columns[j]``,
    each also setting the bits of its ``high`` entry above the terms."""
    high = list(high) or [0] * len(labels)
    rows = [sum((col >> d & 1) << j for j, col in enumerate(columns))
            | extra << len(terms) for d, extra in enumerate(high)]
    return [DocumentVector(bits, max(bits.bit_length(), len(terms)), cat,
                           f"d{i}")
            for i, (bits, cat) in enumerate(zip(rows, labels))]


def _ig_score(vectors, terms, term):
    vocab = select_features(vectors, terms, len(terms))
    return vocab.ig_scores[vocab.terms.index(term)]


def test_information_gain_perfect_term():
    terms = ("t",)
    vectors = _labeled_vectors([1, 1, 0, 0], ["A", "A", "B", "B"], terms)
    assert _ig_score(vectors, terms, "t") == pytest.approx(1.0)


def test_information_gain_uninformative_term():
    terms = ("t",)
    vectors = _labeled_vectors([1, 1, 1, 1], ["A", "A", "B", "B"], terms)
    assert _ig_score(vectors, terms, "t") == pytest.approx(0.0)


def test_information_gain_partial_term():
    # 4 docs (2 A, 2 B), term in one A doc only:
    # 1 - (1/4) * 0 - (3/4) * H(1/3) = 0.31127...
    terms = ("t",)
    vectors = _labeled_vectors([1, 0, 0, 0], ["A", "A", "B", "B"], terms)
    expected = 1 - 0.75 * (-(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3))
    got = _ig_score(vectors, terms, "t")
    assert got == pytest.approx(expected)
    assert round(got, 4) == 0.3113


def test_information_gain_bounded_by_class_entropy():
    import random

    rnd = random.Random(31)
    cats = ["A", "B", "C"]
    terms = tuple(f"t{i}" for i in range(5))
    for _ in range(50):
        n = rnd.randint(2, 12)
        labels = [cats[rnd.randrange(3)] for _ in range(n)]
        vectors = _labeled_vectors([rnd.getrandbits(5) for _ in range(n)],
                                   labels, terms)
        bound = math.log2(len(set(labels))) if len(set(labels)) > 1 else 0.0
        for ig in select_features(vectors, terms, len(terms)).ig_scores:
            assert -1e-12 <= ig <= bound + 1e-12


def test_select_features_keeps_all_when_n_large():
    terms = ("alpha", "beta")
    vectors = _labeled_vectors([0b01, 0b10], ["A", "B"], terms)
    vocab = select_features(vectors, terms, 500)
    assert set(vocab.terms) == {"alpha", "beta"}
    assert vocab.ig_scores is not None


def test_select_features_tie_break_lexicographic():
    # both terms have the same presence pattern, hence identical scores
    terms = ("zeta", "alpha")
    vectors = _labeled_vectors([0b11, 0b00], ["A", "B"], terms)
    vocab = select_features(vectors, terms, 2)
    assert vocab.terms == ("alpha", "zeta")
    assert vocab.ig_scores[0] == vocab.ig_scores[1]


def test_select_features_prefix_property():
    terms = ("a", "b", "c", "d")
    vectors = _labeled_vectors([0b0011, 0b0101, 0b1001, 0b1110],
                               ["A", "A", "B", "B"], terms)
    full = select_features(vectors, terms, 4)
    top2 = select_features(vectors, terms, 2)
    assert top2.terms == full.terms[:2]


def test_select_features_equals_per_term_information_gain():
    """Every score is the same float as a lone
    ``reference_information_gain`` call."""
    rnd = random.Random(47)
    ties = absent = single = above = 0
    for _ in range(300):
        n_terms = rnd.randint(1, 12)
        terms = rnd.sample([f"t{i:02d}" for i in range(40)], n_terms)  # unsorted
        # first-seen category order differs from sorted order
        cats = rnd.sample(["Zeta", "Beta", "Mu", "Alpha"], rnd.randint(1, 4))
        n_docs = rnd.randint(1, 15)
        labels = [rnd.choice(cats) for _ in range(n_docs)]
        # a few repeated columns give tied scores; zeroed ones, absent terms
        pool = [rnd.getrandbits(n_docs) for _ in range(rnd.randint(1, 4))]
        columns = [rnd.choice(pool) if rnd.random() < 0.8 else 0
                   for _ in range(n_terms)]
        rows = [sum(((col >> d) & 1) << j for j, col in enumerate(columns))
                for d in range(n_docs)]
        vectors = _labeled_vectors(rows, labels, terms)
        n = rnd.randint(1, n_terms + 3)
        got = select_features(vectors, terms, n)
        want = reference_select_features(vectors, terms, n)
        assert got.terms == want.terms
        assert got.ig_scores == want.ig_scores  # exact, not approx
        scores = [reference_information_gain(t, vectors, terms)
                  for t in terms]
        ties += len(set(scores)) < len(scores)
        absent += 0 in columns
        single += len(set(labels)) == 1
        above += n > n_terms
    assert min(ties, absent, single, above) > 10


@st.composite
def _shared_count_vectors(draw):
    """Labeled vectors whose 4-24 terms take their document sets from a
    pool of at most three, so that many terms share a count vector."""
    n_docs = draw(st.integers(1, 12))
    cats = draw(st.lists(st.sampled_from(["Zeta", "Beta", "Mu", "Alpha"]),
                         min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.sampled_from(cats), min_size=n_docs,
                           max_size=n_docs))
    pool = draw(st.lists(st.integers(0, (1 << n_docs) - 1), min_size=1,
                         max_size=3))
    n_terms = draw(st.integers(4, 24))
    columns = draw(st.lists(st.sampled_from(pool), min_size=n_terms,
                            max_size=n_terms))
    terms = draw(st.permutations([f"t{i:02d}" for i in range(n_terms)]))
    rows = [sum((col >> d & 1) << j for j, col in enumerate(columns))
            for d in range(n_docs)]
    return _labeled_vectors(rows, labels, terms), terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_shared_count_vectors(), extra=st.integers(1, 30))
def test_select_features_equals_reference_on_shared_count_vectors(case,
                                                                  extra):
    """Four terms or more over at most three document sets: some two tie,
    and the cut also falls between two tied terms."""
    vectors, terms = case
    ranked = reference_select_features(vectors, terms, len(terms))
    scores = ranked.ig_scores
    tie = next(i for i in range(len(scores) - 1)
               if scores[i] == scores[i + 1])
    for n in (tie + 1, extra):
        got = select_features(vectors, terms, n)
        want = reference_select_features(vectors, terms, n)
        assert got.terms == want.terms == ranked.terms[:n]
        assert got.ig_scores == want.ig_scores  # exact, not approx


def _swap(column, first, second, labels):
    """``column`` with the documents of two categories exchanged, the k-th
    document of one for the k-th of the other."""
    a = [d for d, c in enumerate(labels) if c == first]
    b = [d for d, c in enumerate(labels) if c == second]
    swapped = column
    for i, j in zip(a, b):
        swapped &= ~(1 << i | 1 << j)
        swapped |= (column >> i & 1) << j | (column >> j & 1) << i
    return swapped


@st.composite
def _selection_inputs(draw):
    """``select_features``' arguments: unsorted and sometimes repeated
    terms; categories, often of equal size, whose documents some columns
    swap, so that distinct count vectors tie; bits above the terms;
    sometimes no document, an unlabeled one, or ``n`` beyond the terms or
    below 1."""
    terms = draw(st.lists(st.sampled_from(["mu", "alpha", "zeta", "pi", "ab"]),
                          max_size=8))
    cats = draw(st.lists(st.sampled_from(["Zeta", "Beta", "Mu", "Alpha"]),
                         min_size=1, max_size=4, unique=True))
    extra = draw(st.lists(st.sampled_from(cats), max_size=3))
    labels = draw(st.permutations(cats * draw(st.integers(0, 4)) + extra))
    n_docs = len(labels)
    if n_docs and draw(st.integers(0, 9)) == 0:
        labels[draw(st.integers(0, n_docs - 1))] = None
    pool = draw(st.lists(st.integers(0, (1 << n_docs) - 1), min_size=1,
                         max_size=3))
    columns = [draw(st.sampled_from(pool)) for _ in terms]
    if len(cats) > 1:
        columns = [_swap(col, cats[0], cats[1], labels)
                   if draw(st.booleans()) else col for col in columns]
    high = draw(st.lists(st.integers(0, 7), min_size=n_docs, max_size=n_docs))
    n = draw(st.integers(0, len(terms) + 3))
    return _from_columns(columns, labels, terms, high), terms, n


def _outcome(select, vectors, terms, n):
    """The vocabulary with its scores' exact bits, or the exception."""
    try:
        vocab = select(vectors, terms, n)
    except Exception as exc:
        return type(exc), str(exc)
    return vocab, [score.hex() for score in vocab.ig_scores]


# two categories of two documents: "y" is in both A documents, "x" in both
# B ones, so the two count vectors differ and their gains tie
_SWAPPED = (_from_columns([0b1010, 0b0101], ["A", "B", "A", "B"], ("x", "y")),
            ("x", "y"), 1)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_selection_inputs())
@example(case=_SWAPPED)
@example(case=(_from_columns([0b011, 0b110, 0b011], ["A", "B", "A"],
                             ("pi", "mu", "ab")), ["pi", "mu", "ab"], 5))
@example(case=(_from_columns([0b11, 0b01], ["A", "A"], ("zeta", "alpha"),
                             [5, 2]), ("zeta", "alpha"), 1))
@example(case=(_from_columns([0b01, 0b10, 0b01], ["A", "B"],
                             ("mu", "pi", "mu")), ("mu", "pi", "mu"), 3))
def test_select_features_equals_the_column_oracle(case):
    """The bit-sliced selection equals transposing the vectors into term
    columns and counting each column per category: the same vocabulary,
    the same score bits, or the same exception. Covered: unsorted and
    repeated terms, ties between distinct count vectors, ``n`` beyond the
    terms, one category, and vector bits above the terms."""
    vectors, terms, n = case
    assert (_outcome(select_features, vectors, terms, n)
            == _outcome(reference_select_by_columns, vectors, terms, n))


def test_categories_swapped_give_distinct_count_vectors_the_same_gain():
    vectors, terms, n = _SWAPPED
    want = reference_select_by_columns(vectors, terms, 2)
    assert want.terms == ("x", "y") and want.ig_scores == (1.0, 1.0)
    assert select_features(vectors, terms, n) == Vocabulary(("x",), (1.0,))


def test_training_maps_only_the_selected_terms(monkeypatch):
    """The candidate vectors use a plain term-to-bit map: the one token
    map training builds is the selected vocabulary's."""
    calls = []
    token_masks = textprep._token_masks
    monkeypatch.setattr(textprep, "_token_masks",
                        lambda terms: calls.append(terms) or token_masks(terms))
    vocab, _ = train_vectors(load_corpus(DATA / "corpus"), 20,
                             stopwords=FR_STOPS)
    assert calls == [vocab.terms]


def test_select_features_errors_match_information_gain():
    with pytest.raises(EmptyInputError):
        select_features([], ("t",))
    vectors = [DocumentVector(1, 1, "A", "d0"), DocumentVector(0, 1, None, "d1"),
               DocumentVector(0, 1, None, "d2")]
    with pytest.raises(LabelingError) as oracle:
        reference_information_gain("t", vectors, ("t",))
    with pytest.raises(LabelingError) as err:
        select_features(vectors, ("t",))
    assert str(err.value) == str(oracle.value) == "document 'd1' is unlabeled"
    with pytest.raises(ValueError):
        select_features(vectors, ("t",), 0)
    # no candidate is ever scored, so nothing is checked
    assert select_features([], (), 5) == Vocabulary((), ())


def _random_corpus(rnd):
    words = ["Stade", "stade", "Ministre", "pays", "Pays", "visage", "PUISSANCE",
             "le", "la", "journal", "équipe", "match", "budget", "chaîne", "ab"]
    cats = rnd.sample(["Sport", "Economie", "Television"], rnd.randint(1, 3))
    return [Document(f"d{i}", rnd.choice(cats),
                     " ".join(rnd.choice(words)
                              for _ in range(rnd.randint(0, 12))))
            for i in range(rnd.randint(1, 14))]


def _in_form(form, docs):
    return [Document(d.id, d.category, unicodedata.normalize(form, d.text))
            for d in docs]


def _assert_trains_as_the_references(docs, n, stops, form="NFC"):
    """``train_vectors`` of ``docs`` in ``form`` gives the full-scan
    vocabulary of ``docs`` and each document's full-scan vector over it."""
    texts = _in_form(form, docs)
    vocab, vectors = train_vectors(texts, n, stopwords=stops)
    assert vocab == reference_vocabulary(docs, n, stops)
    assert vectors == [reference_vectorize(d, vocab, stops) for d in texts]


@pytest.mark.parametrize("form", ["NFC", "NFD"], ids=["plain", "nfd"])
def test_training_matches_full_scan_references(form):
    """The corpora are written in NFC; their NFD form gives the same
    vocabulary."""
    docs = load_corpus(DATA / "corpus")
    for n in (1, 6, 1000):
        _assert_trains_as_the_references(docs, n, FR_STOPS, form)
    rnd = random.Random(53)
    for _ in range(60):
        docs = _random_corpus(rnd)
        n = rnd.randint(1, 20)
        stops = FR_STOPS if rnd.random() < 0.5 else ()
        _assert_trains_as_the_references(docs, n, stops, form)


def test_training_matches_full_scan_references_on_a_benchmark_corpus(tmp_path):
    """A 210-document corpus of 1,331 candidate terms, of which the
    workload keeps 100."""
    docs, _ = benchmark_corpus(tmp_path, "train-wide", "train-wide/1/0")
    _assert_trains_as_the_references(docs, 100, FR_STOPS)


def test_nfc_and_nfd_texts_give_equal_vectors():
    rnd = random.Random(61)
    decomposed = 0
    for _ in range(30):
        nfc = _random_corpus(rnd)
        nfd = _in_form("NFD", nfc)
        decomposed += nfd != nfc  # "équipe" and "chaîne" decompose
        vocab, _ = train_vectors(nfc, 20, stopwords=FR_STOPS)
        # the vocabulary's own terms, decomposed, still match
        for terms in (vocab, Vocabulary(tuple(
                unicodedata.normalize("NFD", t) for t in vocab.terms))):
            assert ([vectorize(d, terms, stopwords=FR_STOPS).bits for d in nfd]
                    == [vectorize(d, vocab, stopwords=FR_STOPS).bits
                        for d in nfc])
    assert decomposed > 20


def test_vocabulary_order_enforced():
    with pytest.raises(ValueError):
        Vocabulary(("b", "a"), (0.5, 0.9))
    Vocabulary(("b", "a"))  # unscored vocabularies keep the given order
    with pytest.raises(ValueError, match="terms must be unique"):
        Vocabulary(("a", "a"))
    with pytest.raises(ValueError, match="one score per term"):
        Vocabulary(("b", "a"), (0.9,))


def test_document_vector_bits_fit_its_size():
    assert DocumentVector(0b111, 3).bits == 0b111
    for bits in (0b1000, -1):
        with pytest.raises(DimensionError, match="exceed the vocabulary size"):
            DocumentVector(bits, 3)


def test_vectorize_reference_row():
    vocab = Vocabulary(("Stade", "Pays", "Personnage", "Ministre", "Puissance",
                        "Visage"))
    doc = Document("q", None, "Le ministre parle de la puissance du ministre.")
    v = vectorize(doc, vocab, stopwords=FR_STOPS)
    assert v.bits == 0b011000
    none = vectorize(Document("x", None, "rien ici"), vocab, stopwords=FR_STOPS)
    assert none.bits == 0


def test_vectorize_binary_weighting():
    vocab = Vocabulary(("mot",))
    doc = Document("x", None, "mot mot mot mot mot")
    assert vectorize(doc, vocab).bits == 0b1


def test_vectorize_sets_every_term_that_folds_to_a_token():
    doc = Document("x", None, "Foo bar")
    vocab = Vocabulary(("Foo", "baz", "foo", "FOO"))
    v = vectorize(doc, vocab)
    assert v.bits == 0b1101
    assert v == reference_vectorize(doc, vocab)


def test_vectorize_display_cased_headers_match_scan():
    headers = Vocabulary(demo_context().attribute_names)  # "Stade", ...
    seen = 0
    for doc in load_corpus(DATA / "corpus"):
        want = reference_vectorize(doc, headers, FR_STOPS)
        assert vectorize(doc, headers, stopwords=FR_STOPS) == want
        seen |= want.bits
    assert seen == (1 << len(headers)) - 1


def test_vectorize_agrees_with_scan():
    rnd = random.Random(59)
    base = ["stade", "ministre", "pays", "visage", "équipe", "budget"]
    for _ in range(100):
        spellings = {w: [w, w.capitalize(), w.upper()] for w in base}
        terms = rnd.sample([s for w in base for s in spellings[w]],
                           rnd.randint(1, 12))
        doc = Document("x", None, " ".join(rnd.choice(base + ["le", "de"])
                                           for _ in range(rnd.randint(0, 8))))
        vocab = Vocabulary(tuple(terms))
        assert (vectorize(doc, vocab, stopwords=FR_STOPS)
                == reference_vectorize(doc, vocab, FR_STOPS))


def test_build_context_requires_ids_and_sizes():
    vocab = Vocabulary(("a",))
    with pytest.raises(DimensionError):
        build_context([DocumentVector(1, 1, None, None)], vocab)
    with pytest.raises(DimensionError):
        build_context([DocumentVector(0, 2, None, "d")], vocab)


def test_build_context_empty_and_single():
    vocab = Vocabulary(("a",))
    assert build_context([], vocab).n_objects == 0
    ctx = build_context([DocumentVector(1, 1, "A", "d0")], vocab)
    assert ctx.rows == (1,)
    assert ctx.object_ids == ("d0",)


def test_corpus_round_trips_to_reference_context():
    """The bundled corpus vectorizes exactly to the bundled context CSV."""
    reference = demo_context()
    docs = {re.search(r"\d", d.id).group(): d
            for d in load_corpus(DATA / "corpus")}
    ordered = [Document(f"Doc {n}", docs[n].category, docs[n].text)
               for n in "123456789"]
    vocab = Vocabulary(reference.attribute_names)
    vectors = [vectorize(d, vocab, stopwords=FR_STOPS) for d in ordered]
    ctx = build_context(vectors, vocab)
    assert ctx == reference


def test_feature_selection_on_bundled_corpus():
    docs = load_corpus(DATA / "corpus")
    vocab, _ = train_vectors(docs, 6, stopwords=FR_STOPS)
    assert set(vocab.terms) == {"stade", "pays", "personnage", "ministre",
                                "puissance", "visage"}
    # the everywhere-present filler carries zero information
    every, _ = train_vectors(docs, 1000, stopwords=FR_STOPS)
    assert every.ig_scores[every.terms.index("journal")] == pytest.approx(0.0)


def test_load_corpus_errors(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "missing")
    empty = tmp_path / "flat"
    empty.mkdir()
    with pytest.raises(CorpusError):
        load_corpus(empty)


def test_load_corpus_without_documents_is_an_error(tmp_path):
    for category in ("sport", "economie"):
        (tmp_path / category).mkdir()
    (tmp_path / "sport" / "nested").mkdir()
    (tmp_path / "sport" / "nested" / "deep.txt").write_text("stade")
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == f"corpus root {tmp_path} has no documents"


def _sorted_path_listing(root):
    """(name, category) in the order of sorted ``Path`` objects."""
    return [(p.name, sub.name)
            for sub in sorted(q for q in root.iterdir() if q.is_dir())
            for p in sorted(q for q in sub.iterdir() if q.is_file())]


def test_listing_order_is_sorted_paths_following_symlinks(tmp_path):
    root, outside = tmp_path / "corpus", tmp_path / "outside"
    outside.mkdir()
    (outside / "far.txt").write_text("stade", encoding="utf-8")
    names = ["b.txt", "B.txt", "a10", "a9", "é.txt", "e\u0301.txt", "_z",
             "Z", "10", "2", "a b"]
    for category in ("sport", "Sport", "économie", "10"):
        (root / category).mkdir(parents=True)
        for name in names:
            (root / category / f"{category}-{name}").write_text(
                "le stade", encoding="utf-8")
    (root / "10" / "dir.txt").mkdir()  # a directory is not a document
    (root / "sport" / "link.txt").symlink_to(outside / "far.txt")
    (root / "sport" / "broken.txt").symlink_to(outside / "missing.txt")
    (root / "linked").symlink_to(outside, target_is_directory=True)
    (root / "stray.txt").write_text("pas une catégorie", encoding="utf-8")
    want = _sorted_path_listing(root)
    assert ("link.txt", "sport") in want and ("far.txt", "linked") in want
    assert [(d.id, d.category) for d in load_corpus(root)] == want
    flat = root / "sport"
    assert [d.id for d in load_documents(flat)] == [
        p.name for p in sorted(q for q in flat.iterdir() if q.is_file())]


def test_load_corpus_duplicate_ids(tmp_path):
    for cat in ("a", "b"):
        (tmp_path / cat).mkdir()
        (tmp_path / cat / "same.txt").write_text("texte", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path)
    assert "same.txt" in str(err.value)


def test_load_documents_single_file(tmp_path):
    f = tmp_path / "doc.txt"
    f.write_text("le stade", encoding="utf-8")
    docs = load_documents(f)
    assert len(docs) == 1 and docs[0].category is None
    with pytest.raises(CorpusError):
        load_documents(tmp_path / "nope")


def test_load_documents_undecodable_single_file(tmp_path):
    f = tmp_path / "latin1.txt"
    f.write_bytes("le stade de l'\xe9quipe".encode("latin-1"))
    with pytest.raises(CorpusError) as err:
        load_documents(f)
    assert str(f) in str(err.value)


def _loaded(load, path):
    """What ``load(path)`` returns, or the text of its ``CorpusError``."""
    try:
        return load(path)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


def _unlike_the_oracle(root: Path) -> list[str]:
    """``root`` holds category directories of files: the loads of the
    corpus, of each category as a flat directory and of each file alone
    whose documents or ``CorpusError`` text differ from the
    ``Path.read_text`` oracle's. Named, not shown: a diff of long texts
    would take minutes."""
    loads = [(load_corpus, reference_load_corpus, root)]
    for sub in sorted(root.iterdir()):
        loads += [(load_documents, reference_load_documents, path)
                  for path in (sub, *sorted(sub.iterdir()))]
    return [f"{load.__name__}({path})" for load, oracle, path in loads
            if _loaded(load, path) != _loaded(oracle, path)]


# pieces of a document's bytes: every kind of line end (a piece list that
# ends in "\r" leaves a lone trailing CR), a byte-order mark, multi-byte
# UTF-8, and bytes that are not UTF-8 or cut a character short
_BYTE_PIECES = st.sampled_from([
    b"le stade", b" ", b"\n", b"\r", b"\r\n", b"\r\r\n", b"\n\r",
    b"\xef\xbb\xbf", "é".encode(), "€".encode(), "𝄞".encode(), b"\xff",
    b"\xc3", b"\xe2\x82", b"\x80", b"\xed\xa0\x80"])
_DOCUMENT_BYTES = st.lists(_BYTE_PIECES, max_size=10).map(b"".join)


@settings(max_examples=150, deadline=None)
@given(st.lists(_DOCUMENT_BYTES, min_size=1, max_size=4))
@example([b"stade\r"])
@example([b"\xef\xbb\xbfl\xc3\xa9\r\r\nstade\r\n", b"fin\xc3"])
def test_loaders_read_bytes_as_read_text(contents):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for i, data in enumerate(contents):
            sub = root / f"c{i % 2}"
            sub.mkdir(exist_ok=True)
            (sub / f"d{i}.txt").write_bytes(data)
        assert _unlike_the_oracle(root) == []


@pytest.mark.parametrize("chunk", [2, 3, textprep._READ_CHUNK])
def test_a_document_longer_than_one_read(tmp_path, monkeypatch, chunk):
    # "é" and then "\r\n" straddle the end of the first chunk, "€" later
    # ones, and an invalid byte lies past the first
    monkeypatch.setattr(textprep, "_READ_CHUNK", chunk)
    head = "a" * (chunk - 1)
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "accent.txt").write_bytes(
        f"{head}é\r\n€\r€\r\nfin\r".encode())
    (tmp_path / "c" / "crlf.txt").write_bytes(f"{head}\r\nstade".encode())
    texts = [d.text for d in load_corpus(tmp_path)]
    assert texts == [f"{head}é\n€\n€\nfin\n", f"{head}\nstade"]
    assert _unlike_the_oracle(tmp_path) == []
    (tmp_path / "c" / "invalid.txt").write_bytes(f"{head}é{head}".encode()
                                                 + b"\xff")
    assert _unlike_the_oracle(tmp_path) == []
    with pytest.raises(CorpusError, match="invalid.txt: .* in position "
                       f"{2 * chunk}: invalid start byte"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("spelling", ["./corpus/", "corpus", ".", ""])
def test_messages_spell_paths_as_the_oracle(tmp_path, monkeypatch, spelling):
    monkeypatch.chdir(tmp_path)
    root = tmp_path / spelling
    for category in ("a", "b"):
        (root / category).mkdir(parents=True)
        (root / category / "same.txt").write_text("texte", encoding="utf-8")
    message = _loaded(load_corpus, spelling)
    assert message == _loaded(reference_load_corpus, spelling)
    a, b = (str(Path(spelling, c, "same.txt")) for c in "ab")
    assert message == (f"CorpusError: duplicate document id 'same.txt': "
                       f"{a} and {b}")
    (root / "b" / "same.txt").unlink()
    (root / "b" / "latin1.txt").write_bytes("l'\xe9quipe".encode("latin-1"))
    message = _loaded(load_corpus, spelling)
    assert message == _loaded(reference_load_corpus, spelling)
    assert message.startswith(
        f"CorpusError: cannot read document {Path(spelling, 'b', 'latin1.txt')}: "
        "'utf-8' codec can't decode byte 0xe9")
    assert (_loaded(load_documents, Path(spelling, "b"))
            == _loaded(reference_load_documents, Path(spelling, "b")))
    # a flat directory spelled "." names its files without "./"
    monkeypatch.chdir(root / "b")
    message = _loaded(load_documents, ".")
    assert message == _loaded(reference_load_documents, ".")
    assert message.startswith("CorpusError: cannot read document latin1.txt: ")
