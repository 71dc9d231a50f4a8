"""The class-ranking kernel that k-NN and activation share.

Both score each (intersection, size) class once. k-NN walks the classes
by their exact keys; activation ranks them through an integer rank table
cached on the model per (measure, document size). Each is checked
against the oracle that scores pair by pair.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_activate, reference_knn, reference_score_key
from latticecell import DocumentVector, activate, baseline_knn
from latticecell.bits import mask_from_indices
from latticecell.classify import (MEASURES, _exact_keys, _rank_table,
                                 _score_key)
from latticecell.compiler import CellularModel, ClassDistribution

RANKED = ("jaccard", "cosine", "dice")


@st.composite
def knn_cases(draw):
    """Training vectors drawn from a small pool, so that more draws than
    pool entries repeat a vector, plus one all-zero vector; a query; and
    a category list holding every training category."""
    size = draw(st.integers(1, 8))
    pool = draw(st.lists(st.integers(0, 2 ** size - 1), min_size=1,
                         max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=len(pool) + 1,
                         max_size=12))
    rows.insert(draw(st.integers(0, len(rows))), 0)
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=len(rows),
                           max_size=len(rows)))
    train = [DocumentVector(bits, size, label, f"d{n}")
             for n, (bits, label) in enumerate(zip(rows, labels))]
    query = draw(st.integers(0, 2 ** size - 1))
    categories = draw(st.permutations("ABCD"))
    return train, query, categories


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=knn_cases())
def test_knn_equals_the_sorting_oracle(case):
    train, query, categories = case
    size = train[0].size
    for bits in (query, 0):
        doc = DocumentVector(bits, size)
        for cats in (None, categories):
            for measure in MEASURES:
                for k in (1, 3, 5, len(train) + 2):
                    assert (baseline_knn(train, doc, k, measure, cats)
                            == reference_knn(train, doc, k, measure, cats)), \
                        (bits, cats, measure, k)


def _sign(a, b) -> int:
    return (a > b) - (a < b)


def test_exact_keys_order_ratios_like_fractions_beyond_float_precision():
    """Near ties whose floats are equal, equal ratios in other terms, and
    zero denominators, with denominators up to 2**70."""
    rnd = random.Random(7)
    ratios = [(0, 0), (0, 5), (1, 1), (2, 2)]
    for _ in range(60):
        den = rnd.randint(1, 2 ** rnd.randint(1, 70))
        num = rnd.randint(0, den)
        scale = rnd.randint(2, 2 ** 20)
        ratios += [(num, den), (num * scale, den * scale),
                   (num * scale + 1, den * scale),
                   (num * scale - 1, den * scale)]
    assert any(Fraction(*a) != Fraction(*b) and a[0] / a[1] == b[0] / b[1]
               for a, b in zip(ratios[5::4], ratios[6::4]))
    values = [Fraction(num, den) if den else Fraction(0) for num, den in ratios]
    keys = _exact_keys(ratios)
    for key, value in zip(keys, values):
        for other_key, other_value in zip(keys, values):
            assert _sign(key, other_key) == _sign(value, other_value)


@pytest.mark.parametrize("measure", RANKED)
def test_rank_table_orders_classes_like_their_keys(measure):
    sizes = range(13)
    for n1 in range(13):
        table = _rank_table(measure, n1, sizes)
        assert {n2: len(ranks) for n2, ranks in table.items()} == {
            n2: min(n1, n2) + 1 for n2 in sizes}
        classes = [(reference_score_key(inter, n1, n2, measure), rank)
                   for n2 in sizes for inter, rank in enumerate(table[n2])]
        for key, rank in classes:
            for other_key, other_rank in classes:
                assert _sign(rank, other_rank) == _sign(key, other_key), \
                    (measure, n1, key, other_key)


def _tied_model() -> CellularModel:
    """Intents of sizes 1, 2, 4, 5 and 6 over 8 terms. Different classes
    then share a key: jaccard (1, 1) and (2, 5) for a 3-term document,
    cosine (1, 1) and (2, 4) for any, dice (1, 2) and (2, 6) for 2 terms."""
    intents = [(0,), (4,), (0, 1), (2, 3), (0, 1, 2, 3), (1, 2, 5, 6),
               (0, 2, 4, 6, 7), (1, 3, 5, 6, 7), (0, 1, 2, 3, 4, 5),
               (2, 3, 4, 5, 6, 7)]
    n = len(intents)
    return CellularModel(
        ("A", "B"), tuple(f"f{i}" for i in range(2 * n)),
        tuple((k, mask_from_indices(attrs)) for k, attrs in enumerate(intents)),
        tuple((n + k, ClassDistribution.from_counts((k % 2, 1 - k % 2), 1))
              for k in range(n)),
        tuple(f"t{a}" for a in range(8)))


def test_one_model_object_activates_like_the_full_scan_across_calls():
    assert _score_key(1, 3, 1, "jaccard") == _score_key(2, 3, 5, "jaccard")
    assert _score_key(1, 3, 1, "cosine") == _score_key(2, 3, 4, "cosine")
    assert _score_key(1, 2, 2, "dice") == _score_key(2, 2, 6, "dice")
    model = _tied_model()
    rnd = random.Random(19)
    docs = [DocumentVector(mask_from_indices(rnd.sample(range(8), n1)), 8)
            for n1 in (3, 2, 5, 3, 1, 8, 2, 4, 3, 0, 6)]
    for doc in docs:
        for measure in MEASURES:
            for policy in ("max", "topk:2", "topk:4", "threshold:0.4"):
                assert (activate(model, doc, measure, policy)
                        == reference_activate(model, doc, measure, policy)), \
                    (doc, measure, policy)
    # one table per ranked measure and document size that reached ranking;
    # inner ranks by the intersection itself
    assert set(model.rank_tables) == {
        (measure, doc.bits.bit_count()) for measure in RANKED
        for doc in docs if doc.bits}
