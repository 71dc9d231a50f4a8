"""The class kernel that k-NN and activation share.

Both index their masks (training vectors or intents) once, find the
(intersection, size) classes a query touches, and rank each class once
by its exact key, classes of equal key merged. Each is checked against
the oracle that scores pair by pair.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (reference_activate, reference_knn, reference_score_key,
                     reference_transpose)
from latticecell import DocumentVector, activate
from latticecell.bits import mask_from_indices
from latticecell.classify import MEASURES, _exact_keys, _ranked
from latticecell.compiler import CellularModel, ClassDistribution, index_masks
from latticecell.evaluate import KNN_K, KNN_MEASURE, _knn_predict
from strategies import labeled_vectors


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=labeled_vectors())
def test_knn_equals_the_sorting_oracle(case):
    """k-NN as ``run_experiment`` trains it, on an index of the training
    vectors' columns, for the drawn query and the all-zero one, with the
    categories in both orders."""
    train, query, categories = case
    size = train[0].size
    masks = [v.bits for v in train]
    index = index_masks(masks, reference_transpose(masks, size))
    labels = [v.category for v in train]
    for bits in (query, 0):
        doc = DocumentVector(bits, size)
        for cats in (categories, categories[::-1]):
            assert (_knn_predict(index, labels, cats, doc)
                    == reference_knn(train, doc, KNN_K, KNN_MEASURE, cats)), \
                (bits, cats)


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


@pytest.mark.parametrize("measure", MEASURES)
def test_ranked_orders_classes_like_their_keys(measure):
    """Every class for sizes up to 12, one member bit each: the groups
    come in descending key order, and a group holds exactly the classes of
    one key."""
    sizes = range(13)
    for n1 in range(13):
        pairs = [(inter, n2) for n2 in sizes for inter in range(min(n1, n2) + 1)]
        classes = [(inter, n2, 1 << k) for k, (inter, n2) in enumerate(pairs)]
        groups = _ranked(classes, n1, measure)
        key_of = {members: reference_score_key(inter, n1, n2, measure)
                  for inter, n2, members in classes}
        group_keys = []
        for group in groups:
            keys = {key for members, key in key_of.items() if members & group}
            assert len(keys) == 1, (measure, n1, keys)
            group_keys.append(keys.pop())
        assert group_keys == sorted(set(key_of.values()), reverse=True)
        assert sum(groups) == sum(key_of), (measure, n1)


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
    for measure, a, b in (("jaccard", (1, 3, 1), (2, 3, 5)),
                          ("cosine", (1, 3, 1), (2, 3, 4)),
                          ("dice", (1, 2, 2), (2, 2, 6))):
        assert (reference_score_key(*a, measure)
                == reference_score_key(*b, measure))
        inter, n1, n2 = a
        other_inter, _, other_n2 = b
        assert _ranked([(inter, n2, 1), (other_inter, other_n2, 2)], n1,
                       measure) == [3]
    model = _tied_model()
    before = set(vars(model))
    rnd = random.Random(19)
    docs = [DocumentVector(mask_from_indices(rnd.sample(range(8), n1)), 8)
            for n1 in (3, 2, 5, 3, 1, 8, 2, 4, 3, 0, 6)]
    for doc in docs:
        for measure in MEASURES:
            for policy in ("max", "topk:2", "topk:4", "threshold:0.4"):
                assert (activate(model, doc, measure, policy)
                        == reference_activate(model, doc, measure, policy)), \
                    (doc, measure, policy)
    # activation caches the model's rule index and nothing else
    assert set(vars(model)) - before == {"rule_index"}
