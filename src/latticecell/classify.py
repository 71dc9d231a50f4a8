"""Similarity-driven activation, inference, and majority vote.

A document vector is scored against the intent facts of the model; the
most similar intents are activated (EF = 1), and the class distributions
of the rules that fire at the engine's fixpoint are averaged. The argmax
category wins, ties broken by category order. No activation yields an
explicitly unclassifiable prediction. No rule of a model concludes a
premise, so the fixpoint is one step: the rules of the activated facts.
``classify`` reads them from the model and runs the engine only to trace
it.

Activation does not score every intent. The rule index holds, per term,
the bitset of the rules whose intent has it. The document's terms' bitsets
are added into bit-sliced counters, and the rules they hit are split into
classes of one intersection size and one intent size, each scored once.
Inner ranks a class by its intersection size; Jaccard, Cosine and Dice by
an exact integer key of the score's ratio, so equal scores tie exactly,
and ``threshold:T`` compares each class's score with T.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce
from itertools import chain
from operator import or_

from .bits import bit_sliced_counts, iter_bits, split_by_count
from .compiler import CellularModel, ClassDistribution, RuleIndex
from .engine import run_inference, set_facts
from .errors import DimensionError, EmptyInputError
from .textprep import DocumentVector
from .value import Value

MEASURES = ("jaccard", "cosine", "dice", "inner")


def _score_ratio(inter: int, n1: int, n2: int, measure: str) -> tuple[int, int]:
    """Each measure's one formula, as a numerator over a denominator that
    is 0 only where the numerator is (cosine's squared, so that it stays
    rational)."""
    if measure == "inner":
        return inter, 1
    if measure == "jaccard":
        return inter, n1 + n2 - inter
    if measure == "dice":
        return 2 * inter, n1 + n2
    if measure == "cosine":
        return inter * inter, n1 * n2
    raise ValueError(f"unknown similarity measure {measure!r}")


def _score_value(inter: int, n1: int, n2: int, measure: str):
    """The measure's value: the count for inner, the ratio's float for
    jaccard and dice (0.0 over an empty denominator); cosine's ratio is
    squared, so its float has a line of its own."""
    if measure == "cosine":
        return inter / math.sqrt(n1 * n2) if n1 * n2 else 0.0
    num, den = _score_ratio(inter, n1, n2, measure)
    if measure == "inner":
        return num
    return num / den if den else 0.0


def parse_activation(policy: str) -> tuple[str, int | float | None]:
    """Parse 'max', 'topk:K' (K >= 1), or 'threshold:T' (T finite)."""
    if policy == "max":
        return "max", None
    kind, sep, arg = policy.partition(":")
    if kind == "topk" and sep:
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"topk needs an integer K, not {arg!r}") from None
        if k < 1:
            raise ValueError("topk needs K >= 1")
        return "topk", k
    if kind == "threshold" and sep:
        try:
            t = float(arg)
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise ValueError(f"threshold needs a finite T, not {arg!r}")
        return "threshold", t
    raise ValueError(f"unknown activation policy {policy!r}; "
                     "expected max, topk:K, or threshold:T")


def _exact_keys(ratios: Sequence[tuple[int, int]]) -> list[int]:
    """Ints that compare exactly as the ratios ``num / den`` do, a zero
    denominator reading 0: ``num * 2**2b // den`` for denominators below
    ``2**b``. Two such ratios that differ, differ by more than ``2**-2b``,
    so their scaled floors differ too."""
    shift = 2 * max((den for _, den in ratios), default=0).bit_length()
    return [(num << shift) // den if den else 0 for num, den in ratios]


def _classes(index: RuleIndex, bits: int) -> list[tuple[int, int, int]]:
    """``(|bits ∩ mask|, |mask|, members)`` for each class of the indexed
    masks sharing both counts, positive intersections only, from the
    bit-sliced counts of the columns of the terms in ``bits``."""
    slices = bit_sliced_counts(map(index.columns.__getitem__, iter_bits(bits)))
    return [(inter, n2, hits & members)
            for inter, hits in split_by_count(reduce(or_, slices, 0), slices)
            for n2, members in index.sizes if hits & members]


def _ranked(classes: Sequence[tuple[int, int, int]], n1: int,
            measure: str) -> list[int]:
    """The members of ``_classes`` for a query of ``n1`` terms, best score
    first, classes of equal score merged. Inner keys a class on its
    intersection, the other measures on the exact key of its ratio."""
    if measure == "inner":
        keys = [inter for inter, _, _ in classes]
    else:
        keys = _exact_keys([_score_ratio(inter, n1, n2, measure)
                            for inter, n2, _ in classes])
    by_key: dict[int, int] = {}
    for key, (_, _, members) in zip(keys, classes):
        by_key[key] = by_key.get(key, 0) | members
    return [by_key[key] for key in sorted(by_key, reverse=True)]


def activate(model: CellularModel, doc: DocumentVector, measure: str = "inner",
             policy: str = "max") -> tuple[int, ...]:
    """Intent fact indices to establish, per the activation policy.

    max: every intent achieving the (positive) maximal score. topk:K: the K
    best by (score desc, intent order), positive scores only. threshold:T:
    every intent scoring at least T (and above zero). May be empty. Each
    fact is listed once, also where rules share it as their premise: max
    and threshold in the order of each fact's first chosen rule, topk in
    fact order.
    """
    kind, arg = parse_activation(policy)
    if doc.size != len(model.vocabulary):
        raise DimensionError(f"document vector has {doc.size} bits, model "
                             f"vocabulary has {len(model.vocabulary)} terms")
    if measure not in MEASURES:
        raise ValueError(f"unknown similarity measure {measure!r}")
    classes = _classes(model.rule_index, doc.bits)
    if not classes:
        return ()
    n1 = doc.bits.bit_count()
    if kind == "threshold":
        # threshold compares against the true measure value
        chosen = 0
        for inter, n2, rules in classes:
            if _score_value(inter, n1, n2, measure) >= arg:
                chosen |= rules
        return _facts(model, chosen)
    groups = _ranked(classes, n1, measure)
    if kind == "max":
        return _facts(model, groups[0])
    top: set[int] = set()
    for rules in groups:
        tied = sorted({model.intent_facts[k][0]
                       for k in iter_bits(rules)}.difference(top))
        top.update(tied[:arg - len(top)])
        if len(top) == arg:
            break
    return tuple(sorted(top))


def _facts(model: CellularModel, rules: int) -> tuple[int, ...]:
    """The premise facts of the rules in the bitset ``rules``, each once,
    in the order of its first rule."""
    return tuple(dict.fromkeys([model.intent_facts[k][0]
                                for k in iter_bits(rules)]))


class Prediction(Value):
    """Outcome of classifying one document vector.

    ``category`` is None when the document is unclassifiable (no intent
    activated).
    """

    _fields = ("category", "distribution", "fired_vertices",
               "activated_intents")

    def __init__(self, category: str | None,
                 distribution: ClassDistribution | None,
                 fired_vertices: tuple[int, ...],
                 activated_intents: tuple[int, ...]) -> None:
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "distribution", distribution)
        object.__setattr__(self, "fired_vertices", fired_vertices)
        object.__setattr__(self, "activated_intents", activated_intents)


def vote(distributions: Sequence[ClassDistribution],
         categories: Sequence[str]) -> tuple[str, ClassDistribution]:
    """Componentwise mean; argmax category, ties by category order."""
    if not distributions:
        raise EmptyInputError("vote over zero distributions")
    mean = ClassDistribution.mean(distributions)
    if len(mean.counts) != len(categories):
        raise DimensionError("distribution width does not match categories")
    return categories[mean.argmax()], mean


def classify(model: CellularModel, doc: DocumentVector, measure: str = "inner",
             policy: str = "max",
             trace: list[str] | None = None) -> Prediction:
    """Activate, take the engine's fixpoint, and vote over the rules that
    fired (the engine's ER at the fixpoint), in rule order.

    A rule's one premise is an intent fact and no intent fact is a
    conclusion, so the engine fires exactly the rules of the activated
    facts in its first cycle and changes nothing in its second; the
    fixpoint is read from ``model.premise_rules`` without running it. With
    a ``trace`` list the engine runs, and a snapshot of both layers is
    appended before the run and after each cycle.

    Deterministic for identical inputs; the shared model is never mutated.
    """
    activated = activate(model, doc, measure, policy)
    if not activated:
        return Prediction(None, None, (), ())
    if trace is None:
        # the facts are distinct and each rule has one premise, so the
        # facts' rules are too
        rules = sorted(chain.from_iterable(
            map(model.premise_rules.__getitem__, activated)))
    else:
        engine = model.fresh_engine()
        set_facts(engine, activated)
        run_inference(engine, trace)
        rules = iter_bits(engine.er)
    # an activated fact is some rule's premise, so some rule fired
    fired, dists = zip(*map(model.extent_facts.__getitem__, rules))
    category, mean = vote(dists, model.categories)
    return Prediction(category, mean, fired, activated)
