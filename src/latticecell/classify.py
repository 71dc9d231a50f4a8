"""Similarity-driven activation, inference, and majority vote.

A document vector is scored against the intent facts of the model; the
most similar intents are activated (EF = 1), the engine runs to its
fixpoint, and the class distributions of the rules that fired are
averaged. The argmax category wins, ties broken by category order. No
activation or no fired rule yields an explicitly unclassifiable
prediction.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import islice

from .bits import iter_bits
from .compiler import CellularModel, ClassDistribution
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


def _score_key(inter: int, n1: int, n2: int, measure: str):
    """The measure's exact, order-preserving ranking key: inner's count,
    the others' ratio as a Fraction (0 over an empty denominator)."""
    num, den = _score_ratio(inter, n1, n2, measure)
    if measure == "inner":
        return num
    return Fraction(num, den) if den else Fraction(0)


def _score_value(inter: int, n1: int, n2: int, measure: str):
    """The measure's value: the key itself for inner, its float for jaccard
    and dice; cosine's key is squared, so its float has a line of its own."""
    if measure == "cosine":
        return inter / math.sqrt(n1 * n2) if n1 * n2 else 0.0
    key = _score_key(inter, n1, n2, measure)
    # a Fraction's float rounds the same rational as int true division
    return key if measure == "inner" else float(key)


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


def _intersections(columns: Sequence[int], bits: int) -> list[tuple[int, int]]:
    """``(|doc ∩ intent|, rules with that count)`` for each positive count.

    The present terms' rule columns are added into bit-sliced counters
    (O'Neil & Quass): ``slices[b]`` holds bit b of every rule's count. The
    rules are then split by those bits, most significant first.
    """
    slices: list[int] = []
    for a in iter_bits(bits):
        carry = columns[a]
        b = 0
        while carry:
            if b == len(slices):
                slices.append(carry)
                break
            s = slices[b]
            slices[b] = s ^ carry
            carry &= s
            b += 1
    hit = 0
    for s in slices:
        hit |= s
    groups = [(0, hit)] if hit else []
    for b in reversed(range(len(slices))):
        s = slices[b]
        split = []
        for count, rules in groups:
            high = rules & s
            if high:
                split.append((count | 1 << b, high))
            if high != rules:
                split.append((count, rules ^ high))
        groups = split
    return groups


def _best_first(classes: Iterable[tuple[int, int]]) -> list[int]:
    """The masks of ``(key, mask)`` pairs, those with equal keys merged,
    best key first."""
    by_key: dict = {}
    for key, mask in classes:
        by_key[key] = by_key.get(key, 0) | mask
    return [by_key[key] for key in sorted(by_key, reverse=True)]


def _exact_keys(ratios: Sequence[tuple[int, int]]) -> list[int]:
    """Ints that compare exactly as the ratios ``num / den`` do, a zero
    denominator reading 0: ``num * 2**2b // den`` for denominators below
    ``2**b``. Two such ratios that differ, differ by more than ``2**-2b``,
    so their scaled floors differ too."""
    shift = 2 * max((den for _, den in ratios), default=0).bit_length()
    return [(num << shift) // den if den else 0 for num, den in ratios]


def _rank_table(measure: str, n1: int,
                sizes: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Per size n2, the rank of each intersection ``0..min(n1, n2)`` among
    every class of the table: ranks compare exactly as the classes'
    ``_score_key``s do, and equal keys share a rank."""
    rows = [(n2, min(n1, n2) + 1) for n2 in sizes]
    keys = _exact_keys([_score_ratio(inter, n1, n2, measure)
                        for n2, width in rows for inter in range(width)])
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    ranks = map(rank.__getitem__, keys)
    return {n2: tuple(islice(ranks, width)) for n2, width in rows}


def activate(model: CellularModel, doc: DocumentVector, measure: str = "inner",
             policy: str = "max") -> tuple[int, ...]:
    """Intent fact indices to establish, per the activation policy.

    max: every intent achieving the (positive) maximal score. topk:K: the K
    best by (score desc, intent order), positive scores only. threshold:T:
    every intent scoring at least T (and above zero). May be empty.

    Rules with the same intersection and intent size share a score, so it
    is ranked once per such class: inner by the intersection itself, the
    other measures by the model's cached rank table for this measure and
    document size. max and threshold list facts in rule order, topk in
    fact order.
    """
    kind, arg = parse_activation(policy)
    if doc.size != len(model.vocabulary):
        raise DimensionError(f"document vector has {doc.size} bits, model "
                             f"vocabulary has {len(model.vocabulary)} terms")
    if measure not in MEASURES:
        raise ValueError(f"unknown similarity measure {measure!r}")
    index = model.rule_index
    n1 = doc.bits.bit_count()
    classes = [(inter, n2, hits & rules)
               for inter, hits in _intersections(index.columns, doc.bits)
               for n2, rules in index.sizes if hits & rules]
    if not classes:
        return ()
    if kind == "threshold":
        # threshold compares against the true measure value
        chosen = 0
        for inter, n2, rules in classes:
            if _score_value(inter, n1, n2, measure) >= arg:
                chosen |= rules
        return tuple(model.intent_facts[k][0] for k in iter_bits(chosen))
    if measure == "inner":
        groups = _best_first((inter, rules) for inter, _, rules in classes)
    else:
        table = model.rank_tables.get((measure, n1))
        if table is None:
            table = model.rank_tables[measure, n1] = _rank_table(
                measure, n1, (n2 for n2, _ in index.sizes))
        groups = _best_first((table[n2][inter], rules)
                             for inter, n2, rules in classes)
    if kind == "max":
        return tuple(model.intent_facts[k][0] for k in iter_bits(groups[0]))
    top: list[int] = []
    for rules in groups:
        tied = sorted(model.intent_facts[k][0] for k in iter_bits(rules))
        top.extend(tied[:arg - len(top)])
        if len(top) == arg:
            break
    return tuple(sorted(top))


class Prediction(Value):
    """Outcome of classifying one document vector.

    ``category`` is None when the document is unclassifiable (no intent
    activated, or no rule fired).
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

    @property
    def unclassifiable(self) -> bool:
        return self.category is None


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
    """Activate, run the engine to fixpoint, and vote over the rules that
    fired (the engine's ER at the fixpoint), in rule order.

    Deterministic for identical inputs; the shared model is never mutated.
    """
    activated = activate(model, doc, measure, policy)
    if not activated:
        return Prediction(None, None, (), ())
    engine = model.fresh_engine()
    set_facts(engine, activated)
    run_inference(engine, trace)
    if not engine.er:
        return Prediction(None, None, (), activated)
    fired, dists = zip(*(model.extent_facts[k] for k in iter_bits(engine.er)))
    category, mean = vote(dists, model.categories)
    return Prediction(category, mean, fired, activated)
