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
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .bits import iter_bits
from .compiler import CellularModel, ClassDistribution
from .engine import run_inference, set_facts
from .errors import DimensionError, EmptyInputError
from .textprep import DocumentVector

MEASURES = ("jaccard", "cosine", "dice", "inner")


def _score_key(inter: int, n1: int, n2: int, measure: str):
    """Each measure's one formula, as an exact, order-preserving ranking
    key (cosine's squared, so that it stays rational)."""
    if measure == "inner":
        return inter
    if measure == "jaccard":
        union = n1 + n2 - inter
        return Fraction(inter, union) if union else Fraction(0)
    if measure == "dice":
        denom = n1 + n2
        return Fraction(2 * inter, denom) if denom else Fraction(0)
    if measure == "cosine":
        denom = n1 * n2
        return Fraction(inter * inter, denom) if denom else Fraction(0)
    raise ValueError(f"unknown similarity measure {measure!r}")


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
        k = int(arg)
        if k < 1:
            raise ValueError("topk needs K >= 1")
        return "topk", k
    if kind == "threshold" and sep:
        if not math.isfinite(t := float(arg)):
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


def activate(model: CellularModel, doc: DocumentVector, measure: str = "inner",
             policy: str = "max") -> tuple[int, ...]:
    """Intent fact indices to establish, per the activation policy.

    max: every intent achieving the (positive) maximal score. topk:K: the K
    best by (score desc, intent order), positive scores only. threshold:T:
    every intent scoring at least T (and above zero). May be empty.

    Rules with the same intersection and intent size share a score, so it
    is computed once per such class; max and threshold list facts in rule
    order, topk in fact order.
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
    if kind == "threshold":
        # threshold compares against the true measure value
        chosen = 0
        for inter, n2, rules in classes:
            if _score_value(inter, n1, n2, measure) >= arg:
                chosen |= rules
        return tuple(model.intent_facts[k][0] for k in iter_bits(chosen))
    by_key: dict = {}
    for inter, n2, rules in classes:
        key = _score_key(inter, n1, n2, measure)
        by_key[key] = by_key.get(key, 0) | rules
    if not by_key:
        return ()
    if kind == "max":
        best = by_key[max(by_key)]
        return tuple(model.intent_facts[k][0] for k in iter_bits(best))
    top: list[int] = []
    for key in sorted(by_key, reverse=True):
        tied = sorted(model.intent_facts[k][0] for k in iter_bits(by_key[key]))
        top.extend(tied[:arg - len(top)])
        if len(top) == arg:
            break
    return tuple(sorted(top))


@dataclass(frozen=True)
class Prediction:
    """Outcome of classifying one document vector.

    ``category`` is None when the document is unclassifiable (no intent
    activated, or no rule fired).
    """

    category: str | None
    distribution: ClassDistribution | None
    fired_vertices: tuple[int, ...]
    activated_intents: tuple[int, ...]

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
