"""Compile a concept lattice into a cellular classification model.

Every concept with a nonempty intent and a nonempty extent becomes one
rule linking two fact cells: an intent fact carrying the concept's
attribute set and an extent fact carrying the class distribution of the
concept's documents. The top and bottom of the lattice (empty intent or
empty extent) are skipped. Classification later activates intent facts by
similarity, runs the engine, and votes over the established extent facts.

A class distribution is exact: integer per-category counts over a common
total. Compilation counts an extent's objects per category by popcount,
the vote averages over the lcm of the totals, and the model file stores
each value as a reduced ``[numerator, denominator]`` pair.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .bits import bit_indices, mask_from_indices, transpose
from .context import Concept
from .engine import EngineState
from .errors import (EmptyInputError, FormatError, LabelingError,
                     require_names)
from .lattice import ConceptLattice


@dataclass(frozen=True, init=False)
class ClassDistribution:
    """Exact per-category fractions ``counts[i] / total``, each in [0, 1],
    summing to 1.

    Stored reduced (the counts and the total share no common factor), so
    equal distributions compare equal. Built from exact fractions, or from
    integer counts with ``from_counts``.
    """

    counts: tuple[int, ...]
    total: int

    def __init__(self, fractions: Iterable) -> None:
        fracs = [Fraction(f) for f in fractions]
        if any(f < 0 or f > 1 for f in fracs):
            raise ValueError("fractions must lie in [0, 1]")
        if fracs and sum(fracs) != 1:
            raise ValueError(f"fractions sum to {sum(fracs)}, expected 1")
        total = math.lcm(*(f.denominator for f in fracs))
        self._store([f.numerator * (total // f.denominator) for f in fracs],
                    total)

    @classmethod
    def from_counts(cls, counts: Sequence[int],
                    total: int) -> "ClassDistribution":
        """``counts[i] / total`` per category; the counts are nonnegative
        and sum to ``total``."""
        if total <= 0 or min(counts, default=0) < 0 or (
                counts and sum(counts) != total):
            raise ValueError(f"counts {tuple(counts)} are not a distribution "
                             f"over {total}")
        dist = cls.__new__(cls)
        dist._store(counts, total)
        return dist

    def _store(self, counts: Sequence[int], total: int) -> None:
        g = math.gcd(total, *counts)
        if g != 1:
            counts = [c // g for c in counts]
        object.__setattr__(self, "counts", tuple(counts))
        object.__setattr__(self, "total", total // g)

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        """The per-category fractions as exact rationals."""
        return tuple(Fraction(c, self.total) for c in self.counts)

    def argmax(self) -> int:
        """Index of the largest fraction; first wins on ties."""
        counts = self.counts
        return counts.index(max(counts)) if counts else 0

    def percents(self) -> tuple[int, ...]:
        """Rounded integer percents (half rounds up), for display only."""
        t = self.total
        return tuple((200 * c + t) // (2 * t) for c in self.counts)

    @staticmethod
    def mean(distributions: Sequence["ClassDistribution"]) -> "ClassDistribution":
        """Unweighted componentwise arithmetic mean, summed over the lcm of
        the totals."""
        if not distributions:
            raise EmptyInputError("mean of zero distributions is undefined")
        width = len(distributions[0].counts)
        if any(len(d.counts) != width for d in distributions):
            raise ValueError("distributions must share the category list")
        common = math.lcm(*(d.total for d in distributions))
        scaled = [[c * (common // d.total) for c in d.counts]
                  for d in distributions]
        return ClassDistribution.from_counts(
            [sum(column) for column in zip(*scaled)],
            common * len(distributions))


def distribution_of(extent: int, labels: Sequence[str],
                    categories: Sequence[str]) -> ClassDistribution:
    """Class distribution of the objects in ``extent``.

    ``labels[o]`` is the category of object o.
    """
    if extent == 0:
        raise EmptyInputError("distribution of an empty extent is undefined")
    order = {c: i for i, c in enumerate(categories)}
    counts = [0] * len(categories)
    total = 0
    for o in bit_indices(extent):
        if o >= len(labels) or labels[o] is None:
            raise LabelingError(f"object {o} is unlabeled")
        cat = labels[o]
        if cat not in order:
            raise LabelingError(f"object {o} has unknown category {cat!r}")
        counts[order[cat]] += 1
        total += 1
    return ClassDistribution.from_counts(counts, total)


class RuleIndex(NamedTuple):
    """Per-model bitsets over rule positions (bit k is rule k).

    Classification reads these so that its cost per document follows the
    rules the document touches, not the rule count.
    """

    columns: tuple[int, ...]  # per attribute: rules whose intent holds it
    sizes: tuple[tuple[int, int], ...]  # (|intent|, its rules), ascending
    concluding: tuple[int, ...]  # per fact: rules concluding it


@dataclass(frozen=True)
class CellularModel:
    """Compiled rules plus the concept data classification needs.

    ``intent_facts`` pairs each intent fact index with its attribute mask
    over ``vocabulary``; ``extent_facts`` pairs each extent fact index with
    its class distribution (integer counts over a total). Fact indices point into ``fact_labels``. Rule k,
    labeled ``R{k+1}``, links intent fact k (its premise) to extent fact k
    (its conclusion); these pairs are the only statement of the wiring, and
    ``engine_template`` is derived from them. Immutable; clone the engine
    per classification via ``fresh_engine``.
    """

    categories: tuple[str, ...]
    fact_labels: tuple[str, ...]
    intent_facts: tuple[tuple[int, int], ...]
    extent_facts: tuple[tuple[int, ClassDistribution], ...]
    vocabulary: tuple[str, ...]
    engine_template: EngineState = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.intent_facts) != len(self.extent_facts):
            raise ValueError("one rule per intent/extent fact pair required")
        object.__setattr__(self, "engine_template", EngineState(
            self.fact_labels,
            [f"R{k + 1}" for k in range(len(self.intent_facts))],
            [1 << i for i, _ in self.intent_facts],
            [1 << e for e, _ in self.extent_facts]))

    def fresh_engine(self) -> EngineState:
        return self.engine_template.copy()

    @cached_property
    def rule_index(self) -> RuleIndex:
        """The bitsets classification reads, derived on first read."""
        # cached_property writes the instance __dict__ directly, which the
        # frozen dataclass's __setattr__ does not intercept
        sizes: dict[int, int] = {}
        for k, (_, mask) in enumerate(self.intent_facts):
            n = mask.bit_count()
            sizes[n] = sizes.get(n, 0) | 1 << k
        columns = transpose((mask for _, mask in self.intent_facts),
                            len(self.vocabulary))
        concluding = transpose((1 << fact for fact, _ in self.extent_facts),
                               len(self.fact_labels))
        return RuleIndex(tuple(columns), tuple(sorted(sizes.items())),
                         tuple(concluding))


def _short_category_names(categories: Sequence[str]) -> list[str]:
    initials = [c[:1].upper() if c else "?" for c in categories]
    if len(set(initials)) != len(initials):
        return list(categories)
    return initials


def _extent_label(vertex: int, dist: ClassDistribution,
                  shorts: Sequence[str]) -> str:
    parts = ", ".join(f"({p}% {s})" for p, s in zip(dist.percents(), shorts))
    return f"[S{vertex} {parts}]"


def _intent_label(intent: int, vocabulary: Sequence[str]) -> str:
    return "[" + ", ".join(vocabulary[a] for a in bit_indices(intent)) + "]"


def compile_model(lattice: ConceptLattice, labels: Mapping[str, str] | Sequence[str],
                  categories: Sequence[str]) -> CellularModel:
    """Translate a lattice plus per-object labels into a CellularModel.

    ``labels`` maps object id to category (or is a sequence aligned with
    the context's objects). Concepts with an empty intent or empty extent
    contribute no cells.
    """
    ctx = lattice.context
    if isinstance(labels, Mapping):
        missing = [oid for oid in ctx.object_ids if oid not in labels]
        if missing:
            raise LabelingError(f"{missing[0]} unlabeled")
        aligned = [labels[oid] for oid in ctx.object_ids]
    else:
        if len(labels) != ctx.n_objects:
            raise LabelingError(f"{len(labels)} labels for {ctx.n_objects} objects")
        aligned = list(labels)
    # one object bitset per category, so a rule's counts are popcounts of
    # its extent, and one of the objects no category counts
    order = {c: i for i, c in enumerate(categories)}
    category_masks = [0] * len(categories)
    uncounted = 0
    for o, cat in enumerate(aligned):
        if cat is None or cat not in order:
            uncounted |= 1 << o
        else:
            category_masks[order[cat]] |= 1 << o
    shorts = _short_category_names(categories)

    fact_labels: list[str] = []
    intent_facts = []
    extent_facts = []
    for vertex, concept in enumerate(lattice.concepts):
        extent = concept.extent
        if concept.intent == 0 or extent == 0:
            continue
        if extent & uncounted:
            distribution_of(extent, aligned, categories)  # raises LabelingError
        dist = ClassDistribution.from_counts(
            [(extent & mask).bit_count() for mask in category_masks],
            extent.bit_count())
        intent_facts.append((len(fact_labels), concept.intent))
        extent_facts.append((len(fact_labels) + 1, dist))
        fact_labels.append(_intent_label(concept.intent, ctx.attribute_names))
        fact_labels.append(_extent_label(vertex, dist, shorts))
    return CellularModel(tuple(categories), tuple(fact_labels),
                         tuple(intent_facts), tuple(extent_facts),
                         ctx.attribute_names)


# Reference model used by the worked example: six concept vertices over the
# demo vocabulary, with the distributions stored as the printed integer
# percentages (counts over 100) so votes over them come out exactly.
_FIXTURE_VOCABULARY = ("Stade", "Pays", "Personnage", "Ministre", "Puissance",
                       "Visage")
_FIXTURE_CATEGORIES = ("Sport", "Economie", "Television")
_FIXTURE_VERTICES = (
    # (intent attribute names in label order, vertex tag, percent triple)
    (("Pays", "Stade"), "S0", (100, 0, 0)),
    (("Visage",), "S3", (50, 50, 0)),
    (("Puissance", "Ministre"), "S4", (0, 67, 33)),
    (("Visage", "Puissance", "Ministre"), "S5", (0, 100, 0)),
    (("Stade",), "S6", (67, 0, 33)),
    (("Personnage",), "S7", (0, 0, 100)),
)


def load_fixture_model() -> CellularModel:
    """The bundled reference model (12 fact cells, 6 rules).

    Kept verbatim, including its printed percentage distributions and cell
    labels; independent of the bundled demo context.
    """
    vocab_index = {name: i for i, name in enumerate(_FIXTURE_VOCABULARY)}
    shorts = _short_category_names(_FIXTURE_CATEGORIES)
    fact_labels: list[str] = []
    intent_facts = []
    extent_facts = []
    for k, (names, tag, percents) in enumerate(_FIXTURE_VERTICES):
        intent = mask_from_indices(vocab_index[n] for n in names)
        dist = ClassDistribution.from_counts(percents, 100)
        intent_facts.append((2 * k, intent))
        extent_facts.append((2 * k + 1, dist))
        fact_labels.append("[" + ", ".join(names) + "]")
        parts = ", ".join(f"({p}% {s})" for p, s in zip(percents, shorts))
        fact_labels.append(f"[{tag} {parts}]")
    return CellularModel(_FIXTURE_CATEGORIES, tuple(fact_labels),
                         tuple(intent_facts), tuple(extent_facts),
                         _FIXTURE_VOCABULARY)


def model_to_dict(model: CellularModel) -> dict:
    intent_by_idx = dict(model.intent_facts)
    extent_by_idx = dict(model.extent_facts)
    facts = []
    for i, label in enumerate(model.fact_labels):
        if i in intent_by_idx:
            facts.append({"label": label, "kind": "intent",
                          "attributes": list(bit_indices(intent_by_idx[i]))})
        else:
            dist = extent_by_idx[i]
            t = dist.total
            facts.append({"label": label, "kind": "extent",
                          "distribution": [[c // g, t // g] for c in dist.counts
                                           for g in (math.gcd(c, t),)]})
    rules = [{"premise": i, "conclusion": e}
             for (i, _), (e, _) in zip(model.intent_facts, model.extent_facts)]
    return {
        "categories": list(model.categories),
        "vocabulary": list(model.vocabulary),
        "facts": facts,
        "rules": rules,
    }


def _distribution_from_pairs(i: int, pairs, n_categories: int) -> ClassDistribution:
    """Fact ``i``'s distribution from its ``[numerator, denominator]`` pairs.

    A pair need not be reduced, and its denominator may be negative. Each
    value must lie in [0, 1], and the values must sum to 1.
    """
    if len(pairs) != n_categories:
        raise FormatError(f"fact {i}: {len(pairs)} fractions for "
                          f"{n_categories} categories")
    numerators, denominators = [], []
    for pair in pairs:
        try:
            n, d = pair
        except ValueError as exc:  # not a pair
            raise FormatError(f"fact {i}: {exc}") from exc
        if not (isinstance(n, int) and isinstance(d, int)):
            raise FormatError(f"fact {i}: fraction {pair!r} is not a pair "
                              "of integers")
        if d <= 0:
            if d == 0:
                raise FormatError(f"fact {i}: zero denominator")
            n, d = -n, -d
        if not 0 <= n <= d:
            raise FormatError(f"fact {i}: fractions must lie in [0, 1]")
        numerators.append(n)
        denominators.append(d)
    total = math.lcm(*denominators)
    counts = [n * (total // d) for n, d in zip(numerators, denominators)]
    try:
        return ClassDistribution.from_counts(counts, total)
    except ValueError as exc:  # the only check left: the sum
        raise FormatError(f"fact {i}: fractions sum to "
                          f"{Fraction(sum(counts), total)}, expected 1") from exc


def model_from_dict(data: dict) -> CellularModel:
    try:
        categories, vocabulary, raw_facts, raw_rules = (
            data[key] for key in ("categories", "vocabulary", "facts", "rules"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed model document: {exc}") from exc
    require_names("categories", categories)
    require_names("vocabulary", vocabulary)
    fact_labels = []
    intent_mask_by_idx: dict[int, int] = {}
    dist_by_idx: dict[int, ClassDistribution] = {}
    dist_by_pairs: dict[tuple, ClassDistribution] = {}
    try:
        for i, entry in enumerate(raw_facts):
            fact_labels.append(entry["label"])
            if entry["kind"] == "intent":
                attributes = list(entry["attributes"])
                for a in attributes:
                    if not 0 <= a < len(vocabulary):
                        raise FormatError(
                            f"fact {i}: attribute {a} outside the "
                            f"{len(vocabulary)}-term vocabulary")
                intent_mask_by_idx[i] = mask_from_indices(attributes)
            elif entry["kind"] == "extent":
                # rules repeat a few distinct distributions, so each is
                # parsed once; a float key equals an int key, so a reused
                # distribution must come from integer pairs
                pairs = entry["distribution"]
                key = tuple(map(tuple, pairs))
                dist = dist_by_pairs.get(key)
                if dist is None or not all(type(n) is int and type(d) is int
                                           for n, d in key):
                    dist = dist_by_pairs[key] = _distribution_from_pairs(
                        i, pairs, len(categories))
                dist_by_idx[i] = dist
            else:
                raise FormatError(f"fact {i}: unknown kind {entry['kind']!r}")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed fact entry: {exc}") from exc
    intent_facts = []
    extent_facts = []
    try:
        for k, rule in enumerate(raw_rules):
            p, c = rule["premise"], rule["conclusion"]
            # bool is an int subclass, and int() would truncate a float
            if type(p) is not int or type(c) is not int:
                raise FormatError(f"malformed rule entry: rule {k}: premise "
                                  f"{p!r} and conclusion {c!r} must be "
                                  f"integers")
            if p not in intent_mask_by_idx or c not in dist_by_idx:
                raise FormatError(f"rule {k} wiring does not match fact kinds")
            intent_facts.append((p, intent_mask_by_idx[p]))
            extent_facts.append((c, dist_by_idx[c]))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed rule entry: {exc}") from exc
    # a model knows a fact's kind only from the rules that join it, so a
    # fact no rule joins could not be written back
    unreferenced = (set(range(len(fact_labels)))
                    - {p for p, _ in intent_facts} - {c for c, _ in extent_facts})
    if unreferenced:
        raise FormatError(f"fact {min(unreferenced)} is referenced by no rule")
    require_names("fact labels", fact_labels)
    return CellularModel(tuple(categories), tuple(fact_labels),
                         tuple(intent_facts), tuple(extent_facts),
                         tuple(vocabulary))


def save_model(model: CellularModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8")


def load_model(path: str | Path) -> CellularModel:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return model_from_dict(data)
