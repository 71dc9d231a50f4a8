"""Compile a concept lattice into a cellular classification model.

Every concept with a nonempty intent and a nonempty extent becomes one
rule linking two fact cells: an intent fact carrying the concept's
attribute set and an extent fact carrying the class distribution of the
concept's documents. The top and bottom of the lattice (empty intent or
empty extent) are skipped. Classification later activates intent facts by
similarity, runs the engine, and votes over the established extent facts.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .bits import bit_indices, mask_from_indices
from .context import Concept
from .engine import EngineState
from .errors import EmptyInputError, FormatError, LabelingError
from .lattice import ConceptLattice


@dataclass(frozen=True)
class ClassDistribution:
    """Per-category fractions, exact rationals summing to 1."""

    fractions: tuple[Fraction, ...]

    def __post_init__(self):
        fracs = tuple(Fraction(f) for f in self.fractions)
        object.__setattr__(self, "fractions", fracs)
        if any(f < 0 or f > 1 for f in fracs):
            raise ValueError("fractions must lie in [0, 1]")
        if fracs and sum(fracs) != 1:
            raise ValueError(f"fractions sum to {sum(fracs)}, expected 1")

    def argmax(self) -> int:
        """Index of the largest fraction; first wins on ties."""
        best = 0
        for i, f in enumerate(self.fractions):
            if f > self.fractions[best]:
                best = i
        return best

    def percents(self) -> tuple[int, ...]:
        """Rounded integer percents (half rounds up), for display only."""
        return tuple(int(f * 100 + Fraction(1, 2)) for f in self.fractions)

    @staticmethod
    def mean(distributions: Sequence["ClassDistribution"]) -> "ClassDistribution":
        """Unweighted componentwise arithmetic mean."""
        if not distributions:
            raise EmptyInputError("mean of zero distributions is undefined")
        n = len(distributions)
        width = len(distributions[0].fractions)
        if any(len(d.fractions) != width for d in distributions):
            raise ValueError("distributions must share the category list")
        sums = [Fraction(0)] * width
        for d in distributions:
            for i, f in enumerate(d.fractions):
                sums[i] += f
        return ClassDistribution(tuple(s / n for s in sums))


def distribution_of(extent: int, labels: Sequence[str],
                    categories: Sequence[str]) -> ClassDistribution:
    """Class distribution of the objects in ``extent``.

    ``labels[o]`` is the category of object o. Exact rational fractions.
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
    return ClassDistribution(tuple(Fraction(c, total) for c in counts))


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
    its class distribution. Fact indices point into ``fact_labels``. Rule k,
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
        columns = [0] * len(self.vocabulary)
        sizes: dict[int, int] = {}
        for k, (_, mask) in enumerate(self.intent_facts):
            rule = 1 << k
            for a in bit_indices(mask):
                columns[a] |= rule
            n = mask.bit_count()
            sizes[n] = sizes.get(n, 0) | rule
        concluding = [0] * len(self.fact_labels)
        for k, (fact, _) in enumerate(self.extent_facts):
            concluding[fact] |= 1 << k
        return RuleIndex(tuple(columns), tuple(sorted(sizes.items())),
                         tuple(concluding))


def _short_category_names(categories: Sequence[str]) -> list[str]:
    initials = [c[:1].upper() if c else "?" for c in categories]
    if len(set(initials)) != len(initials):
        return list(categories)
    return initials


def _extent_label(vertex: int, dist: ClassDistribution,
                  categories: Sequence[str]) -> str:
    shorts = _short_category_names(categories)
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

    fact_labels: list[str] = []
    intent_facts = []
    extent_facts = []
    for vertex, concept in enumerate(lattice.concepts):
        if concept.intent == 0 or concept.extent == 0:
            continue
        dist = distribution_of(concept.extent, aligned, categories)
        intent_facts.append((len(fact_labels), concept.intent))
        extent_facts.append((len(fact_labels) + 1, dist))
        fact_labels.append(_intent_label(concept.intent, ctx.attribute_names))
        fact_labels.append(_extent_label(vertex, dist, categories))
    return CellularModel(tuple(categories), tuple(fact_labels),
                         tuple(intent_facts), tuple(extent_facts),
                         ctx.attribute_names)


# Reference model used by the worked example: six concept vertices over the
# demo vocabulary, with the distributions stored as the printed integer
# percentages so votes over them come out exactly.
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
        dist = ClassDistribution(tuple(Fraction(p, 100) for p in percents))
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
            facts.append({"label": label, "kind": "extent",
                          "distribution": [[f.numerator, f.denominator]
                                           for f in dist.fractions]})
    rules = [{"premise": i, "conclusion": e}
             for (i, _), (e, _) in zip(model.intent_facts, model.extent_facts)]
    return {
        "categories": list(model.categories),
        "vocabulary": list(model.vocabulary),
        "facts": facts,
        "rules": rules,
    }


def _distribution_from_pairs(i: int, pairs, n_categories: int) -> ClassDistribution:
    """Fact ``i``'s distribution from its ``[numerator, denominator]`` pairs."""
    if len(pairs) != n_categories:
        raise FormatError(f"fact {i}: {len(pairs)} fractions for "
                          f"{n_categories} categories")
    try:
        return ClassDistribution(tuple(Fraction(n, d) for n, d in pairs))
    except ZeroDivisionError as exc:
        raise FormatError(f"fact {i}: zero denominator") from exc
    except ValueError as exc:  # not a pair, or not a distribution
        raise FormatError(f"fact {i}: {exc}") from exc


def model_from_dict(data: dict) -> CellularModel:
    try:
        categories = tuple(data["categories"])
        vocabulary = tuple(data["vocabulary"])
        raw_facts = data["facts"]
        raw_rules = data["rules"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed model document: {exc}") from exc
    fact_labels = []
    intent_mask_by_idx: dict[int, int] = {}
    dist_by_idx: dict[int, ClassDistribution] = {}
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
                dist_by_idx[i] = _distribution_from_pairs(
                    i, entry["distribution"], len(categories))
            else:
                raise FormatError(f"fact {i}: unknown kind {entry['kind']!r}")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed fact entry: {exc}") from exc
    intent_facts = []
    extent_facts = []
    try:
        for k, rule in enumerate(raw_rules):
            p, c = int(rule["premise"]), int(rule["conclusion"])
            if p not in intent_mask_by_idx or c not in dist_by_idx:
                raise FormatError(f"rule {k} wiring does not match fact kinds")
            intent_facts.append((p, intent_mask_by_idx[p]))
            extent_facts.append((c, dist_by_idx[c]))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed rule entry: {exc}") from exc
    return CellularModel(categories, tuple(fact_labels), tuple(intent_facts),
                         tuple(extent_facts), vocabulary)


def save_model(model: CellularModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8")


def load_model(path: str | Path) -> CellularModel:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return model_from_dict(data)
