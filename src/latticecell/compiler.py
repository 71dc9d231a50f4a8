"""Compile a concept lattice into a cellular classification model.

Every concept with a nonempty intent and a nonempty extent becomes one
rule linking two fact cells: an intent fact carrying the concept's
attribute set and an extent fact carrying the class distribution of the
concept's documents. The top and bottom of the lattice (empty intent or
empty extent) are skipped. Classification later activates intent facts by
similarity, runs the engine, and votes over the established extent facts.

A class distribution is exact: integer per-category counts over a common
total. Compilation counts an extent's objects per category by popcount
and builds one distribution per distinct count vector, the vote averages
over the lcm of the totals, and the model file stores each value as a
reduced ``[numerator, denominator]`` pair.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .bits import bit_indices, iter_bits, mask_from_indices, transpose
from .engine import EngineState
from .errors import (EmptyInputError, FormatError, LabelingError, json_list,
                     read_converted, require_names, require_strings)
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
        if sum(fracs) != 1:
            raise ValueError(f"fractions sum to {sum(fracs)}, expected 1")
        total = math.lcm(*(f.denominator for f in fracs))
        self._store([f.numerator * (total // f.denominator) for f in fracs],
                    total)

    @classmethod
    def from_counts(cls, counts: Sequence[int],
                    total: int) -> "ClassDistribution":
        """``counts[i] / total`` per category; the counts are nonnegative
        and sum to ``total``."""
        if total <= 0 or min(counts, default=0) < 0 or sum(counts) != total:
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
        return self.counts.index(max(self.counts))

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


class RuleIndex(NamedTuple):
    """Per-model bitsets over rule positions (bit k is rule k).

    Activation reads these so that its cost per document follows the rules
    the document touches, not the rule count.
    """

    columns: tuple[int, ...]  # per attribute: rules whose intent holds it
    sizes: tuple[tuple[int, int], ...]  # (|intent|, its rules), ascending


class LazyLabels(Sequence):
    """Labels rendered on first read, as ``render(*args)``.

    ``render`` is a module-level function and ``args`` plain data, so the
    sequence holds no closure and pickles with its model. Its length is
    known without rendering; it compares and hashes as the rendered tuple.
    """

    __slots__ = ("render", "args", "length", "_labels")

    def __init__(self, render: Callable[..., tuple[str, ...]], args: tuple,
                 length: int) -> None:
        self.render, self.args, self.length = render, args, length
        self._labels: tuple[str, ...] | None = None

    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = self.render(*self.args)
        return self._labels

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i):
        return self.labels()[i]

    def __iter__(self):
        return iter(self.labels())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, LazyLabels)):
            return self.labels() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.labels())

    def __repr__(self) -> str:
        return repr(self.labels())


def _rule_labels(n: int) -> tuple[str, ...]:
    return tuple(f"R{k + 1}" for k in range(n))


@dataclass(frozen=True)
class CellularModel:
    """Compiled rules plus the concept data classification needs.

    ``intent_facts`` pairs each intent fact index with its attribute mask
    over ``vocabulary``; ``extent_facts`` pairs each extent fact index with
    its class distribution (integer counts over a total). Fact indices
    point into ``fact_labels``: the labels as given for a loaded or fixture
    model, a ``LazyLabels`` for a compiled one. Rule k, labeled ``R{k+1}``,
    links intent fact k (its premise) to extent fact k (its conclusion);
    these pairs are the only statement of the wiring: ``engine_template``
    is derived from them as fact index tuples, and a vote reads
    ``extent_facts[k]`` for each rule k the engine fired. The template
    shares ``fact_labels`` and renders its rule labels on first read, so
    classification formats no label. Immutable; clone the engine per
    classification via ``fresh_engine``.
    """

    categories: tuple[str, ...]
    fact_labels: Sequence[str]
    intent_facts: tuple[tuple[int, int], ...]
    extent_facts: tuple[tuple[int, ClassDistribution], ...]
    vocabulary: tuple[str, ...]
    engine_template: EngineState = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.intent_facts)
        if n != len(self.extent_facts):
            raise ValueError("one rule per intent/extent fact pair required")
        object.__setattr__(self, "engine_template", EngineState(
            self.fact_labels, LazyLabels(_rule_labels, (n,), n),
            [(i,) for i, _ in self.intent_facts],
            [(e,) for e, _ in self.extent_facts]))

    @property
    def n_facts(self) -> int:
        return len(self.fact_labels)

    @property
    def n_rules(self) -> int:
        return len(self.intent_facts)

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
        return RuleIndex(tuple(columns), tuple(sorted(sizes.items())))

    @cached_property
    def rank_tables(self) -> dict:
        """Activation's integer rank tables by ``(measure, document size)``,
        each added by ``classify.activate`` on first use."""
        return {}


def _short_category_names(categories: Sequence[str]) -> list[str]:
    initials = [c[:1].upper() if c else "?" for c in categories]
    if len(set(initials)) != len(initials):
        return list(categories)
    return initials


def _percent_text(dist: ClassDistribution, shorts: Sequence[str]) -> str:
    return ", ".join(f"({p}% {s})" for p, s in zip(dist.percents(), shorts))


def _compiled_labels(categories: Sequence[str], vocabulary: Sequence[str],
                     intent_facts, extent_facts,
                     vertices: Sequence[int]) -> tuple[str, ...]:
    """A compiled model's fact labels: an intent fact's attribute names in
    vocabulary order, and an extent fact's lattice vertex ``S{vertex}``
    with its rounded percent per category. Rules repeat a few distinct
    distributions, so each percent text is rendered once."""
    shorts = _short_category_names(categories)
    texts: dict[ClassDistribution, str] = {}
    labels = [""] * (len(intent_facts) + len(extent_facts))
    for (i, mask), (e, dist), vertex in zip(intent_facts, extent_facts,
                                            vertices):
        labels[i] = "[" + ", ".join([vocabulary[a]
                                     for a in iter_bits(mask)]) + "]"
        text = texts.get(dist)
        if text is None:
            text = texts[dist] = _percent_text(dist, shorts)
        labels[e] = f"[S{vertex} {text}]"
    return tuple(labels)


def compile_model(lattice: ConceptLattice, labels: Mapping[str, str],
                  categories: Sequence[str]) -> CellularModel:
    """Translate a lattice plus per-object labels into a CellularModel.

    ``labels`` maps object id to category. Concepts with an empty intent
    or empty extent contribute no cells.
    """
    order: dict[str, int] = {}
    for i, category in enumerate(categories):
        if order.setdefault(category, i) != i:
            raise LabelingError(f"category {category!r} repeated")
    ctx = lattice.context
    missing = [oid for oid in ctx.object_ids if oid not in labels]
    if missing:
        raise LabelingError(f"{missing[0]} unlabeled")
    aligned = [labels[oid] for oid in ctx.object_ids]
    # one object bitset per category, so a rule's counts are popcounts of
    # its extent, and one of the objects no category counts
    category_masks = [0] * len(categories)
    uncounted = 0
    for o, cat in enumerate(aligned):
        if cat is None or cat not in order:
            uncounted |= 1 << o
        else:
            category_masks[order[cat]] |= 1 << o

    # rule k links intent fact 2k to extent fact 2k + 1; rules with equal
    # counts share one distribution
    distributions: dict[tuple[int, ...], ClassDistribution] = {}
    intent_facts = []
    extent_facts = []
    vertices = []
    for vertex, concept in enumerate(lattice.concepts):
        extent = concept.extent
        if concept.intent == 0 or extent == 0:
            continue
        stray = extent & uncounted
        if stray:
            o = (stray & -stray).bit_length() - 1
            if aligned[o] is None:
                raise LabelingError(f"{ctx.object_ids[o]} unlabeled")
            raise LabelingError(f"{ctx.object_ids[o]} has unknown "
                                f"category {aligned[o]!r}")
        counts = tuple([(extent & mask).bit_count() for mask in category_masks])
        dist = distributions.get(counts)
        if dist is None:
            dist = distributions[counts] = ClassDistribution.from_counts(
                counts, extent.bit_count())
        fact = 2 * len(vertices)
        intent_facts.append((fact, concept.intent))
        extent_facts.append((fact + 1, dist))
        vertices.append(vertex)
    categories = tuple(categories)
    intent_facts, extent_facts = tuple(intent_facts), tuple(extent_facts)
    labels = LazyLabels(_compiled_labels,
                        (categories, ctx.attribute_names, intent_facts,
                         extent_facts, tuple(vertices)), 2 * len(vertices))
    return CellularModel(categories, labels, intent_facts, extent_facts,
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
    for names, tag, percents in _FIXTURE_VERTICES:
        dist = ClassDistribution.from_counts(percents, 100)
        intent_facts.append((len(fact_labels),
                             mask_from_indices(vocab_index[n] for n in names)))
        extent_facts.append((len(fact_labels) + 1, dist))
        fact_labels += ("[" + ", ".join(names) + "]",
                        f"[{tag} {_percent_text(dist, shorts)}]")
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
            facts.append({"label": label, "kind": "extent",
                          "distribution": [[f.numerator, f.denominator] for f
                                           in extent_by_idx[i].fractions]})
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

    A pair need not be reduced, and its denominator may be negative.
    ``ClassDistribution`` checks that the values lie in [0, 1] and sum to 1.
    """
    if len(pairs) != n_categories:
        raise FormatError(f"fact {i}: {len(pairs)} fractions for "
                          f"{n_categories} categories")
    fractions = []
    for pair in pairs:
        try:
            n, d = pair
        except ValueError as exc:  # not a pair
            raise FormatError(f"fact {i}: {exc}") from exc
        if not (isinstance(n, int) and isinstance(d, int)):
            raise FormatError(f"fact {i}: fraction {pair!r} is not a pair "
                              "of integers")
        if d == 0:
            raise FormatError(f"fact {i}: zero denominator")
        fractions.append(Fraction(n, d))
    try:
        return ClassDistribution(fractions)
    except ValueError as exc:
        raise FormatError(f"fact {i}: {exc}") from exc


def model_from_dict(data: dict) -> CellularModel:
    try:
        categories, vocabulary, raw_facts, raw_rules = (
            data[key] for key in ("categories", "vocabulary", "facts", "rules"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed model document: {exc}") from exc
    require_names("categories", categories)
    require_names("vocabulary", vocabulary)
    fact_labels = []
    # per fact, its attribute mask (an int) or its distribution
    contents: list[int | ClassDistribution] = []
    dist_by_pairs: dict[tuple, ClassDistribution] = {}
    try:
        for i, entry in enumerate(raw_facts):
            fact_labels.append(entry["label"])
            if entry["kind"] == "intent":
                mask = 0
                for a in entry["attributes"]:
                    if type(a) is not int:  # not bool, as for rule indices
                        raise FormatError(f"fact {i}: attribute {a!r} is not "
                                          f"an integer")
                    if not 0 <= a < len(vocabulary):
                        raise FormatError(
                            f"fact {i}: attribute {a} outside the "
                            f"{len(vocabulary)}-term vocabulary")
                    if mask >> a & 1:
                        raise FormatError(f"fact {i}: attribute {a} repeated")
                    mask |= 1 << a
                contents.append(mask)
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
                contents.append(dist)
            else:
                raise FormatError(f"fact {i}: unknown kind {entry['kind']!r}")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed fact entry: {exc}") from exc
    n_facts = len(contents)
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
            if not (0 <= p < n_facts and 0 <= c < n_facts
                    and type(mask := contents[p]) is int
                    and type(dist := contents[c]) is ClassDistribution):
                raise FormatError(f"rule {k} wiring does not match fact kinds")
            intent_facts.append((p, mask))
            extent_facts.append((c, dist))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed rule entry: {exc}") from exc
    # a model knows a fact's kind only from the rules that join it, so a
    # fact no rule joins could not be written back
    unreferenced = set(range(n_facts)).difference(
        map(itemgetter(0), intent_facts), map(itemgetter(0), extent_facts))
    if unreferenced:
        raise FormatError(f"fact {min(unreferenced)} is referenced by no rule")
    # labels are display text, so they may repeat
    require_strings("fact labels", fact_labels)
    return CellularModel(tuple(categories), tuple(fact_labels),
                         tuple(intent_facts), tuple(extent_facts),
                         tuple(vocabulary))


def save_model(model: CellularModel, path: str | Path) -> None:
    """Write ``model`` to ``path``: the same bytes as ``write_json(path,
    model_to_dict(model))``, rendered from text templates. Rules repeat a
    few distinct distributions, so each is rendered once."""
    bodies: dict[int, str] = {}
    rendered: dict[ClassDistribution, str] = {}
    for e, dist in model.extent_facts:
        text = rendered.get(dist)
        if text is None:
            text = rendered[dist] = json_list(
                (json_list((str(f.numerator), str(f.denominator)), " " * 8)
                 for f in dist.fractions), " " * 6)
        bodies[e] = '"kind": "extent",\n      "distribution": ' + text
    # a fact listed as both kinds is written as an intent, as model_to_dict does
    for i, mask in model.intent_facts:
        bodies[i] = ('"kind": "intent",\n      "attributes": '
                     + json_list(map(str, iter_bits(mask)), " " * 6))
    facts = (f'{{\n      "label": {label},\n      {bodies[i]}\n    }}'
             for i, label in enumerate(map(encode_basestring, model.fact_labels)))
    rules = (f'{{\n      "premise": {i},\n      "conclusion": {e}\n    }}'
             for (i, _), (e, _) in zip(model.intent_facts, model.extent_facts))
    Path(path).write_text(
        '{\n  "categories": '
        + json_list(map(encode_basestring, model.categories), "  ")
        + ',\n  "vocabulary": '
        + json_list(map(encode_basestring, model.vocabulary), "  ")
        + ',\n  "facts": ' + json_list(facts, "  ")
        + ',\n  "rules": ' + json_list(rules, "  ") + "\n}\n",
        encoding="utf-8")


def load_model(path: str | Path) -> CellularModel:
    return read_converted(path, model_from_dict)
