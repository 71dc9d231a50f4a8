"""Compile a concept lattice into a cellular classification model.

Every concept with a nonempty intent and a nonempty extent becomes one
rule linking two fact cells: an intent fact carrying the concept's
attribute set and an extent fact carrying the class distribution of the
concept's documents. The top and bottom of the lattice (empty intent or
empty extent) are skipped. Classification later activates intent facts by
similarity and votes over the extent facts the engine establishes.

A class distribution is exact: integer per-category counts over a common
total. Compilation keeps the rules with one ``compress`` over the
concepts, counts each category as the popcounts of the extents against
that category's object bitset in one ``map``, and builds one distribution
per distinct count vector. The vote averages over the lcm of the totals,
and the model file stores each value as a reduced ``[numerator,
denominator]`` pair.

A model's intents lie within its vocabulary, so the rule index that
activation reads is two C-level passes over them: ``bits.transpose``
gives each attribute's column of rules, and the columns' bit-sliced
counts, split by ``bits.split_by_count``, give the rules of each intent
size. The fact-to-rules map that classification reads is built on first
read from the fact pairs; the engine that ``--trace`` runs is built anew
from them on each read. The constructor admits only models a file holds,
so the writers check nothing.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import compress, count
from operator import attrgetter, itemgetter
from pathlib import Path

from .bits import (bit_indices, bit_sliced_counts, iter_bits,
                   mask_from_indices, split_by_count, transpose)
from .errors import (DimensionError, EmptyInputError, FormatError,
                     LabelingError, json_list, read_converted, require_names,
                     require_strings, require_unique)
from .value import Value, lazy


class ClassDistribution(Value):
    """Exact per-category fractions ``counts[i] / total``, each in [0, 1],
    summing to 1.

    Stored reduced (the counts and the total share no common factor), so
    equal distributions compare equal. Built from exact fractions, or from
    integer counts with ``from_counts``.
    """

    _fields = ("counts", "total")

    def __init__(self, fractions: Iterable) -> None:
        from fractions import Fraction

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
    def fractions(self) -> tuple:
        """The per-category fractions as exact rationals (``Fraction``s)."""
        from fractions import Fraction

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


class RuleIndex(namedtuple("RuleIndex", "columns sizes")):
    """Bitsets over the positions of a list of masks (bit k is mask k):
    a model's intents, or k-NN's training vectors.

    ``columns`` holds, per attribute, the masks that hold it; ``sizes``
    the ``(|mask|, its masks)`` pairs, ascending. Scoring reads these so
    that its cost per document follows the masks the document touches,
    not the mask count.
    """

    __slots__ = ()


def index_masks(masks: Sequence[int], columns: Sequence[int]) -> RuleIndex:
    """The ``RuleIndex`` of ``masks``, whose ``columns`` (per attribute,
    the masks that hold it) the caller has transposed; every bit of every
    mask is in a column, so the columns' bit-sliced counts are the masks'
    sizes."""
    full = (1 << len(masks)) - 1
    return RuleIndex(tuple(columns), tuple(sorted(
        split_by_count(full, bit_sliced_counts(columns)))))


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


class CellularModel(Value):
    """Compiled rules plus the concept data classification needs.

    ``intent_facts`` pairs each intent fact index with its attribute mask
    over ``vocabulary`` (a mask with a bit past the vocabulary, or a
    negative one, is a ``DimensionError``); ``extent_facts`` pairs each
    extent fact index with its class distribution (integer counts over a
    total, one per category; another width is a ``DimensionError``). Fact
    indices point into ``fact_labels``: the labels as given for a loaded or
    fixture model, a ``LazyLabels`` for a compiled one; one outside them is
    a ``DimensionError``; a repeated category or term, a fact that is both
    a premise and a conclusion, or neither, or a premise with two intents,
    is a ``ValueError``, as no file holds it. Rule k, labeled ``R{k+1}``, links
    intent fact k (its premise) to extent fact k (its conclusion); these
    pairs are the only statement of the wiring. No conclusion is a
    premise, so the engine's fixpoint is one step, and ``premise_rules``,
    derived from the pairs, gives it: the rules of the activated facts, for
    which a vote reads ``extent_facts[k]``. Each read of
    ``engine_template`` builds a fresh engine from the pairs, which only a
    traced classification runs; it shares ``fact_labels`` and renders its
    rule labels on first read. Immutable, apart from ``rule_index`` and
    ``premise_rules``, built on first read and left out of equality and
    repr.
    """

    _fields = ("categories", "fact_labels", "intent_facts", "extent_facts",
               "vocabulary")

    def __init__(self, categories: tuple[str, ...],
                 fact_labels: Sequence[str],
                 intent_facts: tuple[tuple[int, int], ...],
                 extent_facts: tuple[tuple[int, ClassDistribution], ...],
                 vocabulary: tuple[str, ...]) -> None:
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "fact_labels", fact_labels)
        object.__setattr__(self, "intent_facts", intent_facts)
        object.__setattr__(self, "extent_facts", extent_facts)
        object.__setattr__(self, "vocabulary", vocabulary)
        n = len(intent_facts)
        if n != len(extent_facts):
            raise ValueError("one rule per intent/extent fact pair required")
        # a file names each category and term once, and gives each
        # distribution one fraction per category
        require_unique("categories", categories)
        require_unique("vocabulary", vocabulary)
        n_categories = len(categories)
        dists = list(map(itemgetter(1), extent_facts))
        if set(map(len, map(attrgetter("counts"), dists))) - {n_categories}:
            k = next(k for k, dist in enumerate(dists)
                     if len(dist.counts) != n_categories)
            raise DimensionError(f"rule {k}: {len(dists[k].counts)} fractions "
                                 f"for {n_categories} categories")
        width = len(vocabulary)
        if n and (min(map(itemgetter(1), intent_facts)) < 0
                  or max(map(itemgetter(1), intent_facts)) >> width):
            k = next(k for k, (_, mask) in enumerate(intent_facts)
                     if mask < 0 or mask >> width)
            raise DimensionError(f"rule {k}: intent outside the "
                                 f"{width}-term vocabulary")
        n_facts = len(fact_labels)
        premises = set(map(itemgetter(0), intent_facts))
        conclusions = set(map(itemgetter(0), extent_facts))
        facts = premises | conclusions
        if facts and (min(facts) < 0 or max(facts) >= n_facts):
            # premises first, as ``EngineState`` checks them
            j = next(j for wiring in (intent_facts, extent_facts)
                     for j, (f, _) in enumerate(wiring) if not 0 <= f < n_facts)
            raise DimensionError(f"rule {j} wiring exceeds fact count")
        # a file gives each fact exactly one of the two kinds
        if not len(facts) == len(premises) + len(conclusions) == n_facts:
            f = min(set(range(n_facts)).difference(premises ^ conclusions))
            if f in premises:
                raise ValueError(f"fact {f} is both a premise and a conclusion")
            raise ValueError(f"fact {f} is referenced by no rule")
        # rules may share a premise fact, but a file gives it one intent
        if len(premises) < n and len(set(intent_facts)) > len(premises):
            intents = dict(intent_facts)
            f = min(f for f, mask in intent_facts if intents[f] != mask)
            raise ValueError(f"fact {f} carries two intents")

    @property
    def n_facts(self) -> int:
        return len(self.fact_labels)

    @property
    def n_rules(self) -> int:
        return len(self.intent_facts)

    @property
    def engine_template(self) -> EngineState:
        """A new engine over the rules, in its fresh state, built from the
        fact pairs on each read."""
        from .engine import EngineState

        n = self.n_rules
        return EngineState(self.fact_labels, LazyLabels(_rule_labels, (n,), n),
                           tuple(zip(map(itemgetter(0), self.intent_facts))),
                           tuple(zip(map(itemgetter(0), self.extent_facts))))

    @lazy
    def premise_rules(self) -> dict[int, tuple[int, ...]]:
        """Per premise fact, the rules it is the premise of, in rule order,
        derived on first read."""
        premises = list(map(itemgetter(0), self.intent_facts))
        rules = dict(zip(premises, zip(count())))
        if len(rules) < len(premises):  # a loaded model may share a premise
            shared: dict[int, list[int]] = {}
            for k, f in enumerate(premises):
                shared.setdefault(f, []).append(k)
            rules = {f: tuple(ks) for f, ks in shared.items()}
        return rules

    @lazy
    def rule_index(self) -> RuleIndex:
        """The intents' bitsets activation reads, derived on first read."""
        intents = [mask for _, mask in self.intent_facts]
        return index_masks(intents, transpose(intents, len(self.vocabulary)))


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

    concepts = lattice.concepts
    kept = list(map(all, concepts))  # a nonempty extent and intent
    vertices = tuple(compress(count(), kept))
    rules = list(compress(concepts, kept))
    extents = list(map(itemgetter(0), rules))
    # the rules are counted in order up to the first that holds an
    # uncounted object, which is then named
    n = next(compress(count(), map(uncounted.__and__, extents)), len(rules))
    counted = extents[:n]
    vectors = list(zip(*[map(int.bit_count, map(mask.__and__, counted))
                         for mask in category_masks])) or [()] * n
    # rules with equal counts share one distribution
    dists: dict[tuple[int, ...], ClassDistribution] = {}
    for counts, total in zip(vectors, map(int.bit_count, counted)):
        if counts not in dists:
            dists[counts] = ClassDistribution.from_counts(counts, total)
    if n < len(rules):
        stray = extents[n] & uncounted
        o = (stray & -stray).bit_length() - 1
        if aligned[o] is None:
            raise LabelingError(f"{ctx.object_ids[o]} unlabeled")
        raise LabelingError(f"{ctx.object_ids[o]} has unknown "
                            f"category {aligned[o]!r}")
    # rule k links intent fact 2k to extent fact 2k + 1
    intent_facts = tuple(zip(range(0, 2 * n, 2), map(itemgetter(1), rules)))
    extent_facts = tuple(zip(range(1, 2 * n, 2),
                             map(dists.__getitem__, vectors)))
    categories = tuple(categories)
    labels = LazyLabels(_compiled_labels,
                        (categories, ctx.attribute_names, intent_facts,
                         extent_facts, vertices), 2 * n)
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
    """The JSON form of ``model``; the rules give each fact its kind."""
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

    A pair need not be reduced, and its denominator may be negative. The
    values must lie in [0, 1] and sum to 1, checked in integers over the
    lcm of the denominators, with ``ClassDistribution``'s messages.
    """
    if len(pairs) != n_categories:
        raise FormatError(f"fact {i}: {len(pairs)} fractions for "
                          f"{n_categories} categories")
    numerators = []
    denominators = []
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
        if d < 0:
            n, d = -n, -d
        numerators.append(n)
        denominators.append(d)
    if any(n < 0 or n > d for n, d in zip(numerators, denominators)):
        raise FormatError(f"fact {i}: fractions must lie in [0, 1]")
    total = math.lcm(*denominators)
    counts = [n * (total // d) for n, d in zip(numerators, denominators)]
    got = sum(counts)
    if got != total:
        g = math.gcd(got, total)
        text = f"{got // g}" if g == total else f"{got // g}/{total // g}"
        raise FormatError(f"fact {i}: fractions sum to {text}, expected 1")
    return ClassDistribution.from_counts(counts, total)


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
    # of the model's shape checks, only a fact no rule joins can fail here
    try:
        model = CellularModel(tuple(categories), tuple(fact_labels),
                              tuple(intent_facts), tuple(extent_facts),
                              tuple(vocabulary))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    # labels are display text, so they may repeat
    require_strings("fact labels", fact_labels)
    return model


def save_model(model: CellularModel, path: str | Path) -> None:
    """Write ``model`` to ``path``: the same bytes as ``write_json(path,
    model_to_dict(model))``, rendered from text templates. Rules repeat a
    few distinct distributions, so each is rendered once."""
    from json.encoder import encode_basestring

    bodies: dict[int, str] = {}
    rendered: dict[ClassDistribution, str] = {}
    for e, dist in model.extent_facts:
        text = rendered.get(dist)
        if text is None:
            # each count over the total as a reduced pair, as
            # ``dist.fractions`` gives it
            t = dist.total
            text = rendered[dist] = json_list(
                (json_list((str(c // g), str(t // g)), " " * 8)
                 for c in dist.counts for g in [math.gcd(c, t)]), " " * 6)
        bodies[e] = '"kind": "extent",\n      "distribution": ' + text
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
