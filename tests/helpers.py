"""Shared test utilities: fixtures, generators, and independent oracles.

The oracles here are deliberately written in the dumbest workable style
(worklist loops, triple loops) so they share no code path with the
implementations they check.
"""

from collections.abc import Mapping
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import math
import random
import re
import unicodedata

from latticecell import (CellularModel, ClassDistribution, Concept,
                         ConceptLattice, CorpusError, Document,
                         DocumentVector, EmptyInputError,
                         FormalContext, FormatError, LabelingError,
                         Prediction, Vocabulary, build_context,
                         default_stopwords, derive_intent, load_context_csv,
                         load_corpus, parse_activation, train_vectors, vote)
from latticecell.bits import iter_bits, mask_from_indices
from latticecell.compiler import (LazyLabels, _compiled_labels,
                                  _distribution_from_pairs)
from latticecell.context import canonical_key
from latticecell.textprep import category_masks
from latticecell.errors import require_names, require_strings
from latticecell.lattice import _BIT_REVERSED, _closed_extents

DATA = files("latticecell") / "data"

# Per-object categories for the bundled 9-document context, aligned with
# its object order (Doc 1 .. Doc 9).
DEMO_LABELS = ("Sport", "Sport", "Television", "Television", "Economie",
               "Economie", "Sport", "Economie", "Television")
DEMO_CATEGORIES = ("Sport", "Economie", "Television")


def demo_context() -> FormalContext:
    return load_context_csv(DATA / "context.csv")


def demo_labels_map() -> dict[str, str]:
    ctx = demo_context()
    return dict(zip(ctx.object_ids, DEMO_LABELS))


def names_mask(names, chosen) -> int:
    """The bitset of the positions in ``names`` of the ``chosen`` names,
    say a context's object ids or attribute names."""
    mask = 0
    for name in chosen:
        mask |= 1 << names.index(name)
    return mask


def benchmark_corpus(tmp_path, workload_name: str, seed: str):
    """The documents of one corpus of a benchmark workload, and their
    context over the workload's feature count."""
    from perfbench.corpus import generate
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    docs = load_corpus(generate(tmp_path, workload.shape, seed).root)
    vocab, vectors = train_vectors(docs, workload.features,
                                   stopwords=default_stopwords())
    return docs, build_context(vectors, vocab)


def benchmark_context(tmp_path, workload_name: str, seed: str) -> FormalContext:
    """The context of one corpus of a benchmark workload, over all its
    documents and the workload's feature count."""
    return benchmark_corpus(tmp_path, workload_name, seed)[1]


def query_vector() -> DocumentVector:
    """The worked-example query: Ministre and Puissance present."""
    return DocumentVector((1 << 3) | (1 << 4), 6, "Economie", "query")


def random_context(rnd: random.Random, max_objects: int = 12,
                   max_attributes: int = 10) -> FormalContext:
    n_obj = rnd.randint(1, max_objects)
    n_attr = rnd.randint(1, max_attributes)
    return random_context_of_size(rnd, n_obj, n_attr)


def random_context_of_size(rnd: random.Random, n_obj: int,
                           n_attr: int) -> FormalContext:
    # mix densities: AND-ing random masks thins the incidence
    layers = rnd.choice((1, 1, 2, 3))
    rows = []
    for _ in range(n_obj):
        row = (1 << n_attr) - 1
        for _ in range(layers):
            row &= rnd.getrandbits(n_attr)
        rows.append(row)
    return FormalContext(tuple(f"o{i}" for i in range(n_obj)),
                         tuple(f"a{j}" for j in range(n_attr)),
                         tuple(rows))


def _reference_names(directory: Path, keep) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if keep(p))


def _reference_read(path: Path, category=None) -> Document:
    """One document, read through ``Path.read_text``'s text stream."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read document {path}: {exc}") from exc
    return Document(path.name, category, text)


def reference_load_corpus(root) -> list[Document]:
    """``load_corpus`` with a ``Path`` joined per document and each
    document read by ``Path.read_text``."""
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    docs, seen = [], {}
    categories = _reference_names(root, Path.is_dir)
    if not categories:
        raise CorpusError(f"corpus root {root} has no category directories")
    for category in categories:
        sub = root / category
        for name in _reference_names(sub, Path.is_file):
            path = sub / name
            if name in seen:
                raise CorpusError(f"duplicate document id {name!r}: "
                                  f"{seen[name]} and {path}")
            seen[name] = path
            docs.append(_reference_read(path, category))
    if not docs:
        raise CorpusError(f"corpus root {root} has no documents")
    return docs


def reference_load_documents(path) -> list[Document]:
    """``load_documents`` read as ``reference_load_corpus`` reads."""
    path = Path(path)
    if path.is_file():
        return [_reference_read(path)]
    if path.is_dir():
        return [_reference_read(path / name)
                for name in _reference_names(path, Path.is_file)]
    raise CorpusError(f"no such file or directory: {path}")


def reference_tokenize(text: str) -> list[str]:
    """NFC and lowercase, every run of letters, then the runs of two or
    more letters: find, then filter."""
    folded = unicodedata.normalize("NFC", text).lower()
    return [t for t in re.findall(r"[^\W\d_]+", folded) if len(t) >= 2]


def reference_vectorize(doc, vocab, stopwords=()) -> DocumentVector:
    """Presence vector by testing every vocabulary term, in NFC and
    lowercased, against the document's token set less the stopwords."""
    present = set(reference_tokenize(doc.text)) - set(stopwords)
    bits = 0
    for i, term in enumerate(vocab.terms):
        if unicodedata.normalize("NFC", term).lower() in present:
            bits |= 1 << i
    return DocumentVector(bits, len(vocab.terms), doc.category, doc.id)


def _reference_entropy(counts) -> float:
    """Shannon entropy in bits; zero counts contribute nothing."""
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def reference_information_gain(term, vectors, terms) -> float:
    """IG(t) = H(C) - P(t) H(C | t present) - P(not t) H(C | t absent),
    counting one vector at a time, with ``select_features``'s float
    operation order so the two agree exactly."""
    if not vectors:
        raise EmptyInputError("information gain over an empty corpus is undefined")
    idx = list(terms).index(term)
    categories: list[str] = []
    for v in vectors:
        if v.category is None:
            raise LabelingError(f"document {v.doc_id!r} is unlabeled")
        if v.category not in categories:
            categories.append(v.category)
    order = {c: i for i, c in enumerate(categories)}
    present = [0] * len(categories)
    absent = [0] * len(categories)
    for v in vectors:
        if (v.bits >> idx) & 1:
            present[order[v.category]] += 1
        else:
            absent[order[v.category]] += 1
    n = len(vectors)
    n_present = sum(present)
    total = [p + a for p, a in zip(present, absent)]
    return (_reference_entropy(total)
            - (n_present / n) * _reference_entropy(present)
            - ((n - n_present) / n) * _reference_entropy(absent))


def reference_select_features(vectors, terms, n) -> Vocabulary:
    """Top ``n`` terms, each scored by its own
    ``reference_information_gain`` call."""
    scored = sorted(((t, reference_information_gain(t, vectors, terms))
                     for t in terms),
                    key=lambda ts: (-ts[1], ts[0]))[:n]
    return Vocabulary(tuple(t for t, _ in scored), tuple(s for _, s in scored))


def reference_select_by_columns(vectors, terms, n) -> Vocabulary:
    """``select_features`` by term columns: the vectors transposed into one
    document bitset per term, a term's per-category counts the popcounts
    of that column within each category's documents, and the information
    gain once per distinct count vector, in the same float order."""
    if n < 1:
        raise ValueError("feature count must be >= 1")
    terms = tuple(terms)
    if not terms:
        return Vocabulary((), ())
    if not vectors:
        raise EmptyInputError("information gain over an empty corpus is undefined")
    by_category = category_masks(vectors)
    unlabeled = by_category.get(None, 0)
    if unlabeled:
        first = (unlabeled & -unlabeled).bit_length() - 1
        raise LabelingError(f"document {vectors[first].doc_id!r} is unlabeled")
    masks = list(by_category.values())
    totals = [m.bit_count() for m in masks]
    n_docs = len(vectors)
    h_class = _reference_entropy(totals)
    columns = reference_transpose((v.bits for v in vectors), len(terms))
    counts = list(zip(*[[(m & column).bit_count() for column in columns]
                        for m in masks]))
    gain = {}
    for present in set(counts):
        absent = [t - p for t, p in zip(totals, present)]
        n_present = sum(present)
        gain[present] = (h_class
                         - (n_present / n_docs) * _reference_entropy(present)
                         - ((n_docs - n_present) / n_docs)
                         * _reference_entropy(absent))
    kept = sorted(((-gain[c], t) for c, t in zip(counts, terms)))[:n]
    return Vocabulary(tuple(t for _, t in kept), tuple(-s for s, _ in kept))


def reference_vocabulary(docs, n, stopwords=()) -> Vocabulary:
    """Candidates (every post-filter token of the corpus, sorted),
    full-scan vectors and per-term information gain."""
    candidates = set()
    for doc in docs:
        for token in reference_tokenize(doc.text):
            if token not in stopwords:
                candidates.add(token)
    terms = tuple(sorted(candidates))
    vectors = [reference_vectorize(d, Vocabulary(terms), stopwords)
               for d in docs]
    return reference_select_features(vectors, terms, n)


def reference_naive_bayes_table(train, categories):
    """Naive Bayes log tables, counting each attribute member by member."""
    size, n_total, table = train[0].size, len(train), []
    for cat in categories:
        members = [v for v in train if v.category == cat]
        if not members:
            continue
        log_p, log_q = [], []
        for i in range(size):
            df = sum(1 for v in members if (v.bits >> i) & 1)
            p = (df + 1) / (len(members) + 2)
            log_p.append(math.log(p))
            log_q.append(math.log(1.0 - p))
        table.append((cat, math.log(len(members) / n_total), log_p, log_q))
    return size, table


def reference_knn(train, doc, k, measure, categories) -> str:
    """k-NN by sorting every training vector on (key desc, index), one key
    per pair, then a majority vote with ties by category order."""
    cats = list(categories)
    n1 = doc.bits.bit_count()

    def key(i):
        inter = (doc.bits & train[i].bits).bit_count()
        return -reference_score_key(inter, n1, train[i].bits.bit_count(),
                                    measure), i

    votes = [train[i].category for i in sorted(range(len(train)), key=key)[:k]]
    return max(cats, key=lambda c: (votes.count(c), -cats.index(c)))


def reference_read_context_csv(path: Path, reader) -> FormalContext:
    """``context._read_context_csv`` one cell at a time: the same context
    from the same CSV records, or the same ``FormatError`` text."""
    header = next(reader, None)
    if header is None or len(header) < 1:
        raise FormatError(f"{path}: missing header row")
    attributes = tuple(header[1:])
    if len(set(attributes)) != len(attributes):
        name = next(a for i, a in enumerate(attributes) if a in attributes[:i])
        raise FormatError(f"{path}: row 1: duplicate attribute name {name!r}")
    object_ids: dict[str, None] = {}
    rows: list[int] = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(attributes) + 1:
            raise FormatError(f"{path}: row {lineno}: expected "
                              f"{len(attributes) + 1} cells, got {len(record)}")
        if record[0] in object_ids:
            raise FormatError(f"{path}: row {lineno}: duplicate object id "
                              f"{record[0]!r}")
        mask = 0
        for col, cell in enumerate(record[1:]):
            if cell == "1":
                mask |= 1 << col
            elif cell != "0":
                raise FormatError(
                    f"{path}: row {lineno}, column {col + 2}: "
                    f"cell must be '0' or '1', got {cell!r}")
        object_ids[record[0]] = None
        rows.append(mask)
    return FormalContext(tuple(object_ids), attributes, tuple(rows))


def reference_transpose(rows, width: int) -> list[int]:
    """``bits.transpose`` by walking each set bit of each row: bit r of
    column j is bit j of ``rows[r]``, bits at or above ``width`` ignored."""
    full = (1 << width) - 1
    cols = [0] * width
    for r, row in enumerate(rows):
        bit = 1 << r
        row &= full
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def reference_mask_sizes(masks) -> tuple[tuple[int, int], ...]:
    """``RuleIndex.sizes`` by one ``bit_count`` per mask: ``(size, the
    positions of the masks of that size)``, ascending by size."""
    sizes: dict[int, int] = {}
    for k, mask in enumerate(masks):
        n = mask.bit_count()
        sizes[n] = sizes.get(n, 0) | 1 << k
    return tuple(sorted(sizes.items()))


def wiring_masks(state) -> tuple[list[int], list[int]]:
    """An engine's premise and conclusion fact index tuples as the fact
    masks the mask-based oracles below read."""
    return ([mask_from_indices(p) for p in state.premises],
            [mask_from_indices(c) for c in state.conclusions])


def naive_forward_chain(n_facts, premises, conclusions, initial,
                        fact_if=None, rule_ir=None) -> int:
    """Worklist forward chainer over mask-encoded rules; returns final facts."""
    if fact_if is None:
        fact_if = (1 << n_facts) - 1
    if rule_ir is None:
        rule_ir = (1 << len(premises)) - 1
    facts = initial & fact_if
    changed = True
    while changed:
        changed = False
        for j, (prem, concl) in enumerate(zip(premises, conclusions)):
            if not (rule_ir >> j) & 1 or prem == 0:
                continue
            if prem & ~facts == 0:
                add = concl & fact_if & ~facts
                if add:
                    facts |= add
                    changed = True
    return facts


def reference_fact_step(state) -> tuple[int, int]:
    """(SF, ER) one fact step must leave, by scanning every rule."""
    established = state.ef & state.fact_if
    er = state.er
    for j, premise in enumerate(wiring_masks(state)[0]):
        if not (state.rule_ir >> j) & 1 or (er >> j) & 1 or premise == 0:
            continue
        if premise & ~established == 0:
            er |= 1 << j
    return state.ef, er


def reference_score_value(inter: int, n1: int, n2: int, measure: str):
    """Each measure's value from its own formula: an int for inner, a float
    for the rest, 0.0 over an empty denominator."""
    if measure == "inner":
        return inter
    if measure == "jaccard":
        union = n1 + n2 - inter
        return inter / union if union else 0.0
    if measure == "dice":
        denom = n1 + n2
        return 2 * inter / denom if denom else 0.0
    if measure == "cosine":
        denom = n1 * n2
        return inter / math.sqrt(denom) if denom else 0.0
    raise ValueError(f"unknown similarity measure {measure!r}")


def reference_score_key(inter: int, n1: int, n2: int, measure: str):
    """Each measure's exact ranking key from its own formula: inner's count,
    the others' Fractions, cosine's squared."""
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


def reference_activate(model, doc, measure, policy) -> tuple[int, ...]:
    """Activation by scoring every rule's intent fact, one by one. A fact
    that several rules share as their premise is listed once: max and
    threshold at its first chosen rule, topk counting it once toward K."""
    kind, arg = parse_activation(policy)
    n1 = doc.bits.bit_count()
    scored = []
    for fact, mask in model.intent_facts:
        inter = (doc.bits & mask).bit_count()
        if inter > 0:
            scored.append((fact, inter, mask.bit_count()))
    if not scored:
        return ()
    if kind == "max":
        keys = [reference_score_key(inter, n1, n2, measure)
                for _, inter, n2 in scored]
        best = max(keys)
        chosen = [fact for (fact, _, _), key in zip(scored, keys)
                  if key == best]
    elif kind == "topk":
        ranked = sorted(scored, key=lambda s: (
            -reference_score_key(s[1], n1, s[2], measure), s[0]))
        top: list[int] = []
        for fact, _, _ in ranked:
            if len(top) < arg and fact not in top:
                top.append(fact)
        return tuple(sorted(top))
    else:
        chosen = [fact for fact, inter, n2 in scored
                  if reference_score_value(inter, n1, n2, measure) >= arg]
    firsts: list[int] = []
    for fact in chosen:
        if fact not in firsts:
            firsts.append(fact)
    return tuple(firsts)


def reference_classify(model, doc, measure, policy) -> Prediction:
    """Full-scan activation, worklist chaining, and a vote in rule order over
    the rules whose premises hold in the chainer's final facts."""
    activated = reference_activate(model, doc, measure, policy)
    if not activated:
        return Prediction(None, None, (), ())
    engine = model.engine_template
    initial = 0
    for fact in activated:
        initial |= 1 << fact
    premises, conclusions = wiring_masks(engine)
    facts = naive_forward_chain(engine.n_facts, premises, conclusions, initial)
    fired = [k for k, premise in enumerate(premises)
             if premise and premise & ~facts == 0]
    if not fired:
        return Prediction(None, None, (), activated)
    category, mean = vote([model.extent_facts[k][1] for k in fired],
                          model.categories)
    return Prediction(category, mean,
                      tuple(model.extent_facts[k][0] for k in fired), activated)


def reference_distribution(extent: int, labels, categories) -> tuple[Fraction, ...]:
    """Per-category share of the objects in ``extent``, object by object."""
    members = [labels[o] for o in range(extent.bit_length()) if extent >> o & 1]
    return tuple(Fraction(members.count(c), len(members)) for c in categories)


def reference_fact_labels(lattice, labels, categories) -> tuple[str, ...]:
    """A compiled model's fact labels, built eagerly concept by concept:
    per concept with a nonempty intent and extent, its attribute names,
    then ``S{vertex}`` with each category's rounded percent (half up)."""
    initials = [c[:1].upper() if c else "?" for c in categories]
    shorts = initials if len(set(initials)) == len(initials) else categories
    ctx = lattice.context
    aligned = [labels[oid] for oid in ctx.object_ids]
    out = []
    for vertex, concept in enumerate(lattice.concepts):
        if concept.intent == 0 or concept.extent == 0:
            continue
        names = [ctx.attribute_names[a] for a in range(ctx.n_attributes)
                 if concept.intent >> a & 1]
        out.append("[" + ", ".join(names) + "]")
        shares = reference_distribution(concept.extent, aligned, categories)
        parts = [f"({math.floor(100 * f + Fraction(1, 2))}% {short})"
                 for f, short in zip(shares, shorts)]
        out.append(f"[S{vertex} {', '.join(parts)}]")
    return tuple(out)


def reference_mean(rows) -> tuple[Fraction, ...]:
    """Componentwise mean of equal-width tuples of fractions."""
    sums = [Fraction(0)] * len(rows[0])
    for row in rows:
        for i, f in enumerate(row):
            sums[i] += f
    return tuple(s / len(rows) for s in sums)


def reference_merge_pairs(extents1, intents1, extents2, intents2):
    """Cross every concept of one lattice with every concept of the other.

    For each pair the candidate extent is the intersection of the two
    extents; pairs that regenerate an already-seen extent have their
    intent union folded into the stored entry. Returns parallel lists
    (extents, intents) of the distinct results, in first-seen order.
    Intent masks must already share one attribute index space.
    """
    index: dict[int, int] = {}
    out_extents: list[int] = []
    out_intents: list[int] = []
    pairs2 = list(zip(extents2, intents2))
    for e1, i1 in zip(extents1, intents1):
        for e2, i2 in pairs2:
            extent = e1 & e2
            at = index.get(extent)
            if at is None:
                index[extent] = len(out_extents)
                out_extents.append(extent)
                out_intents.append(i1 | i2)
            else:
                out_intents[at] |= i1 | i2
    return out_extents, out_intents


def reference_build_lattice(ctx: FormalContext) -> list[Concept]:
    """Concepts in canonical order by halving the attribute range.

    Each half (the left one rounds up) is built recursively, and the two
    are crossed pair by pair with ``reference_merge_pairs``, which unions
    the intents rather than deriving them. A one-attribute leaf reads its
    column; a context with no attributes has the single concept (all
    objects, {}).
    """
    full = ctx.full_object_mask

    def masks(lo, hi):
        if hi - lo == 1:
            column = ctx.columns[lo]
            if column == full:
                return [full], [1 << lo]
            return [full, column], [0, 1 << lo]
        mid = lo + (hi - lo + 1) // 2
        return reference_merge_pairs(*masks(lo, mid), *masks(mid, hi))

    extents, intents = (masks(0, ctx.n_attributes) if ctx.n_attributes
                        else ([full], [0]))
    return sorted(map(Concept, extents, intents), key=canonical_key)


def reference_lower_covers(extents) -> list[tuple[int, int]]:
    """Cover edges (child, parent) of distinct extents by a pairwise scan.

    For each child, candidate parents are scanned smallest-first; a
    candidate is a cover unless it contains an already-accepted cover.
    Returns a sorted edge list.
    """
    n = len(extents)
    by_card = sorted(range(n), key=lambda i: extents[i].bit_count())
    edges = []
    for c in range(n):
        ec = extents[c]
        accepted = []
        for d in by_card:
            ed = extents[d]
            if ed == ec or ec & ~ed:
                continue  # not a strict superset of the child
            for e in accepted:
                if e & ~ed == 0:
                    break  # a smaller cover sits between
            else:
                accepted.append(ed)
                edges.append((c, d))
    edges.sort()
    return edges


def brute_transitive_reduction(concepts: list[Concept]) -> frozenset[tuple[int, int]]:
    """Cover edges by triple loop over the full strict-inclusion relation."""
    n = len(concepts)
    less = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ei, ej = concepts[i].extent, concepts[j].extent
            less[i][j] = ei != ej and ei | ej == ej
    edges = set()
    for i in range(n):
        for j in range(n):
            if not less[i][j]:
                continue
            if not any(less[i][k] and less[k][j] for k in range(n)):
                edges.add((i, j))
    return frozenset(edges)


def concept_set(concepts) -> set[tuple[int, int]]:
    return {(c.extent, c.intent) for c in concepts}


def reference_model_from_dict(data: dict) -> CellularModel:
    """``model_from_dict`` as a per-fact loop: fact contents in two dicts,
    and a reused distribution's pairs type-checked at each reuse."""
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
                intent_mask_by_idx[i] = mask
            elif entry["kind"] == "extent":
                # a float key equals an int key, so a reused distribution
                # must come from integer pairs
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
    unreferenced = (set(range(len(fact_labels)))
                    - {p for p, _ in intent_facts} - {c for c, _ in extent_facts})
    if unreferenced:
        raise FormatError(f"fact {min(unreferenced)} is referenced by no rule")
    require_strings("fact labels", fact_labels)
    return CellularModel(tuple(categories), tuple(fact_labels),
                         tuple(intent_facts), tuple(extent_facts),
                         tuple(vocabulary))


def reference_lattice_from_dict(data: dict) -> ConceptLattice:
    """``lattice_from_dict`` as a per-name loop: masks built name by name,
    rows recovered bit by bit, and each intent checked against
    ``derive_intent``."""
    try:
        object_ids, attributes, raw, top, bottom = (
            data[key] for key in ("objects", "attributes", "concepts", "top",
                                  "bottom"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed lattice document: {exc}") from exc
    if not isinstance(raw, list):
        raise FormatError("concepts: expected a list")
    require_names("objects", object_ids)
    require_names("attributes", attributes)
    object_ids, attributes = tuple(object_ids), tuple(attributes)
    oidx = {o: i for i, o in enumerate(object_ids)}
    aidx = {a: i for i, a in enumerate(attributes)}
    for name, index in (("top", top), ("bottom", bottom)):
        if type(index) is not int:
            raise FormatError(f"{name} index {index!r} is not an integer")
        if not 0 <= index < len(raw):
            raise FormatError(f"{name} index {index} outside the "
                              f"{len(raw)} concepts")
    rows = [0] * len(object_ids)
    concepts = []
    for k, entry in enumerate(raw):
        if not (isinstance(entry, Mapping) and isinstance(entry.get("extent"), list)
                and isinstance(entry.get("intent"), list)):
            raise FormatError(f"concept {k}: expected a mapping with "
                              f"'extent' and 'intent' lists")
        try:
            extent = _reference_name_mask(k, entry["extent"], oidx)
            intent = _reference_name_mask(k, entry["intent"], aidx)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"concept {k}: unknown object or attribute "
                              f"{exc}") from exc
        concepts.append(Concept(extent, intent))
        for o in iter_bits(extent):
            rows[o] |= intent
    ctx = FormalContext(object_ids, attributes, tuple(rows))
    closed = _closed_extents(ctx, len(concepts))
    missing = closed.difference(c.extent for c in concepts)
    if missing:
        extent = min(missing, key=lambda e: (e.bit_count(), e))
        raise FormatError(f"no concept has the closed extent "
                          f"{{{', '.join(ctx.object_names(extent))}}}")
    seen: dict[int, int] = {}
    for k, (extent, intent) in enumerate(concepts):
        if seen.setdefault(extent, k) != k:
            raise FormatError(f"concept {k} repeats the extent of concept "
                              f"{seen[extent]}")
        if extent not in closed:
            raise FormatError(f"concept {k}: its extent is not closed; more "
                              f"objects share its objects' attributes")
        if intent != derive_intent(ctx, extent):
            raise FormatError(f"concept {k}: its intent is not the set of "
                              f"attributes its objects share")
    if concepts[top].extent != ctx.full_object_mask:
        raise FormatError(f"top concept {top} does not hold every object")
    if concepts[bottom].intent != ctx.full_attribute_mask:
        raise FormatError(f"bottom concept {bottom} does not hold every "
                          f"attribute")
    return ConceptLattice(ctx, tuple(concepts), top, bottom)


def _reference_name_mask(k: int, names: list, index: dict[str, int]) -> int:
    mask = 0
    for name in names:
        bit = 1 << index[name]
        if mask & bit:
            raise FormatError(f"concept {k}: {name!r} repeated")
        mask |= bit
    return mask


def assert_same_outcome(load, reference, data):
    """``load(data)`` equals ``reference(data)``, or both raise a
    ``FormatError`` with the same text; returns what ``load`` gave."""
    try:
        expected = reference(data)
    except FormatError as exc:
        try:
            got = load(data)
        except FormatError as again:
            assert str(again) == str(exc)
            return None
        raise AssertionError(f"loaded {got!r}; the reference raised {exc}")
    got = load(data)
    assert got == expected
    return got


def assert_same_result(call, reference):
    """``call()`` equals ``reference()``, or both raise an exception of the
    same type with the same text; returns what ``call`` gave."""
    try:
        expected = reference()
    except Exception as exc:
        try:
            got = call()
        except Exception as again:
            assert (type(again), str(again)) == (type(exc), str(exc))
            return None
        raise AssertionError(f"gave {got!r}; the reference raised {exc!r}")
    got = call()
    assert got == expected
    return got


def reference_finish(ctx: FormalContext, extents) -> ConceptLattice:
    """``lattice._finish`` with one ``derive_intent`` and one ``Concept``
    call per extent."""
    width = -(-ctx.n_objects // 8)
    low = (1 << 8 * width) - 1

    def key(extent: int) -> int:
        reversed_ = int.from_bytes(extent.to_bytes(width, "little")
                                   .translate(_BIT_REVERSED), "big")
        return extent.bit_count() << 8 * width | low ^ reversed_

    concepts = [Concept(e, derive_intent(ctx, e))
                for e in sorted(extents, key=key)]
    # canonical order is extent-cardinality ascending: the unique minimal
    # extent sorts first and the full-extent top sorts last
    return ConceptLattice(ctx, tuple(concepts),
                          top_index=len(concepts) - 1, bottom_index=0)


def reference_compile_model(lattice, labels, categories) -> CellularModel:
    """``compile_model`` as a loop over the concepts: a stray object check,
    a count per category and two facts per rule, concept by concept."""
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
