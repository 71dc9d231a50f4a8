"""Shared test utilities: fixtures, generators, and independent oracles.

The oracles here are deliberately written in the dumbest workable style
(worklist loops, triple loops) so they share no code path with the
implementations they check.
"""

from fractions import Fraction
from importlib.resources import files

import math
import random
import re
import unicodedata

from latticecell import (Concept, DocumentVector, EmptyInputError,
                         FormalContext, LabelingError, Prediction, Vocabulary,
                         build_context, build_vocabulary, candidate_terms,
                         default_stopwords, load_context_csv, load_corpus,
                         parse_activation, remove_stopwords, tokenize,
                         vectorize, vote)
from latticecell.bits import mask_from_indices
from latticecell.context import canonical_key

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


def benchmark_corpus(tmp_path, workload_name: str, seed: str):
    """The documents of one corpus of a benchmark workload, and their
    context over the workload's feature count."""
    from perfbench.corpus import generate
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    docs = load_corpus(generate(tmp_path, workload.shape, seed).root)
    stopwords = default_stopwords()
    vocab = build_vocabulary(docs, workload.features, stopwords=stopwords)
    return docs, build_context([vectorize(d, vocab, stopwords=stopwords)
                                for d in docs], vocab)


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


def reference_tokenize(text: str) -> list[str]:
    """NFC and lowercase, every run of letters, then the runs of two or
    more letters: find, then filter."""
    folded = unicodedata.normalize("NFC", text).lower()
    return [t for t in re.findall(r"[^\W\d_]+", folded) if len(t) >= 2]


def reference_vectorize(doc, vocab, stopwords=()) -> DocumentVector:
    """Presence vector by testing every vocabulary term, in NFC and
    lowercased, against the document's token set."""
    present = set(remove_stopwords(tokenize(doc.text), set(stopwords)))
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


def reference_build_vocabulary(docs, n, stopwords=()) -> Vocabulary:
    """Candidates, full-scan vectors and per-term information gain."""
    terms = candidate_terms(docs, stopwords)
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


def reference_knn(train, doc, k, measure, categories=None) -> str:
    """k-NN by sorting every training vector on (key desc, index), one key
    per pair, then a majority vote with ties by category order."""
    cats = (list(dict.fromkeys(v.category for v in train))
            if categories is None else list(categories))
    n1 = doc.bits.bit_count()

    def key(i):
        inter = (doc.bits & train[i].bits).bit_count()
        return -reference_score_key(inter, n1, train[i].bits.bit_count(),
                                    measure), i

    votes = [train[i].category for i in sorted(range(len(train)), key=key)[:k]]
    return max(cats, key=lambda c: (votes.count(c), -cats.index(c)))


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
    """Activation by scoring every intent fact of the model, one by one."""
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
        return tuple(fact for (fact, _, _), key in zip(scored, keys)
                     if key == best)
    if kind == "topk":
        ranked = sorted(scored, key=lambda s: (
            -reference_score_key(s[1], n1, s[2], measure), s[0]))
        return tuple(sorted(fact for fact, _, _ in ranked[:arg]))
    return tuple(fact for fact, inter, n2 in scored
                 if reference_score_value(inter, n1, n2, measure) >= arg)


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
