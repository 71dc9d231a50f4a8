"""Shared test utilities: fixtures, generators, and independent oracles.

The oracles here are deliberately written in the dumbest workable style
(worklist loops, triple loops) so they share no code path with the
implementations they check.
"""

from fractions import Fraction
from importlib.resources import files

import math
import random

from latticecell import (Concept, DocumentVector, FormalContext, Prediction,
                         Vocabulary, build_context, build_vocabulary,
                         candidate_terms, default_stopwords, information_gain,
                         load_context_csv, load_corpus, parse_activation,
                         remove_stopwords, tokenize, vectorize, vote)
from latticecell.classify import _score_key, _score_value
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


def benchmark_context(tmp_path, workload_name: str, seed: str) -> FormalContext:
    """The context of one corpus of a benchmark workload, over all its
    documents and the workload's feature count."""
    from perfbench.corpus import generate
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    docs = load_corpus(generate(tmp_path, workload.shape, seed).root)
    stopwords = default_stopwords()
    vocab = build_vocabulary(docs, workload.features, stopwords=stopwords)
    return build_context([vectorize(d, vocab, stopwords=stopwords)
                          for d in docs], vocab)


def query_vector() -> DocumentVector:
    """The worked-example query: Ministre and Puissance present."""
    return DocumentVector((1 << 3) | (1 << 4), 6, "Economie", "query")


def random_context(rnd: random.Random, max_objects: int = 12,
                   max_attributes: int = 10) -> FormalContext:
    n_obj = rnd.randint(1, max_objects)
    n_attr = rnd.randint(1, max_attributes)
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


def reference_vectorize(doc, vocab, stopwords=(), stemmer=None) -> DocumentVector:
    """Presence vector by testing every vocabulary term, lowercased, against
    the document's token set."""
    terms = vocab.terms if isinstance(vocab, Vocabulary) else tuple(vocab)
    present = set(remove_stopwords(tokenize(doc.text, stemmer), set(stopwords)))
    bits = 0
    for i, term in enumerate(terms):
        if term.lower() in present:
            bits |= 1 << i
    return DocumentVector(bits, len(terms), doc.category, doc.id)


def reference_select_features(vectors, terms, n) -> Vocabulary:
    """Top ``n`` terms, each scored by its own ``information_gain`` call."""
    scored = sorted(((t, information_gain(t, vectors, terms)) for t in terms),
                    key=lambda ts: (-ts[1], ts[0]))[:n]
    return Vocabulary(tuple(t for t, _ in scored), tuple(s for _, s in scored))


def reference_build_vocabulary(docs, n, stopwords=(), stemmer=None) -> Vocabulary:
    """Candidates, full-scan vectors and per-term information gain."""
    terms = candidate_terms(docs, stopwords, stemmer)
    vectors = [reference_vectorize(d, terms, stopwords, stemmer) for d in docs]
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
    for j, premise in enumerate(state.premises):
        if not (state.rule_ir >> j) & 1 or (er >> j) & 1 or premise == 0:
            continue
        if premise & ~established == 0:
            er |= 1 << j
    return state.ef, er


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
        keys = [_score_key(inter, n1, n2, measure) for _, inter, n2 in scored]
        best = max(keys)
        return tuple(fact for (fact, _, _), key in zip(scored, keys)
                     if key == best)
    if kind == "topk":
        ranked = sorted(scored, key=lambda s: (
            -_score_key(s[1], n1, s[2], measure), s[0]))
        return tuple(sorted(fact for fact, _, _ in ranked[:arg]))
    return tuple(fact for fact, inter, n2 in scored
                 if _score_value(inter, n1, n2, measure) >= arg)


def reference_classify(model, doc, measure, policy) -> Prediction:
    """Full-scan activation, worklist chaining, vote in rule order."""
    activated = reference_activate(model, doc, measure, policy)
    if not activated:
        return Prediction(None, None, (), ())
    engine = model.engine_template
    initial = 0
    for fact in activated:
        initial |= 1 << fact
    facts = naive_forward_chain(engine.n_facts, engine.premises,
                                engine.conclusions, initial)
    fired = tuple(fact for fact, _ in model.extent_facts if (facts >> fact) & 1)
    if not fired:
        return Prediction(None, None, (), activated)
    by_fact = dict(model.extent_facts)
    category, mean = vote([by_fact[f] for f in fired], model.categories)
    return Prediction(category, mean, fired, activated)


def reference_distribution(extent: int, labels, categories) -> tuple[Fraction, ...]:
    """Per-category share of the objects in ``extent``, object by object."""
    members = [labels[o] for o in range(extent.bit_length()) if extent >> o & 1]
    return tuple(Fraction(members.count(c), len(members)) for c in categories)


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
