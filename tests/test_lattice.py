"""Lattice construction and the covers kernel against the halving, naive
and pairwise-scan oracles."""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (DATA, DEMO_CATEGORIES, benchmark_context,
                     brute_transitive_reduction, concept_set, demo_context,
                     demo_labels_map, query_vector, random_context,
                     random_context_of_size,
                     reference_build_lattice, reference_lower_covers,
                     reference_merge_pairs)
from latticecell import (Concept, ConceptLattice, DimensionError,
                         FormalContext, FormatError, NotSplittableError,
                         PipelineConfig, assemble, backend, build_lattice,
                         classify, compile_model, enumerate_concepts_naive,
                         load_lattice, run_experiment, save_lattice,
                         split_context)
from latticecell.cli import main
from latticecell.lattice import lattice_from_dict, lattice_to_dict, lattice_to_dot
from strategies import contexts


@pytest.fixture(scope="module")
def ctx():
    return demo_context()


def test_split_midpoint(ctx):
    left, right = split_context(ctx)
    assert left.attribute_names == ("Stade", "Pays", "Personnage")
    assert right.attribute_names == ("Ministre", "Puissance", "Visage")
    assert left.object_ids == right.object_ids == ctx.object_ids
    # rows preserved bit-exactly across the partition
    for row, lrow, rrow in zip(ctx.rows, left.rows, right.rows):
        assert lrow | (rrow << left.n_attributes) == row


def test_split_two_attributes():
    ctx = FormalContext(("o",), ("a", "b"), (0b11,))
    left, right = split_context(ctx)
    assert left.n_attributes == right.n_attributes == 1


def test_split_requires_two_attributes():
    ctx = FormalContext(("o",), ("a",), (1,))
    with pytest.raises(NotSplittableError):
        split_context(ctx)


def test_build_demo(ctx):
    lattice = build_lattice(ctx)
    assert len(lattice.concepts) == 9
    assert len(lattice.covers) == 12
    assert list(lattice.concepts) == enumerate_concepts_naive(ctx)
    assert lattice.concepts[lattice.top_index].extent == ctx.full_object_mask
    assert lattice.concepts[lattice.bottom_index].extent == 0
    assert lattice.covers == brute_transitive_reduction(list(lattice.concepts))


def test_top_covers_demo(ctx):
    lattice = build_lattice(ctx)
    children = {lattice.concepts[c] for c, p in lattice.covers
                if p == lattice.top_index}
    names = {(ctx.object_names(c.extent), ctx.attribute_labels(c.intent))
             for c in children}
    assert names == {
        (("Doc 1", "Doc 2", "Doc 7"), ("Stade",)),
        (("Doc 3", "Doc 7"), ("Visage",)),
        (("Doc 5", "Doc 6", "Doc 8"), ("Ministre",)),
        (("Doc 9",), ("Personnage",)),
    }
    # {Doc 7} sits under both {Stade} and {Visage} concepts
    doc7 = next(i for i, c in enumerate(lattice.concepts)
                if ctx.object_names(c.extent) == ("Doc 7",))
    parents = {ctx.attribute_labels(lattice.concepts[p].intent)
               for c, p in lattice.covers if c == doc7}
    assert parents == {("Stade",), ("Visage",)}


def test_single_attribute_base_cases():
    partial = FormalContext(("1", "2", "3"), ("a",), (1, 1, 0))
    lattice = build_lattice(partial)
    assert concept_set(lattice.concepts) == {(0b111, 0), (0b011, 1)}
    assert len(lattice.covers) == 1

    full = FormalContext(("1", "2"), ("a",), (1, 1))
    assert concept_set(build_lattice(full).concepts) == {(0b11, 1)}


def test_empty_attribute_context():
    ctx = FormalContext(("1", "2"), (), (0, 0))
    lattice = build_lattice(ctx)
    assert list(lattice.concepts) == [Concept(0b11, 0)]
    assert lattice.top_index == lattice.bottom_index == 0
    assert not lattice.covers


def test_empty_incidence_chain():
    ctx = FormalContext(("1", "2", "3"), ("a", "b"), (0, 0, 0))
    lattice = build_lattice(ctx)
    assert len(lattice.concepts) == 2
    assert len(lattice.covers) == 1


def test_assemble_equals_direct_build(ctx):
    left, right = split_context(ctx)
    assembled = assemble(build_lattice(left), build_lattice(right))
    direct = build_lattice(ctx)
    assert assembled.concepts == direct.concepts
    assert assembled.covers == direct.covers
    assert assembled.context == ctx


def test_assemble_object_mismatch(ctx):
    left, right = split_context(ctx)
    other = FormalContext(("x",), ("zz",), (0,))
    with pytest.raises(DimensionError):
        assemble(build_lattice(left), build_lattice(other))


def test_assemble_zero_block_keeps_intents(ctx):
    zeros = FormalContext(ctx.object_ids, ("z1", "z2"),
                          tuple(0 for _ in ctx.object_ids))
    merged = assemble(build_lattice(ctx), build_lattice(zeros))
    base = build_lattice(ctx)
    # same concept count; nonbottom intents unchanged, bottom absorbs the block
    assert len(merged.concepts) == len(base.concepts)
    for c in base.concepts:
        if c.extent:
            assert Concept(c.extent, c.intent) in merged.concepts


def test_pairwise_intersections_demo(ctx):
    left, right = split_context(ctx)
    l1, l2 = build_lattice(left), build_lattice(right)
    extents = {c1.extent & c2.extent for c1 in l1.concepts for c2 in l2.concepts}
    assert len(extents) == 9
    assert extents == {c.extent for c in enumerate_concepts_naive(ctx)}


def test_covers_of_a_chain():
    ctx = FormalContext(("o0", "o1", "o2"), ("a", "b"), (0b11, 0, 0))
    concepts = (Concept(0b001, 0b11), Concept(0b111, 0))
    assert ConceptLattice(ctx, concepts, 1, 0).covers == {(0, 1)}


def test_oracle_equivalence_random_small():
    rnd = random.Random(42)
    for _ in range(40):
        ctx = random_context(rnd, 9, 7)
        lattice = build_lattice(ctx)
        naive = enumerate_concepts_naive(ctx)
        assert list(lattice.concepts) == naive
        assert lattice.covers == brute_transitive_reduction(naive)


@pytest.mark.parametrize("seed", ["train-wide/1/0", "train-wide/2/1"])
def test_build_matches_halving_oracle_on_benchmark_contexts(tmp_path, seed):
    """Contexts of 210 documents and 100 terms, from the benchmark's corpus
    generator and train-wide shape."""
    ctx = benchmark_context(tmp_path, "train-wide", seed)
    concepts = list(build_lattice(ctx).concepts)
    assert 2000 < len(concepts) < 3000
    assert concepts == reference_build_lattice(ctx)


def test_split_invariance_random():
    """``assemble`` at every split point equals the direct build: the same
    concepts in the same order, and the same top and bottom."""
    rnd = random.Random(43)
    for _ in range(15):
        ctx = random_context(rnd, 8, 6)
        if ctx.n_attributes < 2:
            continue
        direct = build_lattice(ctx)
        reference = concept_set(reference_build_lattice(ctx))
        for k in range(1, ctx.n_attributes):
            low = (1 << k) - 1
            left = FormalContext(ctx.object_ids, ctx.attribute_names[:k],
                                 tuple(r & low for r in ctx.rows))
            right = FormalContext(ctx.object_ids, ctx.attribute_names[k:],
                                  tuple(r >> k for r in ctx.rows))
            merged = assemble(build_lattice(left), build_lattice(right))
            assert concept_set(merged.concepts) == reference
            assert merged.concepts == direct.concepts
            assert (merged.top_index, merged.bottom_index) == (
                direct.top_index, direct.bottom_index)


def test_json_round_trip(tmp_path, ctx):
    lattice = build_lattice(ctx)
    path = tmp_path / "lattice.json"
    save_lattice(lattice, path)
    again = load_lattice(path)
    assert again.concepts == lattice.concepts
    assert again.covers == lattice.covers
    assert again.context == ctx
    # serialization is canonical: dumping the reload is byte-identical
    assert json.dumps(lattice_to_dict(again)) == json.dumps(lattice_to_dict(lattice))


def test_dot_export(ctx):
    lattice = build_lattice(ctx)
    dot = lattice_to_dot(lattice)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(lattice.covers)


# a DOT node line whose label is one quoted string: no bare quote inside
DOT_NODE = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)" shape=box\];')
DOT_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def test_dot_labels_escape_quotes_and_backslashes():
    """Each node label is one quoted string; reading its escapes back gives
    the extent's and the intent's names, one line each."""
    ctx = FormalContext(('say "hi"', "C:\\docs", "plain"),
                        ('a\\"b', "x\\n", "y"), (0b011, 0b110, 0b101))
    lattice = build_lattice(ctx)
    nodes = [line for line in lattice_to_dot(lattice).splitlines()
             if "label=" in line]
    assert len(nodes) == len(lattice.concepts)
    for line in nodes:
        match = DOT_NODE.fullmatch(line)
        assert match, line
        label = re.sub(r"\\(.)", lambda m: DOT_ESCAPES[m[1]], match[2])
        concept = lattice.concepts[int(match[1])]
        assert label.split("\n") == [
            ", ".join(ctx.object_names(concept.extent)) or "{}",
            ", ".join(ctx.attribute_labels(concept.intent)) or "{}"]


def test_lattice_from_dict_rejects_garbage():
    with pytest.raises(FormatError):
        lattice_from_dict({"objects": []})


@pytest.mark.parametrize("mutate", [
    lambda d: d["concepts"][1]["extent"].append("Doc 10"),
    lambda d: d["concepts"][1]["intent"].append("Stadium"),
    lambda d: d["concepts"][1]["intent"].append(["Stade"]),
    lambda d: d["concepts"].__setitem__(1, ["Doc 1"]),
    lambda d: d["concepts"][1].pop("intent"),
    lambda d: d["concepts"][1].__setitem__("extent", "Doc 1"),
    lambda d: d.__setitem__("top", len(d["concepts"])),
    lambda d: d.__setitem__("bottom", -1),
    lambda d: d.__setitem__("top", float("inf")),
    lambda d: d.__setitem__("top", 1.5),
    lambda d: d.__setitem__("bottom", 8.0),
    lambda d: d.__setitem__("top", True),
    lambda d: d.__setitem__("bottom", "8"),
    lambda d: d["objects"].append(d["objects"][0]),
    lambda d: d["attributes"].append(d["attributes"][0]),
    lambda d: d.__setitem__("objects", "Doc 1"),
    lambda d: d.__setitem__("concepts", {}),
    lambda d: d["objects"].append(["Doc 1"]),
    lambda d: d["concepts"][1]["extent"].append("Doc 7"),
    lambda d: d["concepts"][1]["intent"].append("Stade"),
], ids=["unknown-object", "unknown-attribute", "unhashable-name",
        "entry-not-mapping", "entry-without-intent", "extent-not-list",
        "top-out-of-range", "bottom-out-of-range", "top-infinite",
        "top-fractional", "bottom-float", "top-bool", "bottom-string",
        "duplicate-object", "duplicate-attribute", "objects-not-list",
        "concepts-not-list", "unhashable-object", "repeated-extent-object",
        "repeated-intent-attribute"])
def test_lattice_from_dict_rejects_bad_names_and_indices(ctx, mutate):
    data = lattice_to_dict(build_lattice(ctx))
    mutate(data)
    with pytest.raises(FormatError):
        lattice_from_dict(data)


def test_pipeline_never_computes_covers(ctx, tmp_path, monkeypatch):
    path = tmp_path / "lattice.json"
    save_lattice(build_lattice(ctx), path)

    def refuse(extents, intents, rows, columns):
        raise AssertionError("Hasse covers computed")
    monkeypatch.setattr("latticecell.backend.lower_covers", refuse)
    left, right = split_context(ctx)
    lattice = assemble(build_lattice(left), build_lattice(right))
    assert lattice.concepts == load_lattice(path).concepts
    model = compile_model(build_lattice(ctx), demo_labels_map(), DEMO_CATEGORIES)
    assert classify(model, query_vector(), "inner", "max").category == "Economie"
    config = PipelineConfig(baselines=("nb", "knn"), seed=7)
    assert run_experiment(DATA / "corpus", config).rows
    rc = main(["compile", str(path), str(DATA / "labels.csv"),
               "-o", str(tmp_path / "model.json")])
    assert rc == 0


def test_cli_build_computes_covers_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = backend.lower_covers
    monkeypatch.setattr(backend, "lower_covers",
                        lambda *args: calls.append(1) or real(*args))
    rc = main(["build", str(DATA / "context.csv"), "-o",
               str(tmp_path / "lattice.json"), "--dot", str(tmp_path / "h.dot")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "9 concepts, 12 edges"
    assert len(calls) == 1


def test_load_derives_covers_ignoring_stored_ones(tmp_path, ctx):
    lattice = build_lattice(ctx)
    path = tmp_path / "lattice.json"
    save_lattice(lattice, path)
    good = path.read_text(encoding="utf-8")
    data = json.loads(good)
    data["covers"] = [[0, 8], [3, 1]]
    path.write_text(json.dumps(data), encoding="utf-8")
    again = load_lattice(path)
    assert again.covers == lattice.covers
    save_lattice(again, path)
    assert path.read_text(encoding="utf-8") == good


def test_active_backend_is_pure():
    assert backend.active_backend() == "pure"


def _random_mask_lists(rnd, bits, n):
    return [rnd.getrandbits(bits) for _ in range(n)]


@pytest.mark.parametrize("bits", [5, 64, 65, 130])
def test_merge_pairs_matches_dict_recomputation(bits):
    """The halving oracle's pairwise crossing: first-seen order of extents,
    intents OR-folded on duplicates."""
    rnd = random.Random(21 + bits)
    e1 = _random_mask_lists(rnd, bits, 8)
    i1 = _random_mask_lists(rnd, 40, 8)
    e2 = _random_mask_lists(rnd, bits, 9)
    i2 = _random_mask_lists(rnd, 40, 9)
    want: dict[int, int] = {}
    for a, x in zip(e1, i1):
        for b, y in zip(e2, i2):
            want[a & b] = want.get(a & b, 0) | x | y
    got = reference_merge_pairs(e1, i1, e2, i2)
    assert got == (list(want), list(want.values()))
    if bits == 5:  # 72 pairs over 32 possible extents: some must fold
        assert len(got[0]) < len(e1) * len(e2)


def _covers(concepts, ctx):
    return sorted(backend.lower_covers([c.extent for c in concepts],
                                       [c.intent for c in concepts],
                                       ctx.rows, ctx.columns))


def _dual(concepts, ctx):
    """The concepts of the transposed context, and that context."""
    return ([Concept(c.intent, c.extent) for c in concepts],
            FormalContext(ctx.attribute_names, ctx.object_ids, ctx.columns))


def _reversed(edges):
    return sorted((parent, child) for child, parent in edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ctx=contexts(), shuffle=st.randoms(use_true_random=False))
def test_pure_lower_covers_matches_brute_force(ctx, shuffle):
    """Neighbour generation against the pairwise scan and the triple loop,
    on every concept of a random context in a random order."""
    concepts = enumerate_concepts_naive(ctx)
    shuffle.shuffle(concepts)
    got = _covers(concepts, ctx)
    assert got == reference_lower_covers([c.extent for c in concepts])
    assert set(got) == brute_transitive_reduction(concepts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ctx=contexts().filter(lambda c: c.n_attributes > c.n_objects),
       shuffle=st.randoms(use_true_random=False))
def test_lower_covers_row_and_column_sweeps_match_brute_force(ctx, shuffle):
    """A context with more attributes than objects is swept by its rows,
    and its transpose by its columns; both equal the triple loop, and the
    covers of the transpose are the covers reversed."""
    concepts = enumerate_concepts_naive(ctx)
    shuffle.shuffle(concepts)
    dual, transposed = _dual(concepts, ctx)
    by_rows, by_columns = _covers(concepts, ctx), _covers(dual, transposed)
    assert set(by_rows) == brute_transitive_reduction(concepts)
    assert set(by_columns) == brute_transitive_reduction(dual)
    assert by_columns == _reversed(by_rows)


@pytest.mark.parametrize("shape, side", [((9, 6), "columns"),
                                         ((6, 9), "rows"), ((7, 7), "rows")])
def test_lower_covers_sweeps_the_smaller_side(monkeypatch, shape, side):
    ctx = random_context_of_size(random.Random(5), *shape)
    swept = []
    real = backend._neighbours
    monkeypatch.setattr(backend, "_neighbours",
                        lambda masks, lines: swept.append(lines)
                        or real(masks, lines))
    lattice = build_lattice(ctx)
    assert set(lattice.covers) == brute_transitive_reduction(
        list(lattice.concepts))
    assert swept == [getattr(ctx, side)]


@pytest.mark.parametrize("seed", ["cli-classify/1/0", "cli-classify/2/1"])
def test_lower_covers_matches_pairwise_scan_on_benchmark_lattices(tmp_path,
                                                                   seed):
    """Lattices of about 1.3k concepts over 180 documents and 60 terms, from
    the benchmark's corpus generator and cli-classify shape."""
    ctx = benchmark_context(tmp_path, "cli-classify", seed)
    concepts = build_lattice(ctx).concepts
    assert 1200 < len(concepts) < 1700
    want = reference_lower_covers([c.extent for c in concepts])
    assert _covers(concepts, ctx) == want  # the column sweep
    assert _covers(*_dual(concepts, ctx)) == _reversed(want)  # the row sweep
