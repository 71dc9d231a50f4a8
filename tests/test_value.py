"""The record classes' value semantics: equality, hashing, repr, frozen
fields, and the fields left out of equality and repr."""

import pickle
from fractions import Fraction

import pytest

from helpers import demo_context
from latticecell import (CellularModel, ClassDistribution, ConceptLattice,
                         ConfusionMatrix, Document, DocumentVector,
                         ExperimentReport, FormalContext, MetricsReport,
                         PipelineConfig, Prediction, Vocabulary, build_lattice,
                         compile_model, load_model, save_model)
from latticecell.compiler import model_to_dict
from latticecell.evaluate import ReportRow
from latticecell.value import Value, lazy

DIST = ClassDistribution.from_counts((1, 3), 4)
LATTICE = build_lattice(demo_context())
HALF = Fraction(1, 2)
METRICS = MetricsReport(HALF, HALF, HALF, HALF, HALF)

# class -> (its fields in order with values, a field and another value)
CASES = {
    Document: ({"id": "doc1", "category": "sport", "text": "le stade"},
               "text", "la mer"),
    Vocabulary: ({"terms": ("stade", "mer"), "ig_scores": (0.5, 0.25)},
                 "ig_scores", None),
    DocumentVector: ({"bits": 5, "size": 3, "category": "sport",
                      "doc_id": "doc1"}, "bits", 1),
    FormalContext: ({"object_ids": ("o1", "o2"), "attribute_names": ("a", "b"),
                     "rows": (1, 3)}, "rows", (1, 2)),
    ConceptLattice: ({"context": LATTICE.context, "concepts": LATTICE.concepts,
                      "top_index": LATTICE.top_index,
                      "bottom_index": LATTICE.bottom_index},
                     "top_index", LATTICE.bottom_index),
    ClassDistribution: ({"counts": (1, 3), "total": 4}, "counts", (3, 1)),
    CellularModel: ({"categories": ("A", "B"), "fact_labels": ("[t]", "[S1]"),
                     "intent_facts": ((0, 1),), "extent_facts": ((1, DIST),),
                     "vocabulary": ("t",)}, "vocabulary", ("u",)),
    Prediction: ({"category": "B", "distribution": DIST,
                  "fired_vertices": (1,), "activated_intents": (0,)},
                 "category", None),
    ConfusionMatrix: ({"categories": ("A", "B"), "counts": ((1, 0), (0, 1)),
                       "unclassified": (0, 0)}, "unclassified", (1, 0)),
    MetricsReport: ({"precision": HALF, "recall": HALF, "accuracy": HALF,
                     "error": HALF, "f_measure": HALF}, "error", Fraction(1)),
    PipelineConfig: ({"measures": ("cosine",), "activation": "topk:2",
                      "features": 10, "stopwords_path": None, "split": 0.5,
                      "seed": 1, "baselines": ("nb",), "jobs": 1},
                     "seed", 2),
    ReportRow: ({"name": "cosine", "metrics": METRICS, "unclassified": 0},
                "unclassified", 1),
    ExperimentReport: ({"categories": ("A", "B"), "n_train": 2, "n_test": 1,
                        "config": PipelineConfig(), "rows": (),
                        "timings": {}}, "n_test", 2),
}
# a field holds a dict, so the record is unhashable, as a tuple holding a
# list is
UNHASHABLE = (ExperimentReport,)
# derived on first read, left out of equality and repr
EXCLUDED = {FormalContext: "columns", CellularModel: "engine_template"}


def build(cls, fields):
    if issubclass(cls, ClassDistribution):
        return cls.from_counts(**fields)
    return cls(**fields)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    fields, name, other_value = CASES[cls]
    a, b = build(cls, fields), build(cls, fields)
    assert a == b and not a != b
    assert build(cls, {**fields, name: other_value}) != a
    # an instance of another class with the same values
    assert build(type("Other", (cls,), {}), fields) != a
    assert a != tuple(fields.values())
    assert cls.__match_args__ == tuple(fields)
    assert repr(a) == (f"{cls.__name__}("
                       + ", ".join(f"{k}={v!r}" for k, v in fields.items())
                       + ")")
    if cls in EXCLUDED:
        excluded = EXCLUDED[cls]
        assert hasattr(a, excluded) and f"{excluded}=" not in repr(a)
        object.__setattr__(b, excluded, None)
        assert a == b and hash(a) == hash(b)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(a, name, other_value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(a, name)
    assert a == b and getattr(a, name) == fields[name]


def test_no_record_class_is_mutable():
    with pytest.raises(TypeError):
        type("Mutable", (Value,), {"_fields": ("a", "b")}, frozen=False)


class _Pair(Value):
    _fields = ("a", "b")
    derived: list = []

    def __init__(self, a, b) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @lazy
    def total(self):
        _Pair.derived.append(self)
        return self.a + self.b


def test_a_lazy_value_is_derived_once_on_first_read():
    pair = _Pair(1, 2)
    assert _Pair.derived == []
    assert pair.total == 3 and pair.total == 3 and _Pair.derived == [pair]
    assert pair == _Pair(1, 2) and hash(pair) == hash(_Pair(1, 2))
    assert repr(pair) == "_Pair(a=1, b=2)"
    with pytest.raises(AttributeError):
        pair.total = 4
    sent = pickle.loads(pickle.dumps(pair))
    assert sent.total == 3 and _Pair.derived == [pair]


def test_rule_index_and_covers_stay_lazy(tmp_path):
    """Compiling, writing and loading a model derive neither its rule index
    nor its engine, and loading a context does not transpose it."""
    ctx = demo_context()
    assert "columns" not in vars(ctx)
    lattice = build_lattice(ctx)
    labels = dict(zip(lattice.context.object_ids, "AB" * 5))
    model = compile_model(lattice, labels, ("A", "B"))
    path = tmp_path / "model.json"
    save_model(model, path)
    model_to_dict(model)
    loaded = load_model(path)
    assert "covers" not in vars(lattice)
    for m in (model, loaded):
        assert not {"rule_index", "engine_template"} & set(vars(m))
    assert lattice.covers is lattice.covers
    assert model.rule_index is model.rule_index
    assert model.engine_template is model.engine_template
    assert ctx.columns is ctx.columns
