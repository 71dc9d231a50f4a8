"""The package namespace: its public names, read from their submodules on
first use, and never stored, so a patch of a submodule is what it gives."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import latticecell

SRC = Path(__file__).resolve().parent.parent / "src"

# each public name by the submodule that defines it, as the package
# exported them when it imported every submodule eagerly
EXPORTS = {
    "backend": ["active_backend"],
    "classify": ["MEASURES", "Prediction", "activate", "classify",
                 "parse_activation", "vote"],
    "compiler": ["CellularModel", "ClassDistribution", "compile_model",
                 "load_fixture_model", "load_model", "model_from_dict",
                 "model_to_dict", "save_model"],
    "context": ["Concept", "FormalContext", "derive_extent", "derive_intent",
                "enumerate_concepts_naive", "load_context_csv",
                "save_context_csv"],
    "engine": ["EngineState", "delta_fact", "delta_rule", "render_fact_table",
               "render_rule_table", "render_snapshot", "run_inference",
               "set_facts"],
    "errors": ["CapacityError", "CorpusError", "DimensionError",
               "EmptyInputError", "FormatError", "LabelingError",
               "LatticeCellError", "NotSplittableError"],
    "evaluate": ["BASELINES", "ConfusionMatrix", "ExperimentReport",
                 "MetricsReport", "PipelineConfig", "metrics",
                 "run_experiment", "split_corpus"],
    "lattice": ["ConceptLattice", "appose", "assemble", "build_lattice",
                "lattice_to_dot", "load_lattice", "save_lattice",
                "split_context"],
    "textprep": ["Document", "DocumentVector", "Vocabulary", "build_context",
                 "default_stopwords", "load_corpus", "load_documents",
                 "load_stopwords", "remove_stopwords", "select_features",
                 "tokenize", "train_vectors", "vectorize"],
}
NAMES = [name for names in EXPORTS.values() for name in names]
# the package's ``classify`` is the function, not the module
SUBMODULES = ["backend", "bits", "compiler", "context", "engine", "errors",
              "evaluate", "lattice", "textprep", "value"]


def _fresh(code: str, site: bool = False) -> str:
    """The last line ``code`` prints in a clean interpreter that imports
    the package from this checkout; with ``site``, one that can import
    installed packages too."""
    done = subprocess.run(
        [sys.executable, "-I", *([] if site else ["-S"]), "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_all_lists_the_67_names_each_its_submodules_object():
    assert len(NAMES) == 67
    assert sorted(latticecell.__all__) == sorted(NAMES)
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"latticecell.{module}")
        for name in names:
            assert getattr(latticecell, name) is getattr(sub, name), name
    assert set(NAMES) <= set(dir(latticecell))


@pytest.mark.parametrize("module", SUBMODULES)
def test_the_submodules_resolve_after_a_bare_import(module):
    """Each submodule a bare ``import latticecell`` exposed when it loaded
    them all is an attribute of the package. One interpreter each, as
    importing one submodule binds those it imports."""
    assert _fresh(
        f"import latticecell\nm = latticecell.{module}\n"
        f"print(m is sys.modules['latticecell.{module}'])") == "True"


@pytest.mark.parametrize("imports", [
    "import latticecell",
    "import latticecell.classify",
    "import latticecell.classify, latticecell.cli",
])
def test_classify_is_the_function(imports):
    """Importing the submodule ``latticecell.classify`` binds the package's
    ``classify`` to the module; the package binds the function after it."""
    assert _fresh(f"{imports}\nimport latticecell\n"
                  "print(latticecell.classify.__module__)") == (
        "latticecell.classify")


def test_star_import_binds_every_name():
    scope = {}
    exec("from latticecell import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == sorted(NAMES)
    assert scope["classify"] is sys.modules["latticecell.classify"].classify


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as err:
        latticecell.no_such_name
    assert str(err.value) == ("module 'latticecell' has no attribute "
                              "'no_such_name'")
    assert not hasattr(latticecell, "value_of_nothing")


def test_a_patched_submodule_is_what_the_package_gives():
    """A name is read from its submodule on each access, so a patch there
    shows through the package, and undoing it brings back the original.

    Run in a fresh interpreter: undoing a patch set on the package itself
    stores the original in its namespace, as perfbench's tests do."""
    assert _fresh("""
import pytest
import latticecell
original = latticecell.run_experiment
def patched(*args, **kwargs):
    raise AssertionError("not called")
with pytest.MonkeyPatch.context() as mp:
    mp.setattr(sys.modules["latticecell.evaluate"], "run_experiment", patched)
    assert latticecell.run_experiment is patched
assert latticecell.run_experiment is original
assert "run_experiment" not in vars(latticecell)
print("ok")
""", site=True) == "ok"
