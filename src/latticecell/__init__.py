"""Concept-lattice text categorization with a Boolean cellular rule engine.

The pipeline: preprocess documents into binary term vectors, stack them
into a formal context, build the concept lattice by folding in one
attribute column at a time, compile the lattice into a two-layer rule
engine, and classify new documents by similarity-driven activation,
forward chaining, and a majority vote over class distributions.

The namespace imports a submodule the first time one of its names is
read (PEP 562), so ``import latticecell`` loads only ``classify`` and the
modules it imports. A name read here is not stored in this namespace:
each read fetches it from its submodule, so patching the submodule is
what the package returns.
"""

# the one statement of the version: pyproject.toml and ``cli --version``
# read it
__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("backend", "active_backend"),
    ("classify", "MEASURES Prediction activate classify parse_activation "
                 "vote"),
    ("compiler", "CellularModel ClassDistribution compile_model "
                 "load_fixture_model load_model model_from_dict model_to_dict "
                 "save_model"),
    ("context", "Concept FormalContext derive_extent derive_intent "
                "enumerate_concepts_naive load_context_csv save_context_csv"),
    ("engine", "EngineState delta_fact delta_rule render_fact_table "
               "render_rule_table render_snapshot run_inference set_facts"),
    ("errors", "CapacityError CorpusError DimensionError EmptyInputError "
               "FormatError LabelingError LatticeCellError "
               "NotSplittableError"),
    ("evaluate", "BASELINES ConfusionMatrix ExperimentReport MetricsReport "
                 "PipelineConfig metrics run_experiment split_corpus"),
    ("lattice", "ConceptLattice appose assemble build_lattice lattice_to_dot "
                "load_lattice save_lattice split_context"),
    ("textprep", "Document DocumentVector Vocabulary build_context "
                 "default_stopwords load_corpus load_documents load_stopwords "
                 "remove_stopwords select_features tokenize train_vectors "
                 "vectorize"),
) for name in names.split()}

# the submodules besides ``classify``, which is bound to its function below
_SUBMODULES = frozenset(("backend", "bits", "compiler", "context", "engine",
                         "errors", "evaluate", "lattice", "textprep", "value"))

__all__ = list(_EXPORTS)

# importing the submodule binds ``classify`` here to the module, so the
# function is bound after it; a module ``__getattr__`` is asked only for
# a name the namespace lacks
from .classify import classify  # noqa: E402


def __getattr__(name):
    # the builtin ``__import__``: ``importlib`` is not loaded in a ``-S``
    # interpreter
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(__import__(f"{__name__}.{module}", fromlist=[name]),
                       name)
    if name in _SUBMODULES:
        return __import__(f"{__name__}.{name}", fromlist=[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
