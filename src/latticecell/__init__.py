"""Concept-lattice text categorization with a Boolean cellular rule engine.

The pipeline: preprocess documents into binary term vectors, stack them
into a formal context, build the concept lattice by folding in one
attribute column at a time, compile the lattice into a two-layer rule
engine, and classify new documents by similarity-driven activation,
forward chaining, and a majority vote over class distributions.
"""

# the one statement of the version: pyproject.toml and ``cli --version``
# read it
__version__ = "0.1.0"

from .backend import active_backend
from .classify import (MEASURES, Prediction, activate, classify,
                       parse_activation, vote)
from .compiler import (CellularModel, ClassDistribution, compile_model,
                       load_fixture_model, load_model, model_from_dict,
                       model_to_dict, save_model)
from .context import (Concept, FormalContext, derive_extent, derive_intent,
                      enumerate_concepts_naive, load_context_csv,
                      save_context_csv)
from .engine import (EngineState, delta_fact, delta_rule, render_fact_table,
                     render_rule_table, render_snapshot, run_inference,
                     set_facts)
from .errors import (CapacityError, CorpusError, DimensionError,
                     EmptyInputError, FormatError, LabelingError,
                     LatticeCellError, NotSplittableError)
from .evaluate import (BASELINES, ConfusionMatrix, ExperimentReport,
                       MetricsReport, PipelineConfig, metrics, run_experiment,
                       split_corpus)
from .lattice import (ConceptLattice, appose, assemble, build_lattice,
                      lattice_to_dot, load_lattice, save_lattice,
                      split_context)
from .textprep import (Document, DocumentVector, Vocabulary, build_context,
                       default_stopwords, load_corpus, load_documents,
                       load_stopwords, remove_stopwords, select_features,
                       tokenize, train_vectors, vectorize)
