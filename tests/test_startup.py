"""Start-up: each command imports only the modules it uses.

A clean interpreter (``-I -S``: no site hooks, no user paths) imports the
package from this checkout and runs the commands one after another,
noting after each which of the modules below are loaded. A module only
one command needs is imported inside the function that uses it, so
``build``, ``classify`` and ``inspect`` load none of the standard
library's watched here. The package's namespace imports a submodule on
first use, and ``json`` is imported where a file is read or written, so
``import latticecell`` loads ``classify`` and what it imports, and
``load_corpus`` adds only the text modules.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import DATA

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"

STDLIB = ("fractions", "decimal", "numbers", "typing", "csv", "random",
          "importlib.resources", "tempfile", "zipfile")
PACKAGE = tuple(f"latticecell.{name}" for name in (
    "backend", "bits", "classify", "cli", "compiler", "context", "engine",
    "errors", "evaluate", "lattice", "textprep", "value"))
WATCHED = (*STDLIB, "json", *PACKAGE)

# each step's arguments to ``cli.main``; the modules watched are noted
# after each step, cumulatively. The arguments are Python literals, so
# that reading them loads no ``json``.
SCRIPT = """
import ast, sys
sys.path.insert(0, sys.argv[1])
watched, steps = map(ast.literal_eval, sys.argv[2:4])
loaded = {}
def note(step):
    loaded[step] = sorted(m for m in watched if m in sys.modules)
import latticecell
note("import")
latticecell.load_corpus(steps.pop("load_corpus"))
note("load_corpus")
from latticecell.cli import main
for step, argv in steps.items():
    assert main(argv) == 0, step
    note(step)
import json
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict[str, list[str]]:
    """The watched modules loaded after each step, in one interpreter."""
    tmp_path = tmp_path_factory.mktemp("startup")
    corpus = DATA / "corpus"
    model = GOLDEN / "demo_model.json"
    steps = {
        "load_corpus": corpus,
        "build": ["build", corpus, "-o", tmp_path / "lattice.json",
                  "--dot", tmp_path / "lattice.dot"],
        "classify": ["classify", model, corpus / "economie",
                     corpus / "sport" / "doc1.txt", "--similarity", "cosine",
                     "-o", tmp_path / "rows.jsonl"],
        "inspect model": ["inspect", model],
        "inspect lattice": ["inspect", tmp_path / "lattice.json"],
        "compile": ["compile", GOLDEN / "demo_lattice.json",
                    DATA / "labels.csv", "-o", tmp_path / "model.json"],
        "classify csv": ["classify", tmp_path / "model.json",
                         DATA / "context.csv", "-o", tmp_path / "rows.jsonl"],
        "evaluate": ["evaluate", corpus, "-o", tmp_path / "report",
                     "--baselines", "nb,knn", "--seed", "7"],
    }
    steps = {k: str(v) if isinstance(v, Path) else [str(a) for a in v]
             for k, v in steps.items()}
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SCRIPT, str(SRC),
         repr(WATCHED), repr(steps)],
        cwd=tmp_path, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_load_only_the_modules_they_use(loaded):
    """No standard-library module watched loads for the import,
    ``load_corpus``, ``build``, ``classify`` on text files or ``inspect``;
    ``csv`` loads for ``compile`` (its labels file) and CSV inputs;
    ``evaluate`` adds ``fractions`` (with ``decimal`` and ``numbers``) for
    its metrics and ``random`` for its split."""
    stdlib = {step: [m for m in modules if m in STDLIB]
              for step, modules in loaded.items()}
    for step in ("import", "load_corpus", "build", "classify",
                 "inspect model", "inspect lattice"):
        assert stdlib[step] == [], step
    assert stdlib["compile"] == stdlib["classify csv"] == ["csv"]
    assert stdlib["evaluate"] == ["csv", "decimal", "fractions", "numbers",
                                  "random"]


def test_the_package_imports_its_modules_on_first_use(loaded):
    """``import latticecell`` loads ``classify`` and the modules it
    imports; ``load_corpus`` adds ``context`` and ``textprep``; neither
    loads ``json``, which loads with the first command, the CLI."""
    assert loaded["import"] == ["latticecell.bits", "latticecell.classify",
                                "latticecell.compiler", "latticecell.errors",
                                "latticecell.value"]
    assert loaded["load_corpus"] == sorted(
        [*loaded["import"], "latticecell.context", "latticecell.textprep"])
    assert "json" in loaded["build"]
