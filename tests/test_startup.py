"""Start-up: each command imports only the modules it uses.

A clean interpreter (``-I -S``: no site hooks, no user paths) imports the
package from this checkout and runs the commands one after another,
noting after each which of the modules below are loaded. A module only
one command needs is imported inside the function that uses it, so
``build``, ``classify`` and ``inspect`` load none of them.
"""

import json
import subprocess
import sys
from pathlib import Path

from helpers import DATA

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"

WATCHED = ("fractions", "decimal", "numbers", "typing", "csv", "random",
           "importlib.resources", "tempfile", "zipfile")

# each step's arguments to ``cli.main``; the modules watched are noted
# after each step, cumulatively
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
watched, steps = json.loads(sys.argv[2]), json.loads(sys.argv[3])
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
print(json.dumps(loaded))
"""


def _loaded_after_each_step(tmp_path) -> dict[str, list[str]]:
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
         json.dumps(WATCHED), json.dumps(steps)],
        cwd=tmp_path, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_load_only_the_modules_they_use(tmp_path):
    """Nothing watched loads for the import, ``load_corpus``, ``build``,
    ``classify`` on text files or ``inspect``; ``csv`` loads for
    ``compile`` (its labels file) and CSV inputs; ``evaluate`` adds
    ``fractions`` (with ``decimal`` and ``numbers``) for its metrics and
    ``random`` for its split."""
    loaded = _loaded_after_each_step(tmp_path)
    for step in ("import", "load_corpus", "build", "classify",
                 "inspect model", "inspect lattice"):
        assert loaded[step] == [], step
    assert loaded["compile"] == loaded["classify csv"] == ["csv"]
    assert loaded["evaluate"] == ["csv", "decimal", "fractions", "numbers",
                                  "random"]
