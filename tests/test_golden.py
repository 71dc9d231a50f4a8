"""The bundled demo's outputs, byte for byte.

``tests/golden/`` holds what ``build --dot``, ``compile`` and ``evaluate
--baselines nb,knn --seed 7`` write for the bundled data. A change that
alters any of these bytes changes behaviour, and must regenerate the files
on purpose.
"""

from pathlib import Path

import pytest

from helpers import DATA
from latticecell.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for argv in (
            ["build", DATA / "context.csv", "-o", out / "lattice.json",
             "--dot", out / "lattice.dot"],
            ["compile", out / "lattice.json", DATA / "labels.csv",
             "-o", out / "model.json"],
            ["evaluate", DATA / "corpus", "-o", out / "report",
             "--baselines", "nb,knn", "--seed", "7"]):
        assert main([str(a) for a in argv]) == 0
    return out


@pytest.mark.parametrize("golden, produced", [
    ("demo_lattice.json", "lattice.json"),
    ("demo_lattice.dot", "lattice.dot"),
    ("demo_model.json", "model.json"),
    ("demo_report.json", "report/report.json"),
    ("demo_report.txt", "report/report.txt"),
])
def test_demo_output_matches_golden_bytes(outputs, golden, produced):
    assert (outputs / produced).read_bytes() == (GOLDEN / golden).read_bytes()
