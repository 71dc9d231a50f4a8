"""Loading lattice and model files with the cyclic garbage collector paused.

``load_lattice``, ``load_model`` and ``inspect`` read through one helper
that pauses the collector. Whether the load succeeds or raises, the
collector is left as the caller had it. Loading makes no reference cycle,
so a collection right after a load finds nothing unreachable.
"""

import gc
import json

import pytest

from helpers import (DEMO_CATEGORIES, benchmark_corpus, demo_context,
                     demo_labels_map)
from latticecell import (FormatError, build_lattice, compile_model,
                         load_lattice, load_model, save_lattice, save_model)
from latticecell.cli import main


@pytest.fixture
def collector():
    """Put the collector back as it was once the test ends."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _save(directory, ctx, labels, categories):
    lattice = build_lattice(ctx)
    save_lattice(lattice, directory / "lattice.json")
    save_model(compile_model(lattice, labels, categories),
               directory / "model.json")
    return directory


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    directory = _save(tmp_path_factory.mktemp("demo"), demo_context(),
                      demo_labels_map(), DEMO_CATEGORIES)
    (directory / "truncated.json").write_text('{"objects": [', encoding="utf-8")
    return directory


@pytest.fixture(scope="module")
def benchmark_files(tmp_path_factory):
    """The lattice and model of one cli-classify benchmark corpus: about
    1.3k concepts and rules."""
    tmp = tmp_path_factory.mktemp("benchmark")
    docs, ctx = benchmark_corpus(tmp, "cli-classify", "cli-classify/1/0")
    labels = {d.id: d.category for d in docs}
    return _save(tmp, ctx, labels, sorted(set(labels.values())))


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


# a file a loader reads, and the error it raises, if any
CASES = [
    (load_lattice, "lattice.json", None),
    (load_model, "model.json", None),
    (load_lattice, "truncated.json", FormatError),  # not JSON
    (load_model, "truncated.json", FormatError),
    (load_lattice, "model.json", FormatError),  # JSON, but not a lattice
    (load_model, "lattice.json", FormatError),
    (load_lattice, "missing.json", OSError),
    (load_model, "missing.json", OSError),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("load, name, error", CASES)
def test_loading_leaves_the_collector_as_it_was(collector, demo_files, load,
                                                name, error, enabled):
    _set_collector(enabled)
    if error is None:
        load(demo_files / name)
    else:
        with pytest.raises(error):
            load(demo_files / name)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name, code", [
    ("lattice.json", 0), ("model.json", 0), ("truncated.json", 2),
    ("missing.json", 2)])
def test_inspect_leaves_the_collector_as_it_was(collector, demo_files, capsys,
                                                name, code, enabled):
    _set_collector(enabled)
    assert main(["inspect", str(demo_files / name)]) == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("files", ["demo_files", "benchmark_files"])
@pytest.mark.parametrize("load, name", [(load_lattice, "lattice.json"),
                                        (load_model, "model.json")])
def test_a_load_leaves_no_cyclic_garbage(collector, request, files, load,
                                         name):
    path = request.getfixturevalue(files) / name
    gc.enable()
    gc.collect()
    loaded = load(path)
    assert gc.collect() == 0
    assert loaded == load(path)


@pytest.mark.parametrize("command", ["inspect", "classify"])
@pytest.mark.parametrize("facts, error", [
    (None, "malformed fact entry: 'NoneType' object is not iterable"),
    (5, "malformed fact entry: 'int' object is not iterable")])
def test_facts_that_are_not_a_list_exit_2(demo_files, tmp_path, capsys,
                                          command, facts, error):
    data = json.loads((demo_files / "model.json").read_text(encoding="utf-8"))
    data["facts"] = facts
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    doc = tmp_path / "doc.txt"
    doc.write_text("football match", encoding="utf-8")
    argv = {"inspect": ["inspect", str(path)],
            "classify": ["classify", str(path), str(doc)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
