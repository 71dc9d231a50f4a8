"""Exception types and the input checks shared across the package."""

import gc
from collections import Counter
from collections.abc import Callable, Iterable
from pathlib import Path


class LatticeCellError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LatticeCellError, ValueError):
    """A bit vector or matrix does not match the expected dimensions."""


class CapacityError(LatticeCellError, ValueError):
    """An exhaustive procedure was asked to run beyond its size guard."""


class NotSplittableError(LatticeCellError, ValueError):
    """A context with fewer than two attributes cannot be split."""


class LabelingError(LatticeCellError, ValueError):
    """An object is missing a category label."""


class EmptyInputError(LatticeCellError, ValueError):
    """An operation that needs at least one element received none."""


class FormatError(LatticeCellError, ValueError):
    """A context, lattice, or model file is malformed."""


def require_strings(key: str, values) -> None:
    """``FormatError`` unless a file's ``key`` entry is a list of strings,
    checked as a whole, as a model file can hold thousands of them."""
    if not isinstance(values, list) or not set(map(type, values)) <= {str}:
        raise FormatError(f"{key}: expected a list of strings")


def require_unique(key: str, names, error: type = ValueError) -> None:
    """``error`` naming the first name that ``names`` repeats, if any."""
    if len(set(names)) < len(names):
        repeated = [name for name, n in Counter(names).items() if n > 1]
        raise error(f"{key}: repeated name {repeated[0]!r}")


def require_names(key: str, names) -> None:
    """``require_strings``, and no name repeated."""
    require_strings(key, names)
    require_unique(key, names, FormatError)


def read_converted(path: str | Path, convert: Callable):
    """``convert`` of the JSON document in the UTF-8 file ``path``, run
    with the cyclic garbage collector paused and its prior state restored
    after, even on an error. ``FormatError`` naming the file when it does
    not hold a JSON document.

    Decoding a lattice or model file and converting it allocate tens of
    thousands of lists, dicts and tuples, and the collector would scan
    them again and again for cycles. Loading makes no reference cycle,
    so reference counting alone frees all of it.

    The collector's switch is global to the process, so this assumes no
    other thread turns it on or off during the load: one that did would
    see its choice undone when the load ends. Loads running in several
    threads at once leave it as it was before the first began."""
    import json

    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: {exc}") from exc
        return convert(doc)
    finally:
        if enabled:
            gc.enable()


def write_json(path: str | Path, data) -> None:
    """Write ``data`` to ``path`` as UTF-8 JSON, indented by two spaces,
    non-ASCII text kept as is, with a final newline.

    This defines the layout of every model, lattice, report and timings
    file. ``save_model`` and ``save_lattice`` render their schemas from
    text templates instead, and the bytes this writes for ``model_to_dict``
    and ``lattice_to_dict`` are their oracle."""
    import json

    Path(path).write_text(json.dumps(data, ensure_ascii=False, indent=2) + "\n",
                          encoding="utf-8")


def json_list(items: Iterable[str], indent: str) -> str:
    """The JSON list of the already-encoded ``items`` in ``write_json``'s
    layout, for a list that opens on a line indented by ``indent``: one
    item per line, two spaces deeper, and ``[]`` when there is none."""
    inner = indent + "  "
    body = (",\n" + inner).join(items)
    return f"[\n{inner}{body}\n{indent}]" if body else "[]"


class CorpusError(LatticeCellError, OSError):
    """A corpus directory or document could not be ingested."""
