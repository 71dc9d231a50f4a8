"""Exception types shared across the package."""


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


def require_names(key: str, names) -> None:
    """``FormatError`` unless a file's ``key`` entry is a list of strings,
    checked as a whole, as a model file can hold thousands of names."""
    if not isinstance(names, list) or not set(map(type, names)) <= {str}:
        raise FormatError(f"{key}: expected a list of strings")


class CorpusError(LatticeCellError, OSError):
    """A corpus directory or document could not be ingested."""
