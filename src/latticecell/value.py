"""The value semantics of the package's record classes, stated once.

``dataclasses`` would give the same semantics, but importing it pulls in
``inspect`` and its parsers, and decorating a class generates and execs
its methods: together more CPU than a CLI call spends on its work. A
record class here writes its ``__init__`` and lists its fields instead.

The same start-up rule holds across the package: a module imported at
module level is one every command needs. One that a single command
needs (``csv``, ``fractions``, ``random``), or that only file reading and
writing needs (``json``), is imported inside the function that uses it,
and ``typing`` is not imported at all. The package namespace imports a
submodule the first time one of its names is read, so a library user's
``import latticecell`` loads ``classify`` and the modules it imports.
"""

from operator import attrgetter


class Value:
    """Base of a record class that lists its compared fields, two or more,
    in ``_fields``.

    Instances of one class are equal when those fields are; an instance
    of another class never is. The repr is ``Name(field=value, ...)`` over
    the same fields, which are also the positional ``match`` pattern. An
    instance hashes over its fields and raises ``AttributeError`` when one
    is assigned or deleted, so ``__init__`` sets them with
    ``object.__setattr__``. A value derived from the fields on first read
    is declared with ``lazy``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # reads two or more fields into a tuple at C speed; an attrgetter
        # does not bind as a method, hence ``self._key(self)``
        cls._key = attrgetter(*cls._fields)
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._fields) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class lazy:
    """A derived attribute of a ``Value``, computed on its first read and
    then stored on the instance, where later reads find it.

    ``functools.cached_property`` writes the instance ``__dict__`` itself,
    which on CPython 3.11 makes every later attribute read of that
    instance about 3x slower; ``object.__setattr__`` stores the value as
    ``__init__`` stores the fields, so reads stay fast. A pickle holds the
    value once read.
    """

    def __init__(self, derive) -> None:
        self.derive = derive

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.derive(instance)
        object.__setattr__(instance, self.derive.__name__, value)
        return value
