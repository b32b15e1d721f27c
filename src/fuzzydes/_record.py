"""The one base of the package's frozen value and result types.

A Record subclass declares its fields as class annotations, in order; a
class attribute gives a field's default.  Records behave as frozen
standard-library data classes do: construction by position or keyword,
__post_init__ run once the fields are set, equality only between instances
of the same class, hash equal to the hash of the tuple of fields, the repr
Name(field=value, ...), and AttributeError on assigning or deleting an
attribute.  Fields named in the class keyword hidden stay out of equality,
hash and repr.

The methods are written once here instead of generated per class, so
defining a record compiles no code at import.  Fields live in the instance
__dict__, so functools.cached_property works on records.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._compared = tuple(name for name in cls._compared + own if name not in hidden)
        defaults = {name: cls.__dict__[name] for name in own if name in cls.__dict__}
        cls._defaults = {**cls._defaults, **defaults}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        values = self.__dict__
        for name, value in zip(self._fields, args):
            values[name] = value
        self.__post_init__()

    def _arguments(self, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, of a call that gave keywords or
        left fields to their defaults."""
        given = dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(self._fields) or given.keys() & kwargs.keys() or len(values) > len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}")
        missing = [key for key in self._fields if key not in values]
        if missing:
            raise TypeError(f"{type(self).__name__}() is missing {', '.join(missing)}")
        return tuple(values[key] for key in self._fields)

    def __post_init__(self) -> None:
        """Validation hook, run once every field is set."""

    def _key(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        values = self.__dict__
        shown = ", ".join(f"{name}={values[name]!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
