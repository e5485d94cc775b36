"""Immutable value records: the base of the library's record classes.

A record names its fields in ``_fields``, two or more in constructor
order, and keeps them in slots that its ``__init__`` fills with
``_set``.  It compares, hashes, prints, copies and pickles by those
fields, as a frozen dataclass does, at no import cost beyond ``operator``.
"""

from operator import attrgetter

# Fills a slot from __init__, past the __setattr__ that refuses to.
_set = object.__setattr__


class Record:
    """An immutable value, equal only to a record of its own class with equal fields."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)

    def _replace(self, **changes):
        """A record of the same class, made by __init__, with the named fields changed."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))
