"""Immutable value records: the base of the library's record classes.

A record names its fields in ``_fields``, two or more in constructor
order, and keeps them in slots.  Unless it writes an ``__init__``, the
base builds one that stores them, with the defaults of an optional
``_defaults`` dict.  It compares, hashes, prints, copies and pickles by
its fields, as a frozen dataclass does, at no import cost beyond ``operator``.
"""

from operator import attrgetter

# Fills a slot from __init__, past the __setattr__ that refuses to.
_set = object.__setattr__


def _constructor(cls):
    """An __init__ storing cls._fields in order; the last may default by cls._defaults."""
    defaults = getattr(cls, "_defaults", {})
    params = [f"{name}=_defaults[{name!r}]" if name in defaults else name for name in cls._fields]
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in cls._fields)
    namespace = {"_set": _set, "_defaults": defaults}
    exec(f"def __init__(self, {', '.join(params)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Record:
    """An immutable value, equal only to a record of its own class with equal fields."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)
        if cls.__init__ is object.__init__:
            cls.__init__ = _constructor(cls)

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
