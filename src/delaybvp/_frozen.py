"""One frozen value base for the package's record classes.

A subclass of ``Frozen`` gets what ``@dataclass(frozen=True)`` would give
it, from methods every subclass shares: no code is generated, compiled or
inspected per class, so defining a class costs one annotation read and
importing the package stays cheap.

- Its fields are its annotated names, a base class's fields first; a class
  attribute of a field's name is that field's default.
- ``__init__`` takes the fields positionally or by keyword, then runs
  ``__post_init__``.
- An instance equals only an instance of the same class whose field values
  are equal; it hashes as the tuple of its field values, computed once.
- The repr is ``Name(field=value, ...)``.
- Assigning or deleting an attribute raises ``AttributeError``.

An instance's ``__dict__`` holds its fields alone, in field order, since
``__init__`` is the only writer; the cached hash lives in a slot.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ("_hash",)  # None until the first hash
    _fields = ()
    _defaults = {}
    _post_init = False  # whether __post_init__ is overridden

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # this class's own annotations alone
        cls._fields = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        cls._post_init = cls.__post_init__ is not Frozen.__post_init__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        _set_hash(self, None)
        if self._post_init:
            self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values of a call that does not pass every field
        positionally: the rest by keyword or by their defaults."""
        names = self._fields
        given = {**self._defaults, **kwargs}
        try:
            values = [*args, *map(given.pop, names[len(args):])]
        except KeyError as exc:
            raise TypeError(f"{type(self).__qualname__}() missing argument {exc}") from None
        # a keyword left over is unknown or repeats a positional argument
        if len(args) > len(names) or not given.keys().isdisjoint(kwargs):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {names}, each once")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple(self.__dict__.values()))
            _set_hash(self, h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and pickles are rebuilt from the fields: the default would
        # restore the hash slot through __setattr__, and a cached hash of
        # str fields holds in one process only
        return type(self), tuple(self.__dict__.values())


_set_hash = Frozen._hash.__set__  # writes the slot past the frozen __setattr__
