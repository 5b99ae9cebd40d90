"""The base of chrkit's value and record classes.

A subclass lists its fields as its `__slots__`, in constructor order, and
writes its own `__init__`.  `Record` gives it `repr` and `==`: the exact
class and the compared fields, all of its slots unless its class statement
names fewer (`class Program(Frozen, compared=("rules",))`).  `Frozen` makes
it immutable, so assigning a field raises AttributeError; its `__init__`
writes the fields through `setfield`.  A frozen record hashes to the hash
of the tuple of its compared fields, the value a frozen dataclass hashes
to, so set and dict orders, and so traces, do not depend on how the class
is built.  This generic `==` and hash read the fields by name, at about
twice the cost of a dataclass's; the classes built per term (`Var`,
`Const`, `App`, `Chr`, `Eq`) write their own, with the same results.

The classes are written out rather than generated by `dataclasses`:
importing that pulls in `inspect`, `ast` and `dis`, and each decoration
`exec`s generated code, which together took three quarters of the time
`import chrkit` took.
"""
from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__  # how a Frozen subclass's __init__ writes


class Record:
    __slots__ = ()
    __hash__ = None  # mutable: unhashable, as a dataclass is

    def __init_subclass__(cls, compared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        names = compared or cls.__slots__
        if names:
            get = attrgetter(*names)
            cls._compared = names
            # the compared values as a tuple, one field or many
            cls._values = staticmethod(
                get if len(names) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._compared)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        # the compared fields are the leading constructor arguments
        return self.__class__, self._values(self)
