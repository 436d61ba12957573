"""The base of the package's immutable value types.

Each value class names its fields in ``_fields`` and sets them in its own
``__init__`` through ``_set`` (``object.__setattr__``); after that no
attribute can be assigned or deleted.  Two values are equal when they are
one object, or of the same class with equal fields; the field tuples compare
element by element, and each element that is one object on both sides is
equal without a call to its ``__eq__``.  A value hashes as its field tuple
unless its class keeps its own ``__hash__``, which must still give equal
values equal hashes (a ``Proposition`` hashes its masks alone).  The repr
lists the fields as ``Class(name=value, ...)``.  The module imports nothing,
so building the classes costs no more than defining them.
"""

_set = object.__setattr__


class Value:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
