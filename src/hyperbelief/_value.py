"""The base of the package's immutable value types.

A value class names its fields in ``_fields``; ``Value.__init__``, the one
constructor, binds positional arguments in that order and keywords by name,
fills omitted fields from the class's ``_defaults`` dict, and raises
TypeError for too many positional arguments, an unknown keyword, a keyword
that repeats a positional one, or a missing field.  It then calls
``__post_init__``, the class's one place for checks (ValueError) and
normalisation (a field set again through ``_set``).  ``help()`` shows the
constructor as ``(*args, **kwargs)``, so ``_fields`` names the arguments.
A class keeps its own ``__init__`` only to store a converted copy of its
input.  A fact that follows from the fields is a property, not a field, so
no caller can pass it or make it disagree with them.

After construction no attribute can be assigned or deleted.  Two values are
equal when they are one object, or of the same class with equal fields; the
field tuples compare element by element, and each element that is one
object on both sides is equal without a call to its ``__eq__``.  A value
hashes as its field tuple unless its class keeps its own ``__hash__``, which
must still give equal values equal hashes (a ``Proposition`` hashes its
masks alone).  The repr lists the fields as ``Class(name=value, ...)``.  The
module imports nothing, so building the classes costs no more than defining
them.
"""

_set = object.__setattr__


class Value:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}  # field name -> the value an omitted argument takes

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if args and not kwargs and len(args) == len(fields):
            values = dict(zip(fields, args))
        else:  # the engines build their results by keyword, so check that path cheaply
            values = {**self._defaults, **kwargs}
            if args or len(values) != len(fields) or kwargs.keys() - fields:
                values = self._bind(args, kwargs)
        _set(self, "__dict__", values)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """The fields of a call that passes keywords or omits arguments."""
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(values) < len(fields):
            missing = ", ".join(repr(key) for key in fields if key not in values)
            raise TypeError(f"{name}() missing required argument(s): {missing}")
        return values

    def __post_init__(self) -> None:
        pass

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
