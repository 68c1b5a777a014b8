"""The base of the package's small immutable records.

A record names its fields in ``__slots__`` and sets them once, in its
constructor, through ``_set``; after that, assigning or deleting a field
raises AttributeError.  Two records are equal when they have the same class
and equal field values, a record hashes as the tuple of its values, and its
repr lists its fields: what ``@dataclass(frozen=True)`` gives, without
importing ``dataclasses`` (and with it ``inspect``) at start-up.
"""
from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()
