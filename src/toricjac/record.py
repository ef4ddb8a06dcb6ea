"""Plain record classes with the equality, hash and repr a dataclass would
generate, written once, so that importing the package compiles no methods."""


class Record:
    """Equal to a record of its own class with equal fields, the names in
    _fields, and printed by the fields in _shown; unhashable."""

    __slots__ = ()

    def _set(self, *values):
        """Set the fields, in the order of _fields, past a Value's refusal
        of assignment."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    @property
    def _shown(self):
        return self._fields

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"


class Value(Record):
    """An immutable record, hashed by its fields.  Assignment raises
    AttributeError, so __init__ sets the fields with _set (TorusDivisor,
    the most often built value, writes its one field with
    object.__setattr__ and skips the call), and a copy or pickle is rebuilt
    by the constructor from the fields in order."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
