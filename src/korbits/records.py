"""The immutable base of the library's value types.  A record sets its
``__slots__`` once, in ``__init__``; it equals only a record of its own
class with equal fields and hashes as ``hash((field, ...))``.  Records
used in inner loops spell out ``__eq__`` and ``__hash__`` over that tuple.
Nothing is generated or compiled per class, so start-up stays short."""

#: Sets a field during construction, past the read-only ``__setattr__``.
set_field = object.__setattr__


def set_fields(record, *values) -> None:
    """Set every field of a record, in ``__slots__`` order."""
    for name, value in zip(record.__slots__, values, strict=True):
        set_field(record, name, value)


class Record:
    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
