"""The base of the library's hand-written value records."""


class Record:
    """An immutable value with plain attributes and no generated code.

    A subclass names the fields its repr shows in ``_fields`` and sets its
    attributes once, in ``__init__``, through ``vars(self).update``; any
    later assignment or deletion raises ``AttributeError``.  Two records are
    equal, and hash alike, when they are of the same type and their
    ``_key()`` (by default the ``_fields`` values) is equal.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            [f"{f}={getattr(self, f)!r}" for f in self._fields]) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
