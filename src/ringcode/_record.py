"""Value records, built without generated code.

A record's fields are its class's own ``__slots__``, in order, and its own
``__init__`` sets them.  Two records are equal when they are of the same
class and their fields are equal, and the repr is ``Name(field=value, ...)``.
A ``Record`` is mutable and unhashable.  A ``Frozen`` record refuses
assignment and deletion with ``AttributeError`` and hashes as the tuple of
its fields; its ``__init__`` sets them with ``_set``, or all at once with
``__setstate__``.  This is what ``@dataclass`` (``frozen=True`` for
``Frozen``) gives, without the source it generates and compiles for each
class at import."""

from operator import attrgetter

_set = object.__setattr__  # sets a field of a Frozen record


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if "__init__" in cls.__dict__:  # a record class, not a base such as Frozen
            cls._fields = cls.__slots__
            cls._get = attrgetter(*cls.__slots__)  # of one field: its value

    def _values(self) -> tuple:
        values = self._get(self)
        return (values,) if len(self._fields) == 1 else values

    def __eq__(self, other):
        if type(other) is type(self):
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({body})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        values = self._get(self)
        return hash((values,) if len(self._fields) == 1 else values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):  # copy and pickle, as for a frozen dataclass
        return self._values()

    def __setstate__(self, values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)


class Keyed(Frozen):
    """A Frozen record that also keeps the tuple of its fields in _key, which
    its __init__ sets last; equality and hash read only that slot."""

    __slots__ = ("_key",)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __setstate__(self, values):
        super().__setstate__(values)
        _set(self, "_key", values)
