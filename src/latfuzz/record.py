"""Value records that generate no code at import.

Every CLI command runs in a fresh interpreter, which builds every record
class again.  `Record` reads a subclass's fields once, when the class is
created, and serves all records through the same methods: nothing is
compiled, and nothing beyond `operator` is imported.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    """A value record.  The annotated fields of a subclass, in order, are its
    constructor arguments, and a value in the class body is a default (a
    dict or list default is copied for each instance).  The fields alone make
    up equality, hash and repr; names that start with `_` are not fields.
    The constructor runs `__post_init__`, where a subclass checks its fields.
    Instances are immutable; one with a dict or list field is unhashable."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__dict__.get("__annotations__", ())
                            if n[0] != "_")
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _complete(cls, args, kwargs) -> list:
        """All field values, from positional, keyword and default ones."""
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif hasattr(cls, name):
                default = getattr(cls, name)
                values.append(default.copy()
                              if isinstance(default, (dict, list)) else default)
            else:
                raise TypeError(f"{cls.__name__} needs field {name!r}")
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, "
                            f"got {len(args)} and {sorted(kwargs)}")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with the named fields changed.  The copy goes
    through the constructor, so its `__post_init__` checks it again."""
    return type(record)(**({n: getattr(record, n) for n in record._fields}
                           | changes))
