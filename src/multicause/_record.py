"""The package's record classes, declared by their annotations.

`record` reads a class's annotated fields and their defaults once and
installs shared methods, so defining a record compiles no code: an
`__init__` taking the fields by position or keyword, then calling
`__post_init__` if the class has one; a `repr` of the form
`Name(field=value, ...)`; and, with `eq=True`, `==` by the fields' values
between instances of one class (other records compare by identity). A
list default is copied for each instance, so no two records share one.
"""

_REQUIRED = object()


def _init(self, *args, **kwargs):
    cls = type(self)
    fields = cls._record_fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
    given = dict(zip(fields, args))
    unexpected = sorted(kwargs.keys() - (fields.keys() - given.keys()))
    if unexpected:
        raise TypeError(f"{cls.__name__}() got unknown or repeated arguments {unexpected}")
    given.update(kwargs)
    for name, default in fields.items():
        if name in given:
            setattr(self, name, given[name])
        elif default is _REQUIRED:
            raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
        else:
            setattr(self, name, list(default) if type(default) is list else default)
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _repr(self):
    values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_fields)
    return f"{type(self).__qualname__}({values})"


def _eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    names = self._record_fields
    return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]


def record(cls=None, *, eq=False):
    """Make `cls` a record; `@record(eq=True)` also compares by value."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls._record_fields = {name: vars(cls).get(name, _REQUIRED) for name in cls.__annotations__}
    cls.__init__, cls.__repr__ = _init, _repr
    if eq:
        cls.__eq__, cls.__hash__ = _eq, None
    return cls
