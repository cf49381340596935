"""Record classes: dataclasses whose methods are closures, not source compiled by exec."""
import dataclasses
from operator import attrgetter


def record(cls=None, /, *, frozen=False):
    """dataclasses.dataclass(cls, frozen=frozen) with closures for the methods that it
    compiles from source; fields take at most a default, a default_factory and repr."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    fields = dataclasses.fields(dataclasses.dataclass(cls, init=False, repr=False, eq=False))
    names, n, post_init = tuple(f.name for f in fields), len(fields), hasattr(cls, "__post_init__")
    shown, get = [f.name for f in fields if f.repr], attrgetter(*names)
    key = get if n > 1 else lambda self: (get(self),)

    def bind(args, kwargs):  # the field values of a call other than one argument per field
        values = list(args)
        for f in fields[len(args):]:
            value = kwargs.pop(f.name, f.default)
            if value is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise TypeError(f"{cls.__qualname__}() missing argument {f.name!r}")
            values.append(f.default_factory() if value is dataclasses.MISSING else value)
        if len(args) > n or kwargs:
            raise TypeError(f"{cls.__qualname__}() got extra arguments {[*args[n:], *kwargs]}")
        return values

    def __init__(self, *args, **kwargs):
        for name, value in zip(names, bind(args, kwargs) if kwargs or len(args) != n else args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in shown)})"

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def deny(self, name, value=None):
        raise dataclasses.FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__, "__hash__": None}
    if frozen:
        methods.update(__hash__=lambda self: hash(key(self)), __setattr__=deny, __delattr__=deny)
    for name in methods.keys() - cls.__dict__.keys():  # the class body's own methods win
        setattr(cls, name, methods[name])
    return cls
