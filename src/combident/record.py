"""Immutable value records, whose methods are written once per class in one ``exec``."""

from __future__ import annotations


class Record:
    """An immutable record whose fields are the annotations of its class body, in order.

    A class attribute named after a field is that field's default.  A record
    equals only a record of the same class whose compared fields are equal,
    and hashes as the tuple of those fields; the fields named in the class
    keyword ``uncompared`` take part in neither.  Assigning or deleting an
    attribute raises :class:`AttributeError`.  Instances keep a ``__dict__``,
    so :func:`functools.cached_property` works on them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        if not fields:
            return
        namespace = {"_set": object.__setattr__}
        params = []
        for name in fields:
            if name in cls.__dict__:
                namespace[f"_default_{name}"] = cls.__dict__[name]
                name = f"{name}=_default_{name}"
            params.append(name)
        compared = [name for name in fields if name not in uncompared]
        mine = "".join(f"self.{name}, " for name in compared)
        theirs = "".join(f"other.{name}, " for name in compared)
        exec(
            f"def __init__(self, {', '.join(params)}):\n"
            + "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
            + "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n",
            namespace,
        )
        for method in ("__init__", "__eq__", "__hash__"):
            namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, namespace[method])
        cls._fields = fields

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the fields in ``changes`` replaced; an unknown field raises :class:`TypeError`."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})
