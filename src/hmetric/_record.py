"""The base of the package's immutable value types.

A record names its fields, in order, in __slots__ (adding "__dict__"
where it caches properties) and the defaults of its trailing fields in
_defaults.  Its __init__ takes the fields by position or by name, then
runs __post_init__, where a record checks or normalizes its fields
through object.__setattr__; afterwards a field can be neither assigned
nor deleted.  Equality, the hash and the repr are over the field values,
and as_dict() gives the fields in order.  No code is generated for a
record, so defining one costs no more than defining a plain class.
"""

__all__ = ["Record"]


class _Signature:
    """The signature of a record's __init__, for inspect and help(); built
    on first use, since importing inspect would cost every start."""

    def __get__(self, record, cls):
        from inspect import Parameter, Signature

        return Signature([Parameter(key, Parameter.POSITIONAL_OR_KEYWORD,
                                    default=cls._defaults.get(key, Parameter.empty))
                          for key in cls._fields])


class Record:
    __slots__ = ()
    __signature__ = _Signature()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(s for s in cls.__slots__ if s != "__dict__")

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name}() takes its fields {fields} once each, by position "
                            f"or by name; got {len(args)} by position and {sorted(kwargs)}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() missing required argument {key!r}")
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in self.as_dict().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which assignment would refuse
        return type(self), self._values()

    def as_dict(self) -> dict:
        """The fields in order, by name."""
        return dict(zip(self._fields, self._values()))
