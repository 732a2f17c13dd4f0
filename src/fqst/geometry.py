"""Plane points, the power-of-two mass scale that the solver, the search
and the certificates share, and the records' base.  The package measures
distances and weighs masses in its coordinate tables, so the squared
distance of two points (sq_dist) and the mass point (MassPoint) are only
the test oracles' primitives, in tests/certificate_oracle.py."""

from __future__ import annotations

import math

_set = object.__setattr__  # stores an attribute past Record.__setattr__


class Record:
    """A frozen data class's behaviour without the standard library's data
    class module, whose import loads inspect, ast and dis.  A subclass's
    fields are its __init__'s parameters, in order, stored by _store.
    Setting or deleting one raises AttributeError; records of one class are
    equal when their fields are, and hash as the field tuple; the repr is
    Name(field=value, ...); copy and pickle call __init__ again.  Attributes
    beside the fields, set by __init__ or cached, stay outside all of these."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _store(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Point(Record):
    """A location in the Euclidean plane."""

    __slots__ = ("x", "y")

    # built by the thousand and compared with the sink per source: no loops
    def __init__(self, x: float, y: float) -> None:
        _set(self, "x", x)
        _set(self, "y", y)

    def _values(self) -> tuple[float, float]:
        return self.x, self.y

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def mass_scale(largest: float) -> float:
    """The power of two that brings the largest mass into [1, 2), as near as
    a float scale goes: masses scaled by it keep their bits wherever they
    and their products stay normal, and none of them overflows."""
    return math.ldexp(1.0, min(1 - math.frexp(largest)[1], 1023))
