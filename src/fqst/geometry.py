"""Plane points, squared distance and the power-of-two mass scale that the
solver, the search and the certificates share.  The package weighs masses
in its coordinate tables, so the mass point (MassPoint) is only the test
oracles' primitive, in tests/certificate_oracle.py."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point:
    """A location in the Euclidean plane."""

    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def sq_dist(a: Point, b: Point) -> float:
    """Squared Euclidean distance |ab|^2."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def mass_scale(largest: float) -> float:
    """The power of two that brings the largest mass into [1, 2), as near as
    a float scale goes: masses scaled by it keep their bits wherever they
    and their products stay normal, and none of them overflows."""
    return math.ldexp(1.0, min(1 - math.frexp(largest)[1], 1023))

