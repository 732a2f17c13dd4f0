"""Plane points, mass points, squared distance and the power-of-two mass
scale that the solver, the search and the certificates share."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeometryError


@dataclass(frozen=True, slots=True)
class Point:
    """A location in the Euclidean plane."""

    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


@dataclass(frozen=True, slots=True)
class MassPoint:
    """A point carrying a positive scalar mass (a flow weight)."""

    position: Point
    mass: float

    def __post_init__(self) -> None:
        if not self.position.is_finite():
            raise GeometryError(f"mass point at non-finite position {self.position}")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise GeometryError(f"mass must be positive and finite, got {self.mass}")


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

