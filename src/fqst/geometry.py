"""Plane geometry and mass-point primitives shared by every solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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


def lerp(a: Point, b: Point, t: float) -> Point:
    """The point a + t*(b - a)."""
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def centroid(points: Iterable[MassPoint]) -> Point:
    """Mass-weighted mean of a nonempty collection of mass points.

    The mass*coordinate and mass sums are accumulated separately and divided
    once at the end, which keeps mass merging associative to rounding error.
    """
    sx = sy = sm = 0.0
    count = 0
    for mp in points:
        sx += mp.mass * mp.position.x
        sy += mp.mass * mp.position.y
        sm += mp.mass
        count += 1
    if count == 0:
        raise GeometryError("centroid of an empty collection is undefined")
    return Point(sx / sm, sy / sm)


def mass_scale(largest: float) -> float:
    """The power of two that brings the largest mass into [1, 2), as near as
    a float scale goes: masses scaled by it keep their bits wherever they
    and their products stay normal, and none of them overflows."""
    return math.ldexp(1.0, min(1 - math.frexp(largest)[1], 1023))


def angle_at(vertex: Point, a: Point, b: Point) -> float:
    """Interior angle in [0, pi] between the rays vertex->a and vertex->b.

    Uses atan2(|cross|, dot), which keeps full accuracy near 0 and pi where
    acos of a normalised dot product loses digits.
    """
    ux, uy = a.x - vertex.x, a.y - vertex.y
    vx, vy = b.x - vertex.x, b.y - vertex.y
    if (ux == 0.0 and uy == 0.0) or (vx == 0.0 and vy == 0.0):
        raise GeometryError("angle undefined: a ray endpoint coincides with the vertex")
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(abs(cross), dot)
