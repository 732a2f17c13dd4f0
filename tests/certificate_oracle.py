"""Point/MassPoint oracle for the optimality certificates.

These are the certificate functions written over point primitives: every
neighbour becomes a Point or MassPoint, centroids go through centroid and
angles through angle_at.  MassPoint, which checks its position and mass,
lerp, which the merge replay shares, and sq_dist, which the tests' other
oracles share, are defined here too.
fqst.analysis computes the same quantities from the solved tree's flat
coordinate table with the arithmetic inlined; the tests check that both
return equal results.

A table-level oracle keeps the plain per-node loop that the package's
pass replaced: check_edge_pairs_per_pair takes one atan2 for every pair
of edges at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from fqst.analysis import (
    CERTIFICATE_TOLERANCE,
    OVERLAP_ANGLE_TOLERANCE,
    AngleViolation,
    DegreeViolation,
    EdgeOverlap,
)
from fqst.errors import GeometryError
from fqst.geometry import Point
from fqst.strategies import BoundStrategy, DegreeBound
from fqst.topology import NO_PARENT
from fqst.trees import SolvedTree


def sq_dist(a: Point, b: Point) -> float:
    """Squared Euclidean distance |ab|^2."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


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


def centroid_deviations(tree: SolvedTree) -> dict[int, float]:
    children = tree.topology.children_lists()
    parents = tree.topology.parents
    deviations: dict[int, float] = {}
    for slot in tree.topology.steiner_slots():
        masses = [MassPoint(tree.position(c), tree.flows[c]) for c in children[slot]]
        masses.append(MassPoint(tree.position(parents[slot]), tree.flows[slot]))
        deviations[slot] = math.sqrt(sq_dist(tree.position(slot), centroid(masses)))
    return deviations


def check_angles(tree: SolvedTree, tol_radians: float = CERTIFICATE_TOLERANCE) -> list[AngleViolation]:
    children = tree.topology.children_lists()
    parents = tree.topology.parents
    violations = []
    threshold = math.pi / 2.0 - tol_radians
    for node in range(tree.topology.n_nodes):
        parent = parents[node]
        if parent == NO_PARENT:
            continue
        here = tree.position(node)
        out_pos = tree.position(parent)
        if sq_dist(here, out_pos) == 0.0:
            continue
        for child in children[node]:
            in_pos = tree.position(child)
            if sq_dist(here, in_pos) == 0.0:
                continue
            angle = angle_at(here, in_pos, out_pos)
            if angle < threshold:
                # hanging the child from the parent saves 2 f (in - here).(out - here)
                dot = (in_pos.x - here.x) * (out_pos.x - here.x) + (in_pos.y - here.y) * (out_pos.y - here.y)
                violations.append(AngleViolation(node, child, angle, 2.0 * tree.flows[child] * dot))
    return violations


def check_degree_window(
    tree: SolvedTree, phi: int, tol: float = CERTIFICATE_TOLERANCE
) -> list[DegreeViolation]:
    if phi < 3:
        raise ValueError(f"phi must be at least 3, got {phi}")
    topo = tree.topology
    deg = topo.degrees()
    children = topo.children_lists()
    violations = []
    high = 2 * phi - 3
    for slot in topo.steiner_slots():
        if not (phi <= deg[slot] <= high):
            violations.append(
                DegreeViolation("steiner-degree", slot, f"degree {deg[slot]} outside [{phi}, {high}]")
            )
    for source in range(topo.n_sources):
        if deg[source] > phi - 1:
            violations.append(
                DegreeViolation("source-degree", source, f"degree {deg[source]} exceeds {phi - 1}")
            )
        elif deg[source] == phi - 1 and children[source]:
            mass_points = [MassPoint(tree.position(source), tree.instance.supplies[source])]
            mass_points += [
                MassPoint(tree.position(c), tree.flows[c]) for c in children[source]
            ]
            merged = centroid(mass_points)
            out_pos = tree.position(topo.parents[source])
            expected = lerp(merged, out_pos, 0.5)
            offset = math.sqrt(sq_dist(tree.position(source), expected))
            if offset > tol:
                violations.append(
                    DegreeViolation(
                        "source-midpoint", source, f"offset {offset:.3e} from the midpoint position"
                    )
                )
    return violations


def check_overlapping_edges(
    tree: SolvedTree,
    tol: float = OVERLAP_ANGLE_TOLERANCE,
    strategy: BoundStrategy | None = None,
) -> list[EdgeOverlap]:
    topo = tree.topology
    children = topo.children_lists()
    deg = topo.degrees()
    overlaps = []
    for node in range(topo.n_nodes):
        neighbours = list(children[node])
        if topo.parents[node] != NO_PARENT:
            neighbours.append(topo.parents[node])
        if len(neighbours) < 2:
            continue
        here = tree.position(node)
        caveat = (
            isinstance(strategy, DegreeBound)
            and node > topo.sink
            and deg[node] == strategy.phi
        )
        for i in range(len(neighbours)):
            for j in range(i + 1, len(neighbours)):
                a, b = neighbours[i], neighbours[j]
                pa, pb = tree.position(a), tree.position(b)
                # the reroute saves nothing over a zero-length edge, nor
                # between two child edges ending at one point (2 f |va| |ab|)
                if sq_dist(here, pa) == 0.0 or sq_dist(here, pb) == 0.0:
                    continue
                if pa == pb and topo.parents[node] not in (a, b):
                    continue
                angle = angle_at(here, pa, pb)
                if angle <= tol:
                    overlaps.append(EdgeOverlap(node, a, b, angle, caveat))
    return overlaps


def check_edge_pairs_per_pair(
    tree: SolvedTree,
    tol_radians: float = CERTIFICATE_TOLERANCE,
    overlap_tol: float = OVERLAP_ANGLE_TOLERANCE,
    strategy: BoundStrategy | None = None,
) -> tuple[list[AngleViolation], list[EdgeOverlap]]:
    """analysis.check_edge_pairs with an atan2 for every pair of edges at
    every node, obtuse pairs and nodes of degree below 2 included."""
    topo = tree.topology
    children = topo.children_lists()
    deg = topo.degrees()
    sink = topo.sink
    phi = strategy.phi if isinstance(strategy, DegreeBound) else None
    xs, ys = tree.xs, tree.ys
    threshold = math.pi / 2.0 - tol_radians
    violations = []
    overlaps = []
    for node, parent in enumerate(topo.parents):
        neighbours = children[node] if parent == NO_PARENT else (*children[node], parent)
        if len(neighbours) < 2:
            continue
        hx = xs[node]
        hy = ys[node]
        caveat = node > sink and deg[node] == phi
        offsets = []
        for v in neighbours:
            dx = xs[v] - hx
            dy = ys[v] - hy
            if dx * dx + dy * dy != 0.0:
                offsets.append((v, dx, dy))
        for i, (a, ux, uy) in enumerate(offsets):
            for b, vx, vy in offsets[i + 1:]:
                dot = ux * vx + uy * vy
                angle = math.atan2(abs(ux * vy - uy * vx), dot)
                if angle <= overlap_tol and (b == parent or xs[a] != xs[b] or ys[a] != ys[b]):
                    overlaps.append(EdgeOverlap(node, a, b, angle, caveat))
                if b == parent and angle < threshold:
                    violations.append(AngleViolation(node, a, angle, 2.0 * tree.flows[a] * dot))
    return violations, overlaps
