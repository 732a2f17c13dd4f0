"""Point/MassPoint oracle for the optimality certificates.

These are the certificate functions written over the geometry primitives:
every neighbour becomes a Point or MassPoint, centroids go through
geometry.centroid and angles through geometry.angle_at.  fqst.analysis
computes the same quantities from the solved tree's flat coordinate table
with the arithmetic inlined; the tests check that both return equal results.
"""

from __future__ import annotations

import math

from fqst.analysis import (
    CERTIFICATE_TOLERANCE,
    OVERLAP_ANGLE_TOLERANCE,
    AngleViolation,
    DegreeViolation,
    EdgeOverlap,
)
from fqst.geometry import MassPoint, angle_at, centroid, lerp, sq_dist
from fqst.strategies import BoundStrategy, DegreeBound
from fqst.topology import NO_PARENT
from fqst.trees import SolvedTree


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
                violations.append(AngleViolation(node, child, angle))
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
            and topo.is_steiner(node)
            and deg[node] == strategy.phi
        )
        for i in range(len(neighbours)):
            for j in range(i + 1, len(neighbours)):
                a, b = neighbours[i], neighbours[j]
                pa, pb = tree.position(a), tree.position(b)
                if sq_dist(here, pa) == 0.0 or sq_dist(here, pb) == 0.0:
                    overlaps.append(EdgeOverlap(node, a, b, 0.0, True, caveat))
                    continue
                angle = angle_at(here, pa, pb)
                if angle <= tol:
                    overlaps.append(EdgeOverlap(node, a, b, angle, False, caveat))
    return overlaps
