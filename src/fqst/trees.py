"""Embedded solution trees, their flow-weighted quadratic cost, and the
centroid certificate of local minimality."""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

from .errors import GeometryError, TopologyError
from .geometry import Point, Record, mass_scale
from .topology import NO_PARENT, Instance, Topology

CERTIFICATE_TOLERANCE = 1e-9

_INF = math.inf
_isfinite = math.isfinite


class SolvedTree(Record):
    """A topology embedded in the plane: a coordinate table and edge flows.

    (xs[i], ys[i]) is node i's position, over the sources, the sink and then
    the Steiner slots; flows[i] is the flow on node i's out-edge (0.0 at the
    sink slot).  cost, the sum of flow * squared length over all edges, and
    degenerate, whether some edge has zero length, are computed from the
    table on first use.
    """

    def __init__(
        self, instance: Instance, topology: Topology, xs: Sequence[float], ys: Sequence[float],
        flows: Sequence[float],
    ) -> None:
        xs, ys, flows = tuple(xs), tuple(ys), tuple(flows)
        self._store(instance, topology, xs, ys, flows)
        if not len(xs) == len(ys) == len(flows) == topology.n_nodes:
            raise TopologyError("xs, ys and flows must carry one entry per node")

    @cached_property
    def _cost_and_zero_edge(self) -> tuple[float, bool]:
        return cost_and_zero_edge(self.topology, self.xs, self.ys, self.flows)

    cost = property(lambda tree: tree._cost_and_zero_edge[0])
    degenerate = property(lambda tree: tree._cost_and_zero_edge[1])

    @cached_property
    def steiner_positions(self) -> tuple[Point, ...]:
        """The Steiner slots' rows of the table, as points."""
        first = self.topology.sink + 1
        return tuple(map(Point, self.xs[first:], self.ys[first:]))

    @cached_property
    def deviations(self) -> dict[int, float]:
        """centroid_deviations(self), computed once: the solver's closing
        check and the result's certificates read the same pass."""
        return centroid_deviations(self)


def cost_and_zero_edge(
    topology: Topology, xs: Sequence[float], ys: Sequence[float], flows: Sequence[float]
) -> tuple[float, bool]:
    """The sum over edges of flow * squared length over a coordinate table,
    and whether some edge has zero length."""
    total = 0.0
    zero_edge = False
    for node, parent in enumerate(topology.parents):
        if parent != NO_PARENT:
            dx = xs[node] - xs[parent]
            dy = ys[node] - ys[parent]
            d2 = dx * dx + dy * dy
            total += flows[node] * d2
            if d2 == 0.0:
                zero_edge = True
    return total, zero_edge


def require_finite_cost(tree: SolvedTree) -> None:
    """Raise GeometryError when the tree's cost is not finite: the flows
    times squared edge lengths overflow a float, so no cost can be stated."""
    if not _isfinite(tree.cost):
        raise GeometryError(
            f"the tree's cost is non-finite ({tree.cost!r}): "
            "its flow * squared edge lengths overflow a float"
        )


def weighted_mean(
    tree: SolvedTree, kids: Sequence[int], other: int, mass: float, scale: float
) -> tuple[float, float]:
    """The centre of mass of a node's in-neighbours kids, each weighing the
    flow of its out-edge, and of the node other, weighing mass: the
    mass * coordinate and mass sums over the coordinate table, kids first,
    in masses times scale, divided once at the end.  With scale the tree's geometry.mass_scale no
    bit moves in the normal range, and tiny flows keep their digits.
    Raises a GeometryError for a non-finite position or a non-positive or
    non-finite mass (_require_mass_points)."""
    flows, xs, ys = tree.flows, tree.xs, tree.ys
    sx = sy = sm = 0.0
    masses_ok = 0.0 < mass < _INF
    for c in kids:
        m = flows[c]
        masses_ok = masses_ok and 0.0 < m < _INF
        m *= scale
        sx += m * xs[c]
        sy += m * ys[c]
        sm += m
    m = mass * scale
    sx += m * xs[other]
    sy += m * ys[other]
    sm += m
    if not (masses_ok and _isfinite(sx) and _isfinite(sy)):
        _require_mass_points(tree, (*kids, other), [*map(flows.__getitem__, kids), mass])
    return sx / sm, sy / sm


def _require_mass_points(tree: SolvedTree, nodes: Sequence[int], masses: Sequence[float]) -> None:
    """Raise a GeometryError for the first node with a non-finite position
    or a non-positive or non-finite mass, position checked first; return
    when there is none."""
    for node, mass in zip(nodes, masses):
        position = Point(tree.xs[node], tree.ys[node])
        if not position.is_finite():
            raise GeometryError(f"mass point at non-finite position {position}")
        if not (mass > 0.0 and _isfinite(mass)):
            raise GeometryError(f"mass must be positive and finite, got {mass}")


def centroid_deviations(tree: SolvedTree) -> dict[int, float]:
    """Distance of each Steiner point from weighted_mean of its neighbours:
    in-neighbours weigh their in-edge flows, the out-neighbour the out-edge
    flow; weighted_mean raises its GeometryError at the first bad slot."""
    topo = tree.topology
    children = topo.children
    parents = topo.parents
    flows = tree.flows
    xs, ys = tree.xs, tree.ys
    scale = mass_scale(max(flows))
    sqrt = math.sqrt
    deviations: dict[int, float] = {}
    for slot in topo.steiner_slots():
        cx, cy = weighted_mean(tree, children[slot], parents[slot], flows[slot], scale)
        dx = xs[slot] - cx
        dy = ys[slot] - cy
        deviations[slot] = sqrt(dx * dx + dy * dy)
    return deviations


def off_centroid_slots(tree: SolvedTree, tol: float) -> list[int]:
    """The Steiner slots, in order, whose tree.deviations entry fails tol
    taken to scale: tol * (1 + the largest |coordinate| of the slot and its
    neighbours), since coordinates carry relative rounding (a stored number
    12 significant digits).  Only deviations above tol itself are rejudged,
    so a tree that passes the absolute test costs nothing more."""
    deviations = tree.deviations
    failing = sorted(slot for slot, dev in deviations.items() if not dev <= tol)
    if not failing:
        return failing
    parents = tree.topology.parents
    children = tree.topology.children
    xs, ys = tree.xs, tree.ys

    def magnitude(slot: int) -> float:
        return max(max(abs(xs[v]), abs(ys[v])) for v in (slot, parents[slot], *children[slot]))

    return [slot for slot in failing if not deviations[slot] <= tol * (1.0 + magnitude(slot))]
