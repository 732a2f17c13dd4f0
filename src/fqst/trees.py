"""Embedded solution trees and their flow-weighted quadratic cost."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import TopologyError
from .geometry import Point
from .topology import NO_PARENT, Instance, Topology


@dataclass(frozen=True)
class SolvedTree:
    """A topology embedded in the plane: a coordinate table, edge flows, cost.

    (xs[i], ys[i]) is node i's position, over the sources, the sink and then
    the Steiner slots; flows[i] is the flow on node i's out-edge (0.0 at the
    sink slot); cost is the sum of flow * squared length over all edges,
    recomputable from the other fields.
    """

    instance: Instance
    topology: Topology
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    flows: tuple[float, ...]
    cost: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        _check_table(self.topology, self.xs, self.ys, self.flows)

    def position(self, node: int) -> Point:
        return Point(self.xs[node], self.ys[node])

    @cached_property
    def steiner_positions(self) -> tuple[Point, ...]:
        """The Steiner slots' rows of the table, as points."""
        first = self.topology.sink + 1
        return tuple(map(Point, self.xs[first:], self.ys[first:]))


def _check_table(
    topology: Topology, xs: Sequence[float], ys: Sequence[float], flows: Sequence[float]
) -> None:
    if not len(xs) == len(ys) == len(flows) == topology.n_nodes:
        raise TopologyError("xs, ys and flows must carry one entry per node")


def embedded_cost(
    topology: Topology,
    xs: Sequence[float],
    ys: Sequence[float],
    edge_weights: Sequence[float],
) -> float:
    """Sum over edges of weight * squared length, over a coordinate table.

    With edge_weights = flows this is the tree cost; with bead-reduced
    weights f/(p+1) it is the cost of a skeleton standing for a beaded tree.
    """
    return _cost_and_zero_edge(topology, xs, ys, edge_weights)[0]


def _cost_and_zero_edge(
    topology: Topology,
    xs: Sequence[float],
    ys: Sequence[float],
    edge_weights: Sequence[float],
) -> tuple[float, bool]:
    """embedded_cost's sum, and whether some edge has zero length."""
    total = 0.0
    zero_edge = False
    for node, parent in enumerate(topology.parents):
        if parent != NO_PARENT:
            dx = xs[node] - xs[parent]
            dy = ys[node] - ys[parent]
            d2 = dx * dx + dy * dy
            total += edge_weights[node] * d2
            if d2 == 0.0:
                zero_edge = True
    return total, zero_edge


def build_solved_tree(
    instance: Instance,
    topology: Topology,
    xs: Sequence[float],
    ys: Sequence[float],
    flows: Sequence[float],
) -> SolvedTree:
    """Assemble a SolvedTree from its coordinate table, computing its cost
    and degeneracy flag."""
    xs, ys, flows = tuple(xs), tuple(ys), tuple(flows)
    _check_table(topology, xs, ys, flows)  # before the cost loop indexes the table
    cost, degenerate = _cost_and_zero_edge(topology, xs, ys, flows)
    return SolvedTree(instance, topology, xs, ys, flows, cost, degenerate)
