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
    """A topology embedded in the plane: Steiner positions, edge flows, cost.

    flows[i] is the flow on node i's out-edge (0.0 at the sink slot); cost is
    the sum of flow * squared length over all edges, recomputable from the
    other fields.
    """

    instance: Instance
    topology: Topology
    steiner_positions: tuple[Point, ...]
    flows: tuple[float, ...]
    cost: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if len(self.steiner_positions) != self.topology.n_steiner:
            raise TopologyError(
                f"{len(self.steiner_positions)} positions for "
                f"{self.topology.n_steiner} Steiner slots"
            )
        if len(self.flows) != self.topology.n_nodes:
            raise TopologyError("flows must carry one entry per node")

    def position(self, node: int) -> Point:
        sink = self.topology.sink
        if node < sink:
            return self.instance.sources[node]
        if node == sink:
            return self.instance.sink
        return self.steiner_positions[node - sink - 1]

    @cached_property
    def coordinates(self) -> tuple[list[float], list[float]]:
        """(xs, ys): every node's coordinates, indexed like position(),
        built on first use and kept."""
        return coordinate_table(self.instance, self.steiner_positions)

    def with_steiner_positions(self, positions: Sequence[Point]) -> "SolvedTree":
        """Same topology and flows, new embedding; cost and degeneracy refresh."""
        return build_solved_tree(self.instance, self.topology, positions, self.flows)


def coordinate_table(
    instance: Instance, steiner_positions: Sequence[Point]
) -> tuple[list[float], list[float]]:
    """(xs, ys) over sources, the sink and then the Steiner slots: the flat
    form of SolvedTree.position that every O(n) pass reads."""
    points = (*instance.sources, instance.sink, *steiner_positions)
    return [p.x for p in points], [p.y for p in points]


def embedded_cost(
    instance: Instance,
    topology: Topology,
    steiner_positions: Sequence[Point],
    edge_weights: Sequence[float],
) -> float:
    """Sum over edges of weight * squared length.

    With edge_weights = flows this is the tree cost; with bead-reduced
    weights f/(p+1) it is the cost of a skeleton standing for a beaded tree.
    """
    xs, ys = coordinate_table(instance, steiner_positions)
    total = 0.0
    for node, parent in enumerate(topology.parents):
        if parent != NO_PARENT:
            dx = xs[node] - xs[parent]
            dy = ys[node] - ys[parent]
            total += edge_weights[node] * (dx * dx + dy * dy)
    return total


def _has_zero_edge(
    instance: Instance, topology: Topology, steiner_positions: Sequence[Point]
) -> bool:
    xs, ys = coordinate_table(instance, steiner_positions)
    for node, parent in enumerate(topology.parents):
        if parent != NO_PARENT:
            dx = xs[node] - xs[parent]
            dy = ys[node] - ys[parent]
            if dx * dx + dy * dy == 0.0:
                return True
    return False


def build_solved_tree(
    instance: Instance,
    topology: Topology,
    steiner_positions: Sequence[Point],
    flows: Sequence[float],
) -> SolvedTree:
    """Assemble a SolvedTree, computing its cost and degeneracy flag."""
    positions = tuple(steiner_positions)
    flows = tuple(flows)
    return SolvedTree(
        instance=instance,
        topology=topology,
        steiner_positions=positions,
        flows=flows,
        cost=embedded_cost(instance, topology, positions, flows),
        degenerate=_has_zero_edge(instance, topology, positions),
    )
