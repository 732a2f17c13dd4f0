"""Embedded solution trees and their flow-weighted quadratic cost."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import TopologyError
from .geometry import Point, sq_dist
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

    def all_positions(self) -> list[Point]:
        return [self.position(i) for i in range(self.topology.n_nodes)]

    def with_steiner_positions(self, positions: Sequence[Point]) -> "SolvedTree":
        """Same topology and flows, new embedding; cost and degeneracy refresh."""
        positions = tuple(positions)
        cost = embedded_cost(self.instance, self.topology, positions, self.flows)
        degenerate = _has_zero_edge(self.instance, self.topology, positions)
        return replace(
            self,
            steiner_positions=positions,
            cost=cost,
            degenerate=degenerate,
        )


def _position_table(
    instance: Instance, topology: Topology, steiner_positions: Sequence[Point]
) -> list[Point]:
    return [*instance.sources, instance.sink, *steiner_positions]


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
    pos = _position_table(instance, topology, steiner_positions)
    parents = topology.parents
    total = 0.0
    for node, parent in enumerate(parents):
        if parent != NO_PARENT:
            total += edge_weights[node] * sq_dist(pos[node], pos[parent])
    return total


def _has_zero_edge(
    instance: Instance, topology: Topology, steiner_positions: Sequence[Point]
) -> bool:
    pos = _position_table(instance, topology, steiner_positions)
    for node, parent in enumerate(topology.parents):
        if parent != NO_PARENT and sq_dist(pos[node], pos[parent]) == 0.0:
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
