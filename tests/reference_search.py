"""Test-only topology enumeration and local search, kept out of the package.

enumerate_full_topologies builds every full degree-3 topology by edge
insertion, an independent count and cross-check for the partition generator
in fqst.topology.  local_improve_by_splits applies beneficial J-splits
(split_topology) until none is left, so the tests can check that
exact-search winners are fixed points of local improvement.  None of them
is used by the CLI.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from fqst import algebraic_solver
from fqst.errors import TopologyError
from fqst.strategies import BoundStrategy, objective
from fqst.topology import NO_PARENT, Topology, validate_topology
from fqst.trees import SolvedTree


def _orient_toward_sink(n_sources: int, n_steiner: int, edges: Sequence[tuple[int, int]]) -> Topology:
    """Build a Topology from an undirected edge list by rooting at the sink."""
    n_nodes = n_sources + 1 + n_steiner
    adjacency: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parents = [NO_PARENT] * n_nodes
    sink = n_sources
    seen = [False] * n_nodes
    seen[sink] = True
    queue = [sink]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        for nb in adjacency[node]:
            if not seen[nb]:
                seen[nb] = True
                parents[nb] = node
                queue.append(nb)
    if len(queue) != n_nodes:
        raise TopologyError("edge list does not span all nodes")
    return Topology(n_sources, n_steiner, tuple(parents))


def enumerate_full_topologies(n_sources: int) -> Iterator[Topology]:
    """Every full topology on n sources plus the sink, with n-1 degree-3
    Steiner slots, each exactly once up to Steiner relabelling.

    Built by the recursive edge-insertion construction: the base joins the
    first two sources and the sink to one Steiner slot, and each further
    source is attached by subdividing one existing edge.  This yields each
    topology exactly once, so no dedup pass is needed.
    """
    if n_sources < 2:
        raise TopologyError("no full topology exists with fewer than two sources")
    sink = n_sources
    first_steiner = n_sources + 1
    base = [(0, first_steiner), (1, first_steiner), (sink, first_steiner)]

    def insert(edges: list[tuple[int, int]], next_source: int, next_steiner: int) -> Iterator[Topology]:
        if next_source == n_sources:
            yield _orient_toward_sink(n_sources, n_sources - 1, edges)
            return
        for i in range(len(edges)):
            u, v = edges[i]
            s = next_steiner
            grown = edges[:i] + edges[i + 1 :] + [(u, s), (v, s), (next_source, s)]
            yield from insert(grown, next_source + 1, next_steiner + 1)

    yield from insert(base, 2, first_steiner + 1)


class SplitSpec(NamedTuple):
    """Reroute the in-neighbours in `members` through a new Steiner point that
    feeds `target`."""

    target: int
    members: tuple[int, ...]


def split_topology(topology: Topology, spec: SplitSpec) -> Topology:
    """The topology after rerouting spec.members through a new Steiner slot."""
    children = set(topology.children[spec.target])
    if not spec.members:
        raise ValueError("a split needs at least one in-neighbour")
    if not set(spec.members) <= children:
        raise ValueError(
            f"{sorted(set(spec.members) - children)} are not in-neighbours of node {spec.target}"
        )
    new_slot = topology.n_nodes
    parents = list(topology.parents) + [spec.target]
    for member in spec.members:
        parents[member] = new_slot
    return Topology(topology.n_sources, topology.n_steiner + 1, tuple(parents))


def _objective(tree: SolvedTree, strategy: BoundStrategy) -> float:
    return objective(strategy, tree.cost, tree.topology.n_steiner)


def local_improve_by_splits(tree: SolvedTree, strategy: BoundStrategy) -> SolvedTree:
    """Apply the best admissible beneficial split until none remains.

    Admissibility is whatever validate_topology accepts for the strategy;
    the objective strictly decreases on every application, so no topology
    repeats and the loop terminates.
    """
    current = tree
    current_objective = _objective(tree, strategy)
    while True:
        best_tree: SolvedTree | None = None
        best_objective = current_objective
        children = current.topology.children
        for target in range(current.topology.n_nodes):
            in_neighbours = children[target]
            if not in_neighbours:
                continue
            for size in range(1, len(in_neighbours) + 1):
                for members in itertools.combinations(in_neighbours, size):
                    new_topology = split_topology(current.topology, SplitSpec(target, members))
                    if validate_topology(new_topology, strategy):
                        continue
                    candidate = algebraic_solver.solve_topology(current.instance, new_topology)
                    objective = _objective(candidate, strategy)
                    if objective < best_objective - _improvement_margin(current_objective):
                        best_tree = candidate
                        best_objective = objective
        if best_tree is None:
            return current
        current = best_tree
        current_objective = best_objective


def _improvement_margin(objective: float) -> float:
    return 1e-12 * (1.0 + abs(objective))
