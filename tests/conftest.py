"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import math
import random

import pytest

from fqst import Instance, Point, Topology, compute_flows, solve_topology
from fqst.analysis import _prim_spanning_tree, expand_beads, optimal_bead_count
from fqst.documents import SCHEMA_VERSION, strategy_document, topology_document
from fqst.strategies import BoundStrategy, NodeWeighted, objective
from fqst.trees import SolvedTree, cost_and_zero_edge

NO_PARENT = -1


@pytest.fixture
def worked_instance() -> Instance:
    """Three sources and a sink whose full topology solves to cost 102."""
    return Instance.with_unit_supplies(
        [Point(0.0, 0.0), Point(2.0, 4.0), Point(11.0, 5.0)], Point(11.0, 1.0)
    )


@pytest.fixture
def worked_topology() -> Topology:
    """z0, z1 into slot 4; slot 4 and z2 into slot 5; slot 5 into the sink."""
    return Topology(3, 2, (4, 4, 5, NO_PARENT, 5, 3))


def instance_document(
    instance: Instance, strategy: BoundStrategy, topology: Topology | None = None
) -> dict:
    """The instance document of an instance, a strategy and optionally a
    topology, its numbers as they are in memory."""
    doc = {
        "schema": SCHEMA_VERSION,
        "sources": [[p.x, p.y] for p in instance.sources],
        "supplies": list(instance.supplies),
        "sink": [instance.sink.x, instance.sink.y],
        "strategy": strategy_document(strategy),
    }
    if topology is not None:
        doc["topology"] = topology_document(topology)
    return doc


def node_table(instance: Instance, steiner_points=()) -> tuple[list[float], list[float]]:
    """(xs, ys) over the sources, the sink and then the given Steiner points,
    the coordinate table a SolvedTree holds."""
    points = (*instance.sources, instance.sink, *steiner_points)
    return [p.x for p in points], [p.y for p in points]


def embedded_cost(topology: Topology, xs, ys, edge_weights) -> float:
    """Sum over edges of weight * squared length, over a coordinate table.

    With edge_weights = flows this is the tree cost; with bead-reduced
    weights f/(p+1) it is the cost of a skeleton standing for a beaded tree.
    """
    return cost_and_zero_edge(topology, xs, ys, edge_weights)[0]


def beaded_spanning_tree(instance: Instance, c: float) -> SolvedTree:
    """Minimum spanning tree on sources plus sink, directed toward the sink,
    with the cost-minimising bead count inserted on every edge.

    solve_topology embeds it: a chain of beads between two terminals is
    the embedding's own straight, evenly spaced relay.  Its node-weighted
    cost is what analysis.beaded_spanning_cost sums without building it.
    """
    xs = (*instance.xs, instance.sink.x)
    ys = (*instance.ys, instance.sink.y)
    base = Topology(instance.n_sources, 0, tuple(_prim_spanning_tree(xs, ys)))
    flows = compute_flows(base, instance.supplies)
    bead_counts = []
    for child in base.edge_children():
        dx = xs[child] - xs[base.parents[child]]
        dy = ys[child] - ys[base.parents[child]]
        length = math.sqrt(dx * dx + dy * dy)
        bead_counts.append(0 if length == 0.0 else optimal_bead_count(flows[child], length, c))
    return solve_topology(instance, expand_beads(base, bead_counts))


def node_weighted_objective(tree: SolvedTree, c: float) -> float:
    """The tree's objective under NodeWeighted(c)."""
    return objective(NodeWeighted(c), tree.cost, tree.topology.n_steiner)


def with_steiner_positions(tree: SolvedTree, positions) -> SolvedTree:
    """The tree with its Steiner slots moved to positions: same topology and
    flows, the cost and the degeneracy flag those of the new table."""
    first = tree.topology.sink + 1
    return SolvedTree(
        tree.instance,
        tree.topology,
        tree.xs[:first] + tuple(p.x for p in positions),
        tree.ys[:first] + tuple(p.y for p in positions),
        tree.flows,
    )


def orient_edges(n_sources: int, n_steiner: int, edges) -> Topology:
    """Root an undirected edge list at the sink (test-local implementation)."""
    n_nodes = n_sources + 1 + n_steiner
    adjacency = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parents = [NO_PARENT] * n_nodes
    seen = {n_sources}
    queue = [n_sources]
    while queue:
        node = queue.pop()
        for nb in adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                parents[nb] = node
                queue.append(nb)
    assert len(seen) == n_nodes
    return Topology(n_sources, n_steiner, tuple(parents))


def random_full_topology(rng: random.Random, n_sources: int) -> Topology:
    """Uniform-ish random full degree-3 topology by random edge insertion."""
    assert n_sources >= 2
    sink = n_sources
    first = n_sources + 1
    edges = [(0, first), (1, first), (sink, first)]
    next_steiner = first + 1
    for source in range(2, n_sources):
        u, v = edges.pop(rng.randrange(len(edges)))
        s = next_steiner
        next_steiner += 1
        edges += [(u, s), (v, s), (source, s)]
    return orient_edges(n_sources, n_sources - 1, edges)


def random_instance(rng: random.Random, n_sources: int, span: float = 10.0) -> Instance:
    points = [
        Point(rng.uniform(-span, span), rng.uniform(-span, span))
        for _ in range(n_sources + 1)
    ]
    return Instance.with_unit_supplies(points[:-1], points[-1])


def random_supplied_instance(
    rng: random.Random, n_sources: int, span: float = 10.0
) -> Instance:
    base = random_instance(rng, n_sources, span)
    supplies = tuple(rng.uniform(0.5, 3.0) for _ in range(n_sources))
    return Instance(base.xs, base.ys, supplies, base.sink)


def random_general_tree(rng: random.Random, n_sources: int, n_steiner: int) -> Topology:
    """A random tree in which every Steiner slot has at least one child.

    Built bottom-up from the sources: each Steiner slot adopts a nonempty
    set of the current roots, a source may adopt roots too (sources feeding
    sources), and the sink adopts whatever roots are left.  Steiner labels
    are shuffled so that label order says nothing about the tree.
    """
    sink = n_sources
    labels = list(range(sink + 1, sink + 1 + n_steiner))
    rng.shuffle(labels)
    parents = [NO_PARENT] * (n_sources + 1 + n_steiner)
    roots = list(range(n_sources))
    for s in labels:
        rng.shuffle(roots)
        take = rng.randint(1, len(roots))
        for child in roots[:take]:
            parents[child] = s
        roots = roots[take:] + [s]
        if len(roots) > 1 and rng.random() < 0.3:
            sources = [r for r in roots if r < sink]
            if sources:
                adopter = rng.choice(sources)
                child = rng.choice([r for r in roots if r != adopter])
                parents[child] = adopter
                roots.remove(child)
    for root in roots:
        parents[root] = sink
    return Topology(n_sources, n_steiner, tuple(parents))
