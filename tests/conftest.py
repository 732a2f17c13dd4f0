"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random

import pytest

from fqst import Instance, Point, Topology

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
    return Instance(base.sources, supplies, base.sink)


def random_labelled_tree(rng: random.Random, n_nodes: int) -> list[tuple[int, int]]:
    """Uniform labelled tree on n nodes via a random parent-attachment walk."""
    if n_nodes == 1:
        return []
    order = list(range(n_nodes))
    rng.shuffle(order)
    edges = []
    for i in range(1, n_nodes):
        edges.append((order[i], order[rng.randrange(i)]))
    return edges


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
