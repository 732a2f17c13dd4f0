"""Problem instances, directed tree topologies, and their flows.

Node indexing convention used throughout the package: for an instance with
n sources and j Steiner slots, nodes 0..n-1 are the sources, node n is the
sink, and nodes n+1..n+j are the Steiner slots.  A topology is stored as a
parent array in which every node except the sink names its unique
out-neighbour, so the one-out-edge rule cannot be violated by construction.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import attrgetter
from typing import Sequence

from .errors import TopologyError
from .geometry import Point, Record
from .strategies import BoundStrategy, DegreeBound, ExplicitBound, NodeWeighted

NO_PARENT = -1  # parent entry of the sink slot


class Instance(Record):
    """Sources with positive supplies and a single sink.

    The sources are kept as a coordinate table, like a SolvedTree's: xs[i],
    ys[i] is source i.  sources, their Points, is built from it on first use
    (or kept from the constructor's argument), and equality, hashing, the
    repr and pickling go through it as through any record's fields.

    A source on the sink is an error: its flow reaches the sink over a
    zero-length edge at no cost, and whatever hangs from it can hang from
    the sink instead, so the instance without it has the same optimum.
    """

    def __init__(self, sources: tuple[Point, ...], supplies: tuple[float, ...], sink: Point) -> None:
        sources = tuple(sources)
        self._store_columns(tuple(map(attrgetter("x"), sources)), tuple(map(attrgetter("y"), sources)), supplies, sink)
        self.__dict__["sources"] = sources  # the cache the property would fill

    @classmethod
    def from_columns(
        cls, xs: tuple[float, ...], ys: tuple[float, ...], supplies: tuple[float, ...], sink: Point
    ) -> "Instance":
        """The instance whose source i is (xs[i], ys[i]), checked as the
        constructor checks it, with no Point built per source."""
        instance = cls.__new__(cls)
        instance._store_columns(xs, ys, supplies, sink)
        return instance

    def _store_columns(
        self, xs: tuple[float, ...], ys: tuple[float, ...], supplies: tuple[float, ...], sink: Point
    ) -> None:
        """Store the fields, then check them and name the first fault."""
        self.__dict__.update(xs=xs, ys=ys, supplies=supplies, sink=sink)
        if len(xs) < 1:
            raise ValueError("an instance needs at least one source")
        if len(ys) != len(xs):
            raise ValueError(f"{len(ys)} y coordinates for {len(xs)} x coordinates")
        if len(supplies) != len(xs):
            raise ValueError(f"{len(supplies)} supplies for {len(xs)} sources")
        if not sink.is_finite():
            raise ValueError("sink has non-finite coordinates")
        # each column is checked whole; only when that fails does the
        # ordered walk run, to name the first fault
        sink_xy = (sink.x, sink.y)
        if not (all(map(math.isfinite, xs + ys)) and sink_xy not in zip(xs, ys)):
            for i, xy in enumerate(zip(xs, ys)):
                if not all(map(math.isfinite, xy)):
                    raise ValueError(f"source {i} has non-finite coordinates")
                if xy == sink_xy:
                    raise ValueError(f"source {i} coincides with the sink")
        # a nan supply makes the total nan, so min's blindness to it is safe
        if not (min(supplies) > 0.0 and math.isfinite(self.total_supply())):
            for i, w in enumerate(supplies):
                if not w > 0.0:
                    raise ValueError(f"supply of source {i} must be positive, got {w}")
            raise ValueError("the total supply must be finite; flows would overflow")

    @cached_property
    def sources(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.xs, self.ys))

    @classmethod
    def with_unit_supplies(
        cls, sources: Sequence[Point], sink: Point
    ) -> "Instance":
        return cls(tuple(sources), (1.0,) * len(sources), sink)

    @property
    def n_sources(self) -> int:
        return len(self.xs)

    def has_unit_supplies(self) -> bool:
        return all(w == 1.0 for w in self.supplies)

    def total_supply(self) -> float:
        return sum(self.supplies)


class Topology(Record):
    """A directed labelled tree on source slots, Steiner slots, and the sink.

    Every directed path follows parent links and terminates at the sink.
    The child lists, degrees and sink-first order are computed on first use
    and kept as tuples.
    """

    def __init__(self, n_sources: int, n_steiner: int, parents: tuple[int, ...]) -> None:
        self._store(n_sources, n_steiner, parents)
        n_nodes = self.n_sources + 1 + self.n_steiner
        if self.n_sources < 1 or self.n_steiner < 0:
            raise TopologyError("need at least one source and a nonnegative Steiner count")
        if len(self.parents) != n_nodes:
            raise TopologyError(
                f"parent array has {len(self.parents)} entries for {n_nodes} nodes"
            )
        sink = self.n_sources
        for node, parent in enumerate(self.parents):
            if node == sink:
                if parent != NO_PARENT:
                    raise TopologyError("the sink must not have an out-edge")
            elif not (0 <= parent < n_nodes) or parent == node:
                raise TopologyError(f"node {node} has invalid parent {parent}")

    @property
    def n_nodes(self) -> int:
        return self.n_sources + 1 + self.n_steiner

    @property
    def sink(self) -> int:
        return self.n_sources

    def steiner_slots(self) -> range:
        return range(self.n_sources + 1, self.n_nodes)

    def edge_children(self) -> list[int]:
        """Non-sink nodes in ascending order; node i stands for the edge i -> parents[i]."""
        return [*range(self.sink), *range(self.sink + 1, self.n_nodes)]

    def children_lists(self) -> tuple[tuple[int, ...], ...]:
        """Each node's in-neighbours in ascending order, built once per topology."""
        return self._children

    def degrees(self) -> tuple[int, ...]:
        """Each node's degree, counted once per topology."""
        return self._degrees

    def order_from_sink(self) -> tuple[int, ...]:
        """All nodes in breadth-first order from the sink (parents before children).

        Raises TopologyError when some node cannot reach the sink, which is
        exactly the cycle / disconnection case for a parent array.  The order
        is built once per topology; a failure is not cached, so every call
        on a non-tree raises.
        """
        return self._sink_order

    @cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        children: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for node, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                children[parent].append(node)
        return tuple(map(tuple, children))

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n_nodes
        for node, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                deg[node] += 1
                deg[parent] += 1
        return tuple(deg)

    @cached_property
    def _sink_order(self) -> tuple[int, ...]:
        children = self._children
        # every non-sink node has one parent, so it sits in one child list
        # and the walk reaches it at most once
        order = [self.sink]
        for node in order:
            order.extend(children[node])
        if len(order) != self.n_nodes:
            missing = sorted(set(range(self.n_nodes)).difference(order))
            raise TopologyError(f"nodes {missing} cannot reach the sink (cycle or disconnection)")
        return tuple(order)


def compute_flows(topology: Topology, supplies: Sequence[float]) -> tuple[float, ...]:
    """The unique edge flows for the given supplies.

    flows[i] is the flow on node i's out-edge; the sink entry is 0.  Flows are
    accumulated child-first: a node's out-flow is its supply plus the flows
    entering it.
    """
    if len(supplies) != topology.n_sources:
        raise TopologyError(
            f"{len(supplies)} supplies for {topology.n_sources} source slots"
        )
    order = topology.order_from_sink()
    acc = [0.0] * topology.n_nodes
    for i, w in enumerate(supplies):
        if not w > 0.0:
            raise TopologyError(f"supply of source {i} must be positive, got {w}")
        acc[i] = w
    flows = [0.0] * topology.n_nodes
    parents = topology.parents
    sink = topology.sink
    for node in reversed(order):
        if node == sink:
            continue
        f = acc[node]
        if f <= 0.0:
            raise TopologyError(f"Steiner slot {node} has no inflow; its out-edge would carry zero flow")
        flows[node] = f
        acc[parents[node]] += f
    return tuple(flows)


def validate_topology(topology: Topology, strategy: BoundStrategy) -> list[str]:
    """Structural and strategy-specific violations; an empty list means ok."""
    try:
        topology.order_from_sink()
    except TopologyError as exc:
        return [str(exc)]
    violations = []
    deg = topology.degrees()
    for s in topology.steiner_slots():
        if deg[s] < 2:
            violations.append(f"Steiner slot {s} has degree {deg[s]} < 2 (no inflow)")
    if isinstance(strategy, DegreeBound):
        for s in topology.steiner_slots():
            if deg[s] < strategy.phi:
                violations.append(
                    f"Steiner degree < phi: slot {s} has degree {deg[s]} < {strategy.phi}"
                )
    elif isinstance(strategy, ExplicitBound):
        if topology.n_steiner > strategy.k:
            violations.append(
                f"Steiner count exceeds k: {topology.n_steiner} > {strategy.k}"
            )
    elif isinstance(strategy, NodeWeighted):
        pass  # the degree >= 2 baseline above is the whole constraint
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    return violations
