"""Problem instances, directed tree topologies, flows, and topology enumeration.

Node indexing convention used throughout the package: for an instance with
n sources and j Steiner slots, nodes 0..n-1 are the sources, node n is the
sink, and nodes n+1..n+j are the Steiner slots.  A topology is stored as a
parent array in which every node except the sink names its unique
out-neighbour, so the one-out-edge rule cannot be violated by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .errors import TopologyError
from .geometry import Point
from .strategies import BoundStrategy, DegreeBound, ExplicitBound, NodeWeighted

NO_PARENT = -1  # parent entry of the sink slot
STEINER = -1  # root of a generated subtree that is a Steiner slot


@dataclass(frozen=True)
class Instance:
    """Sources with positive supplies and a single sink."""

    sources: tuple[Point, ...]
    supplies: tuple[float, ...]
    sink: Point

    def __post_init__(self) -> None:
        if len(self.sources) < 1:
            raise ValueError("an instance needs at least one source")
        if len(self.supplies) != len(self.sources):
            raise ValueError(
                f"{len(self.supplies)} supplies for {len(self.sources)} sources"
            )
        if not self.sink.is_finite():
            raise ValueError("sink has non-finite coordinates")
        for i, p in enumerate(self.sources):
            if not p.is_finite():
                raise ValueError(f"source {i} has non-finite coordinates")
            if p == self.sink:
                raise ValueError(f"source {i} coincides with the sink")
        for i, w in enumerate(self.supplies):
            if not w > 0.0:
                raise ValueError(f"supply of source {i} must be positive, got {w}")
        if not math.isfinite(self.total_supply()):
            raise ValueError("the total supply must be finite; flows would overflow")

    @classmethod
    def with_unit_supplies(
        cls, sources: Sequence[Point], sink: Point
    ) -> "Instance":
        return cls(tuple(sources), (1.0,) * len(sources), sink)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def has_unit_supplies(self) -> bool:
        return all(w == 1.0 for w in self.supplies)

    def total_supply(self) -> float:
        return sum(self.supplies)


@dataclass(frozen=True)
class Topology:
    """A directed labelled tree on source slots, Steiner slots, and the sink.

    Every directed path follows parent links and terminates at the sink.
    The child lists, degrees and sink-first order are computed on first use
    and kept as tuples.
    """

    n_sources: int
    n_steiner: int
    parents: tuple[int, ...]

    def __post_init__(self) -> None:
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

    def is_source(self, node: int) -> bool:
        return node < self.n_sources

    def is_steiner(self, node: int) -> bool:
        return node > self.n_sources

    def is_terminal(self, node: int) -> bool:
        return node <= self.n_sources

    def steiner_slots(self) -> range:
        return range(self.n_sources + 1, self.n_nodes)

    def edge_children(self) -> list[int]:
        """Non-sink nodes in ascending order; node i stands for the edge i -> parents[i]."""
        return [i for i in range(self.n_nodes) if i != self.sink]

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
        order = [self.sink]
        seen = [False] * self.n_nodes
        seen[self.sink] = True
        for node in order:
            for child in children[node]:
                if seen[child]:
                    raise TopologyError(f"node {child} is reached twice; not a tree")
                seen[child] = True
                order.append(child)
        if len(order) != self.n_nodes:
            missing = [i for i in range(self.n_nodes) if not seen[i]]
            raise TopologyError(f"nodes {missing} cannot reach the sink (cycle or disconnection)")
        return tuple(order)

    def structural_violations(self) -> list[str]:
        try:
            self.order_from_sink()
        except TopologyError as exc:
            return [str(exc)]
        return []

    def is_full(self) -> bool:
        """True when every terminal has degree 1 and every Steiner slot degree > 1."""
        deg = self.degrees()
        for node in range(self.n_nodes):
            if self.is_terminal(node):
                if deg[node] != 1:
                    return False
            elif deg[node] <= 1:
                return False
        return True


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
    violations = topology.structural_violations()
    if violations:
        return violations
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


def rooted_encoding(topology: Topology) -> tuple:
    """Canonical sink-rooted encoding, invariant under Steiner relabelling.

    Terminals keep their identities, Steiner slots are anonymous, and child
    encodings are sorted, so two topologies get equal encodings exactly when
    one is a Steiner relabelling of the other.  Exact search breaks
    objective ties on it, so the winner does not depend on generation order.
    """
    children = topology.children_lists()
    sink = topology.sink

    def encode(node: int) -> tuple:
        label = node if node <= sink else -2
        return (label, tuple(sorted(encode(c) for c in children[node])))

    return encode(sink)


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


def enumerate_bounded_topologies(
    n_sources: int, max_steiner: int, min_steiner_degree: int = 3
) -> Iterator[Topology]:
    """Every topology on n sources + sink + j Steiner slots for 0 <= j <=
    max_steiner, with each Steiner slot of degree >= min_steiner_degree and
    terminals of any degree, each exactly once up to Steiner relabelling.

    Built by skeletons() from source partitions, so no topology repeats and
    nothing is deduplicated.  Steiner slots are numbered in placement order
    (see skeleton_placement), and topologies come in nondecreasing Steiner
    count.
    """
    for j, roots in skeletons(n_sources, max_steiner, min_steiner_degree, _bare_subtree):
        yield placed_topology(n_sources, j, skeleton_placement(n_sources, roots))


def _bare_subtree(root: int, children: tuple) -> tuple:
    return (root, children)


def skeletons(
    n_sources: int,
    max_steiner: int,
    min_steiner_degree: int,
    subtree: Callable[[int, tuple], tuple],
) -> Iterator[tuple[int, tuple]]:
    """(j, the sink's child subtrees) for every topology that
    enumerate_bounded_topologies yields, in the same order.

    A subtree over a set of sources is rooted at one of them, whose children
    split the rest of the set, or at a Steiner slot, whose children split the
    whole set into at least min_steiner_degree - 1 parts; the sink's children
    split all sources.  Parts never share a source.  subtree(root, children)
    builds each subtree, root being a source index or STEINER; it must
    return a tuple starting with root and children, and may append a summary
    of the subtree.  Subtrees are built once per source bitmask and Steiner
    count, except those over all sources, which are streamed.
    """
    if n_sources < 1:
        raise TopologyError("need at least one source")
    if max_steiner < 0:
        raise TopologyError("max Steiner count must be nonnegative")
    if min_steiner_degree < 2:
        raise ValueError(
            "Steiner slots of degree < 2 carry no flow; the minimum supported degree is 2"
        )
    # The nested functions form a reference cycle, so the memo is cleared
    # when the generator ends.
    full = (1 << n_sources) - 1
    min_children = min_steiner_degree - 1
    memo: dict[tuple[int, int], list[tuple]] = {}

    def subtrees(mask: int, k: int) -> Iterator[tuple]:
        for s in range(n_sources):
            if mask >> s & 1:
                for children in forests(mask ^ (1 << s), k, 0):
                    yield subtree(s, children)
        if k:
            for children in forests(mask, k - 1, min_children):
                yield subtree(STEINER, children)

    def child_subtrees(mask: int, k: int):
        if mask == full:
            return subtrees(mask, k)
        if (mask, k) not in memo:
            memo[mask, k] = list(subtrees(mask, k))
        return memo[mask, k]

    def forests(mask: int, k: int, min_parts: int) -> Iterator[tuple]:
        """Tuples of >= min_parts subtrees that partition mask and hold k Steiner slots."""
        if not mask:
            if k == 0 and min_parts <= 0:
                yield ()
            return
        m = mask.bit_count()
        # each Steiner slot has >= min_children children, so a forest over
        # m sources holds at most (m - 1) // (min_children - 1) of them
        if min_parts > m or (min_children > 1 and k > (m - 1) // (min_children - 1)):
            return
        low = mask & -mask  # the lowest source opens the first part
        sub = rest = mask ^ low
        while True:
            part = low | sub
            for k_part in range(k + 1):
                trees = child_subtrees(part, k_part)
                if not trees:
                    continue
                # a streamed part covers all sources, so it meets one tail
                for tail in forests(mask ^ part, k - k_part, min_parts - 1):
                    for tree in trees:
                        yield (tree, *tail)
            if not sub:
                return
            sub = (sub - 1) & rest

    try:
        for j in range(max_steiner + 1):
            for roots in forests(full, j, 1):
                yield j, roots
    finally:
        memo.clear()


def skeleton_placement(n_sources: int, roots: tuple) -> list[tuple[tuple, int, int]]:
    """(subtree, node, parent node) for every subtree under the sink's
    children roots, in depth-first preorder: each subtree is a contiguous
    run that starts at its root.

    A source root keeps its index; Steiner roots get slots n_sources + 1,
    n_sources + 2, ... in this order.
    """
    placed = []
    next_slot = n_sources + 1
    stack = [(tree, n_sources) for tree in roots]
    while stack:
        tree, parent = stack.pop()
        node = tree[0]
        if node == STEINER:
            node = next_slot
            next_slot += 1
        placed.append((tree, node, parent))
        stack.extend((child, node) for child in tree[1])
    return placed


def placed_topology(n_sources: int, n_steiner: int, placed: list[tuple[tuple, int, int]]) -> Topology:
    """The topology of a skeleton from its skeleton_placement."""
    parents = [NO_PARENT] * (n_sources + 1 + n_steiner)
    for _, node, parent in placed:
        parents[node] = parent
    return Topology(n_sources, n_steiner, tuple(parents))
