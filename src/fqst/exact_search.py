"""Globally minimum trees by exhaustive topology enumeration with pruning.

All three strategies run one search: enumerate branching skeletons (every
Steiner degree >= phi) and fold chains of degree-2 Steiner points in as
per-edge bead counts.  On a locally minimal tree the beads of an edge are
equally spaced on the straight segment, so an edge with flow f and p beads
contributes f*|e|^2/(p+1), which is the same stationarity problem with the
edge weight f replaced by f/(p+1).  A degree bound places no beads at all;
the explicit bound and the node weight spend the rest of their Steiner
budget on them.  The reported winner always has its beads expanded back into
explicit degree-2 Steiner slots and is re-solved and re-checked.

Everything here is deterministic: topologies stream in a fixed order and
objective ties break on the sink-rooted topology encoding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import algebraic_solver, analysis
from .errors import GuardLimitError, InternalConsistencyError
from .geometry import sq_dist
from .strategies import (
    BoundStrategy,
    DegreeBound,
    ExplicitBound,
    NodeWeighted,
    max_steiner_count,
)
from .topology import (
    Instance,
    Topology,
    compute_flows,
    enumerate_bounded_topologies,
    rooted_encoding,
    validate_topology,
)
from .trees import SolvedTree

DEFAULT_GUARD = 6
_OBJECTIVE_TIE = 1e-12


@dataclass(frozen=True)
class SearchReport:
    best: SolvedTree
    objective: float
    topologies_examined: int
    topologies_pruned: int
    strategy: BoundStrategy
    lower_bound: float
    upper_bound: float | None = None  # node-weighted: beaded spanning tree cost
    steiner_bound: int | None = None  # node-weighted: the Steiner budget B


class _Incumbent:
    """Best candidate so far, tie-broken on (rooted encoding, bead vector).

    May start from a pruning bound (objective without a candidate); a
    candidate matching the bound is still accepted.
    """

    def __init__(self, objective: float) -> None:
        self.objective = objective
        self.topology: Topology | None = None
        self.beads: tuple[int, ...] = ()
        self._tie_key: tuple | None = None

    def offer(self, objective: float, topology: Topology, beads: tuple[int, ...]) -> None:
        if objective > self.objective + _OBJECTIVE_TIE:
            return
        if self.topology is not None and objective >= self.objective - _OBJECTIVE_TIE:
            if self._tie_key is None:
                self._tie_key = (rooted_encoding(self.topology), self.beads)
            key = (rooted_encoding(topology), beads)
            if key >= self._tie_key:
                return
            self._tie_key = key
        else:
            self._tie_key = None
        self.objective = min(objective, self.objective)
        self.topology = topology
        self.beads = beads


def _bead_weights(flows, edge_children, bead_counts) -> list[float]:
    """Edge weights with each edge's flow f replaced by f/(p+1) for p beads."""
    weights = list(flows)
    for child, p in zip(edge_children, bead_counts):
        if p:
            weights[child] = flows[child] / (p + 1)
    return weights


def _bead_vectors(n_edges: int, per_edge_cap: int, allowed_totals: set[int]):
    """All count tuples with each entry <= per_edge_cap and total in allowed_totals."""
    if not allowed_totals:
        return
    max_total = min(max(allowed_totals), per_edge_cap * n_edges)
    if max_total == 0:
        if 0 in allowed_totals:
            yield (0,) * n_edges
        return
    counts = [0] * n_edges

    def fill(pos: int, used: int):
        if pos == n_edges:
            if used in allowed_totals:
                yield tuple(counts)
            return
        top = min(per_edge_cap, max_total - used)
        for p in range(top + 1):
            counts[pos] = p
            yield from fill(pos + 1, used + p)
        counts[pos] = 0

    yield from fill(0, 0)


def solve_exact(
    instance: Instance, strategy: BoundStrategy, guard_n: int = DEFAULT_GUARD
) -> SearchReport:
    """Globally minimum tree under the strategy, by exhaustive enumeration.

    Refuses instances with more than guard_n sources; the space grows
    factorially and this is a desk-scale exact method.
    """
    n = instance.n_sources
    if n > guard_n:
        raise GuardLimitError(
            f"exact search is limited to {guard_n} sources (got {n}); "
            f"raise guard_n explicitly to go further"
        )
    if isinstance(strategy, DegreeBound):
        budget = max_steiner_count(n, strategy.phi)
        return _search(instance, strategy, strategy.phi, budget, 0, 0.0, None)
    if isinstance(strategy, ExplicitBound):
        return _search(instance, strategy, 3, strategy.k, strategy.k, 0.0, None)
    if isinstance(strategy, NodeWeighted):
        c = strategy.c
        budget = analysis.steiner_count_bound(instance, c)
        # an edge carries at most the total supply over at most the diagonal
        cap = analysis.optimal_bead_count(instance.total_supply(), _bounding_box_diagonal(instance), c)
        upper = analysis.cost_node_weighted(analysis.beaded_spanning_tree(instance, c), c)
        return _search(instance, strategy, 3, budget, cap, c, upper)
    raise TypeError(f"unknown strategy {strategy!r}")


def _search(
    instance: Instance,
    strategy: BoundStrategy,
    phi: int,
    steiner_budget: int,
    max_beads: int,
    bead_charge: float,
    upper_bound: float | None,
) -> SearchReport:
    """Search skeletons with Steiner degree >= phi, each with every bead vector.

    steiner_budget caps the total Steiner count (branching plus beads),
    max_beads caps the beads on one edge, bead_charge is c for the
    node-weighted objective and 0 otherwise, and upper_bound (the cost of a
    known tree) starts the incumbent.
    """
    n = instance.n_sources
    # the objective of any tree with k Steiner points is at least floors[k]
    floors = [
        bead_charge * k + analysis.lower_bound_path(instance, k)
        for k in range(steiner_budget + 1)
    ]
    terminals = [*instance.sources, instance.sink]
    terminal_sq = [[sq_dist(a, b) for b in terminals] for a in terminals]
    incumbent = _Incumbent(math.inf if upper_bound is None else upper_bound + _OBJECTIVE_TIE)
    examined = pruned = 0
    j_cap = min(steiner_budget, max_steiner_count(n, phi))
    for topology in enumerate_bounded_topologies(n, j_cap, phi):
        j = topology.n_steiner
        edge_children = topology.edge_children()
        per_edge_cap = min(max_beads, steiner_budget - j)
        bead_budget = min(steiner_budget - j, per_edge_cap * len(edge_children))
        allowed = {t for t in range(bead_budget + 1) if floors[j + t] < incumbent.objective}
        if not allowed:
            pruned += 1
            continue
        examined += 1
        beads_iter = _bead_vectors(len(edge_children), per_edge_cap, allowed)
        if j == 0:
            # Terminal positions are fixed, so bead vectors just rescale the
            # per-edge contributions; nothing needs solving.
            flows = compute_flows(topology, instance.supplies)
            parents = topology.parents
            terms = [flows[c] * terminal_sq[c][parents[c]] for c in edge_children]
            for beads in beads_iter:
                value = bead_charge * sum(beads) + sum(
                    [term / (p + 1) for term, p in zip(terms, beads)]
                )
                incumbent.offer(value, topology, beads)
        else:
            elimination = algebraic_solver.TreeElimination(instance, topology)
            for beads in beads_iter:
                weights = _bead_weights(elimination.flows, edge_children, beads)
                value = bead_charge * (j + sum(beads)) + elimination.cost(weights)
                incumbent.offer(value, topology, beads)
    if incumbent.topology is None:
        raise InternalConsistencyError("search space was empty; the spanning trees alone should appear")
    topology = incumbent.topology
    if any(incumbent.beads):
        topology = analysis.expand_beads(topology, incumbent.beads)
    best = algebraic_solver.solve_topology(instance, topology)
    total_steiner = best.topology.n_steiner
    final_objective = best.cost + bead_charge * total_steiner
    if not math.isclose(final_objective, incumbent.objective, rel_tol=1e-9, abs_tol=1e-9):
        raise InternalConsistencyError(
            f"expanded winner objective {final_objective} drifted from searched {incumbent.objective}"
        )
    return SearchReport(
        best=best,
        objective=final_objective,
        topologies_examined=examined,
        topologies_pruned=pruned,
        strategy=strategy,
        lower_bound=analysis.lower_bound_path(instance, total_steiner),
        upper_bound=upper_bound,
        steiner_bound=steiner_budget if isinstance(strategy, NodeWeighted) else None,
    )


def _bounding_box_diagonal(instance: Instance) -> float:
    xs = [p.x for p in instance.sources] + [instance.sink.x]
    ys = [p.y for p in instance.sources] + [instance.sink.y]
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    return math.hypot(dx, dy)


def _objective(tree: SolvedTree, strategy: BoundStrategy) -> float:
    if isinstance(strategy, NodeWeighted):
        return analysis.cost_node_weighted(tree, strategy.c)
    return analysis.cost(tree)


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
        children = current.topology.children_lists()
        for target in range(current.topology.n_nodes):
            in_neighbours = children[target]
            if not in_neighbours:
                continue
            for size in range(1, len(in_neighbours) + 1):
                for members in itertools.combinations(in_neighbours, size):
                    spec = analysis.SplitSpec(target, members)
                    new_topology = analysis.split_topology(current.topology, spec)
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
