"""Globally minimum trees by exhaustive topology enumeration with pruning.

Degree-bounded search enumerates topologies whose Steiner degrees meet the
bound and solves each one.  The other two strategies enumerate branching
skeletons (Steiner degree >= 3) and fold chains of degree-2 Steiner points in
as per-edge bead counts: on a locally minimal tree the beads of an edge are
equally spaced on the straight segment, so an edge with flow f and p beads
contributes f*|e|^2/(p+1), which is the same stationarity problem with the
edge weight f replaced by f/(p+1).  The reported winner always has its beads
expanded back into explicit degree-2 Steiner slots.

Everything here is deterministic: topologies stream in a fixed order and
objective ties break on the canonical topology encoding.
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
    canonical_form,
    compute_flows,
    enumerate_bounded_topologies,
    validate_topology,
)
from .trees import SolvedTree

DEFAULT_GUARD = 6
_OBJECTIVE_TIE = 1e-12


@dataclass(frozen=True)
class BeadVector:
    """Per-edge bead counts, aligned with Topology.edge_children()."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.counts):
            raise ValueError("bead counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)


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
    winning_beads: BeadVector | None = None  # skeleton bead counts before expansion


class _Incumbent:
    """Best candidate so far, with a deterministic canonical-encoding tie-break.

    May start from a pruning bound (objective without a candidate); a
    candidate matching the bound is still accepted.
    """

    def __init__(self, objective: float = math.inf) -> None:
        self.objective = objective
        self.topology: Topology | None = None
        self.beads: tuple[int, ...] | None = None
        self._tie_key: tuple[int, ...] | None = None

    def offer(self, objective: float, topology: Topology, beads: tuple[int, ...] | None) -> None:
        if objective > self.objective + _OBJECTIVE_TIE:
            return
        if self.topology is not None and objective >= self.objective - _OBJECTIVE_TIE:
            if self._tie_key is None:
                self._tie_key = canonical_form(self.topology)
            key = canonical_form(topology)
            if (key, beads or ()) >= (self._tie_key, self.beads or ()):
                return
            self._tie_key = key
        else:
            self._tie_key = None
        self.objective = min(objective, self.objective)
        self.topology = topology
        self.beads = beads


def _solve_cost(instance: Instance, topology: Topology) -> float:
    """Locally minimal cost of a topology, without building a SolvedTree.

    The search winner is re-solved through the residual-checked
    solve_topology, so a bug here cannot silently ship a wrong tree, only a
    wrong argmin.
    """
    elimination = algebraic_solver.TreeElimination(instance, topology)
    return elimination.cost(elimination.flows)


def _bead_weights(flows, edge_children, bead_counts) -> list[float]:
    """Edge weights with each edge's flow f replaced by f/(p+1) for p beads."""
    weights = list(flows)
    for child, p in zip(edge_children, bead_counts):
        if p:
            weights[child] = flows[child] / (p + 1)
    return weights


def _finalize(instance: Instance, incumbent: _Incumbent) -> SolvedTree:
    assert incumbent.topology is not None
    topology = incumbent.topology
    if incumbent.beads is not None and any(incumbent.beads):
        topology = analysis.expand_beads(topology, incumbent.beads)
    return algebraic_solver.solve_topology(instance, topology)


def _bead_vectors(n_edges: int, per_edge_cap: int, allowed_totals: set[int]):
    """All count tuples with each entry <= per_edge_cap and total in allowed_totals."""
    if not allowed_totals:
        return
    max_total = max(allowed_totals)
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
        return _solve_degree_bound(instance, strategy)
    if isinstance(strategy, ExplicitBound):
        return _solve_with_beads(instance, strategy, budget=strategy.k, bead_charge=0.0)
    if isinstance(strategy, NodeWeighted):
        upper_tree = analysis.beaded_spanning_tree(instance, strategy.c)
        upper = analysis.cost_node_weighted(upper_tree, strategy.c)
        budget = analysis.steiner_count_bound(instance, strategy.c)
        return _solve_with_beads(
            instance,
            strategy,
            budget=budget,
            bead_charge=strategy.c,
            upper_bound=upper,
            prune_start=upper + _OBJECTIVE_TIE,
        )
    raise TypeError(f"unknown strategy {strategy!r}")


def _solve_degree_bound(instance: Instance, strategy: DegreeBound) -> SearchReport:
    n = instance.n_sources
    j_max = max_steiner_count(n, strategy.phi)
    incumbent = _Incumbent()
    examined = pruned = 0
    for topology in enumerate_bounded_topologies(n, j_max, strategy.phi):
        if analysis.lower_bound_path(instance, topology.n_steiner) >= incumbent.objective:
            pruned += 1
            continue
        examined += 1
        incumbent.offer(_solve_cost(instance, topology), topology, None)
    best = _finalize(instance, incumbent)
    return SearchReport(
        best=best,
        objective=incumbent.objective,
        topologies_examined=examined,
        topologies_pruned=pruned,
        strategy=strategy,
        lower_bound=analysis.lower_bound_path(instance, best.topology.n_steiner),
    )


def _solve_with_beads(
    instance: Instance,
    strategy: BoundStrategy,
    budget: int,
    bead_charge: float,
    upper_bound: float | None = None,
    prune_start: float = math.inf,
) -> SearchReport:
    """Shared search over branching skeletons plus bead vectors.

    budget caps the total Steiner count (branching plus beads); bead_charge
    is c for the node-weighted objective and 0 for the explicit bound.
    """
    n = instance.n_sources
    diameter = _bounding_box_diagonal(instance)
    if bead_charge > 0.0 and diameter > 0.0:
        cap = analysis.optimal_bead_count(instance.total_supply(), diameter, bead_charge)
    else:
        cap = budget
    incumbent = _Incumbent(prune_start)
    examined = pruned = 0
    j_cap = min(budget, max_steiner_count(n, 3))
    for topology in enumerate_bounded_topologies(n, j_cap, 3):
        j = topology.n_steiner
        bead_budget = budget - j
        allowed = {
            t
            for t in range(bead_budget + 1)
            if bead_charge * (j + t) + analysis.lower_bound_path(instance, j + t)
            < incumbent.objective
        }
        if not allowed:
            pruned += 1
            continue
        examined += 1
        edge_children = topology.edge_children()
        n_edges = len(edge_children)
        if j == 0:
            # Terminal positions are fixed, so bead vectors just rescale the
            # per-edge contributions; nothing needs solving.
            flows = compute_flows(topology, instance.supplies)
            terms = _fixed_edge_terms(instance, topology, flows)
            for beads in _bead_vectors(n_edges, min(cap, bead_budget), allowed):
                value = bead_charge * sum(beads) + sum(
                    term / (p + 1) for term, p in zip(terms, beads)
                )
                incumbent.offer(value, topology, beads)
        else:
            elimination = algebraic_solver.TreeElimination(instance, topology)
            for beads in _bead_vectors(n_edges, min(cap, bead_budget), allowed):
                weights = _bead_weights(elimination.flows, edge_children, beads)
                value = bead_charge * (j + sum(beads)) + elimination.cost(weights)
                incumbent.offer(value, topology, beads)
    if incumbent.topology is None:
        raise InternalConsistencyError("search space was empty; the spanning trees alone should appear")
    best = _finalize(instance, incumbent)
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
        steiner_bound=budget if isinstance(strategy, NodeWeighted) else None,
        winning_beads=BeadVector(incumbent.beads) if incumbent.beads else None,
    )


def _fixed_edge_terms(instance: Instance, topology: Topology, flows) -> list[float]:
    positions = [*instance.sources, instance.sink]
    return [
        flows[child] * sq_dist(positions[child], positions[topology.parents[child]])
        for child in topology.edge_children()
    ]


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
