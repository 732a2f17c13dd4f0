"""The table-based certificates in fqst.analysis against the Point/MassPoint
oracle in certificate_oracle.py: equal results, bit for bit, on random
solved trees with mixed supplies, coincident points and moved Steiner
points, and the same GeometryError on a bad mass."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certificate_oracle as oracle
from fqst import analysis, solve_topology
from fqst.errors import GeometryError
from fqst.geometry import Point
from fqst.strategies import DegreeBound, ExplicitBound
from fqst.topology import Instance
from fqst.trees import SolvedTree
from conftest import random_general_tree

STRATEGIES = (None, DegreeBound(3), DegreeBound(4), ExplicitBound(2))


def outcome(function, *args, **kwargs) -> str:
    """repr of the result or of the GeometryError raised; repr tells every
    float apart, -0.0 and nan included."""
    try:
        return repr(function(*args, **kwargs))
    except GeometryError as exc:
        return f"GeometryError({exc})"


def random_tree(rng: random.Random, n_sources: int, n_steiner: int, grid: bool) -> SolvedTree:
    """A random topology solved for mixed supplies, then possibly with its
    Steiner points moved or dropped onto a neighbour.  On a grid, points
    often coincide or line up, so zero-length edges and exact overlaps
    occur."""
    topology = random_general_tree(rng, n_sources, n_steiner)

    def point() -> Point:
        if grid:
            return Point(float(rng.randint(0, 3)), float(rng.randint(0, 3)))
        return Point(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))

    sink = point()
    sources = []
    while len(sources) < n_sources:
        p = point()
        if p != sink:
            sources.append(p)
    supplies = tuple(rng.choice((1.0, rng.uniform(0.5, 3.0))) for _ in range(n_sources))
    tree = solve_topology(Instance(tuple(sources), supplies, sink), topology)
    variant = rng.randrange(3)
    if variant == 0 or not n_steiner:
        return tree
    positions = list(tree.steiner_positions)
    for i in range(n_steiner):
        if variant == 1 and rng.random() < 0.5:
            positions[i] = point()
        elif variant == 2 and rng.random() < 0.5:
            slot = topology.sink + 1 + i
            positions[i] = tree.position(topology.parents[slot])
    return tree.with_steiner_positions(positions)


def assert_same_certificates(tree: SolvedTree) -> None:
    assert outcome(analysis.centroid_deviations, tree) == outcome(
        oracle.centroid_deviations, tree
    )
    for tol in (analysis.CERTIFICATE_TOLERANCE, 0.3):
        assert outcome(analysis.check_angles, tree, tol) == outcome(
            oracle.check_angles, tree, tol
        )
    for strategy in STRATEGIES:
        for tol in (analysis.OVERLAP_ANGLE_TOLERANCE, 0.5):
            assert outcome(analysis.check_overlapping_edges, tree, tol, strategy) == outcome(
                oracle.check_overlapping_edges, tree, tol, strategy
            )
    for phi in (3, 4, 5):
        for tol in (analysis.CERTIFICATE_TOLERANCE, 1.0):
            assert outcome(analysis.check_degree_window, tree, phi, tol) == outcome(
                oracle.check_degree_window, tree, phi, tol
            )


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=8),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_tables_match_the_oracle(n_sources, n_steiner, grid, seed):
    assert_same_certificates(random_tree(random.Random(seed), n_sources, n_steiner, grid))


def test_bench_sized_tree_matches_the_oracle():
    rng = random.Random(5)
    assert_same_certificates(random_tree(rng, 300, 200, grid=False))
    assert_same_certificates(random_tree(rng, 200, 150, grid=True))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("seed", range(6))
def test_bad_mass_raises_like_the_oracle(bad, seed):
    rng = random.Random(seed)
    tree = random_tree(rng, 5, 4, grid=False)
    flows = list(tree.flows)
    flows[rng.choice(tree.topology.edge_children())] = bad
    broken = SolvedTree(tree.instance, tree.topology, tree.steiner_positions, tuple(flows), tree.cost)
    assert_same_certificates(broken)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("seed", range(6))
def test_non_finite_position_behaves_like_the_oracle(bad, seed):
    rng = random.Random(seed)
    tree = random_tree(rng, 5, 4, grid=False)
    positions = list(tree.steiner_positions)
    positions[rng.randrange(len(positions))] = Point(bad, 1.0)
    broken = SolvedTree(tree.instance, tree.topology, tuple(positions), tree.flows, tree.cost)
    assert_same_certificates(broken)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_bad_mass_is_a_geometry_error(worked_instance, worked_topology, bad):
    # source 0 feeds Steiner slot 4, so its flow is a mass in slot 4's centroid
    tree = solve_topology(worked_instance, worked_topology)
    flows = list(tree.flows)
    flows[0] = bad
    broken = SolvedTree(tree.instance, tree.topology, tree.steiner_positions, tuple(flows), tree.cost)
    with pytest.raises(GeometryError, match="mass must be positive and finite"):
        analysis.centroid_deviations(broken)
