"""The table-based certificates in fqst.analysis against the Point/MassPoint
oracle in certificate_oracle.py: equal results, bit for bit, on random
solved trees with mixed supplies, coincident points and moved Steiner
points, and the same GeometryError on a bad mass.  The edge-pair screens
and the centroid deviations are also held to the plain per-pair and
per-slot loops, at tolerances on both sides of the obtuse-pair skip's
guard and on nodes built to reach its corners."""

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
from fqst.topology import NO_PARENT, Instance, Topology
from fqst.trees import SolvedTree
from conftest import random_general_tree, with_steiner_positions

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
    return with_steiner_positions(tree, positions)


def assert_same_certificates(tree: SolvedTree) -> None:
    assert outcome(analysis.centroid_deviations, tree) == outcome(
        oracle.centroid_deviations, tree
    )
    for tol in (analysis.CERTIFICATE_TOLERANCE, 0.3):
        assert outcome(lambda: analysis.check_edge_pairs(tree, tol)[0]) == outcome(
            oracle.check_angles, tree, tol
        )
    for strategy in STRATEGIES:
        for tol in (analysis.OVERLAP_ANGLE_TOLERANCE, 0.5):
            overlaps = lambda: analysis.check_edge_pairs(tree, overlap_tol=tol, strategy=strategy)[1]
            assert outcome(overlaps) == outcome(oracle.check_overlapping_edges, tree, tol, strategy)
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


@st.composite
def degenerate_trees(draw) -> SolvedTree:
    """A tree whose sink has at least two children, grown by hanging each
    further node from an earlier one, with points on a small grid or
    anywhere: leaves, coincident points (a zero-length edge at a leaf at
    least) and collinear edges all occur."""
    n_sources = draw(st.integers(min_value=1, max_value=6))
    n_steiner = draw(st.integers(min_value=0 if n_sources > 1 else 1, max_value=5))
    sink = n_sources
    n_nodes = n_sources + 1 + n_steiner
    order = draw(st.permutations([v for v in range(n_nodes) if v != sink]))
    parents = [NO_PARENT] * n_nodes
    for i, node in enumerate(order):
        parents[node] = sink if i < 2 else draw(st.sampled_from([sink, *order[:i]]))
    coordinate = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-3.0, 3.0))
    xs = [draw(coordinate) for _ in range(n_nodes)]
    ys = [draw(coordinate) for _ in range(n_nodes)]
    leaf = order[-1]
    xs[leaf], ys[leaf] = xs[parents[leaf]], ys[parents[leaf]]
    # the certificates read positions from the table, so the instance's are placeholders
    instance = Instance.with_unit_supplies([Point(float(i), 0.0) for i in range(n_sources)], Point(-1.0, 1.0))
    flows = tuple(0.0 if node == sink else 1.0 for node in range(n_nodes))
    topology = Topology(n_sources, n_steiner, tuple(parents))
    return SolvedTree(instance, topology, tuple(xs), tuple(ys), flows, 0.0)


@given(degenerate_trees())
@settings(max_examples=300, deadline=None)
def test_one_pass_over_edge_pairs_matches_the_two_screens(tree):
    for strategy in STRATEGIES:
        for tol, overlap_tol in ((analysis.CERTIFICATE_TOLERANCE, analysis.OVERLAP_ANGLE_TOLERANCE), (1.0, 0.5)):
            assert outcome(analysis.check_edge_pairs, tree, tol, overlap_tol, strategy) == repr(
                (oracle.check_angles(tree, tol), oracle.check_overlapping_edges(tree, overlap_tol, strategy))
            )


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("seed", range(6))
def test_bad_mass_raises_like_the_oracle(bad, seed):
    rng = random.Random(seed)
    tree = random_tree(rng, 5, 4, grid=False)
    flows = list(tree.flows)
    flows[rng.choice(tree.topology.edge_children())] = bad
    broken = SolvedTree(tree.instance, tree.topology, tree.xs, tree.ys, tuple(flows), tree.cost)
    assert_same_certificates(broken)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("seed", range(6))
def test_non_finite_position_behaves_like_the_oracle(bad, seed):
    rng = random.Random(seed)
    tree = random_tree(rng, 5, 4, grid=False)
    xs, ys = list(tree.xs), list(tree.ys)
    slot = tree.topology.sink + 1 + rng.randrange(tree.topology.n_steiner)
    xs[slot], ys[slot] = bad, 1.0
    broken = SolvedTree(tree.instance, tree.topology, tuple(xs), tuple(ys), tree.flows, tree.cost)
    assert_same_certificates(broken)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_bad_mass_is_a_geometry_error(worked_instance, worked_topology, bad):
    # source 0 feeds Steiner slot 4, so its flow is a mass in slot 4's centroid
    tree = solve_topology(worked_instance, worked_topology)
    flows = list(tree.flows)
    flows[0] = bad
    broken = SolvedTree(tree.instance, tree.topology, tree.xs, tree.ys, tuple(flows), tree.cost)
    with pytest.raises(GeometryError, match="mass must be positive and finite"):
        analysis.centroid_deviations(broken)


# (tol_radians, overlap_tol): the defaults, a threshold near 0, large
# overlap tolerances at and past pi/2 (where obtuse pairs must be tested)
# and a negative tol_radians (a threshold past pi/2)
EDGE_PAIR_TOLERANCES = (
    (analysis.CERTIFICATE_TOLERANCE, analysis.OVERLAP_ANGLE_TOLERANCE),
    (math.pi / 2.0 - 1e-9, analysis.OVERLAP_ANGLE_TOLERANCE),
    (analysis.CERTIFICATE_TOLERANCE, 1.5),
    (analysis.CERTIFICATE_TOLERANCE, math.pi / 2.0),
    (-0.5, math.pi),
)


def assert_same_as_per_pair_loops(tree: SolvedTree) -> None:
    assert outcome(analysis.centroid_deviations, tree) == outcome(oracle.weighted_mean_deviations, tree)
    for strategy in STRATEGIES:
        for tol, overlap_tol in EDGE_PAIR_TOLERANCES:
            assert outcome(analysis.check_edge_pairs, tree, tol, overlap_tol, strategy) == outcome(
                oracle.check_edge_pairs_per_pair, tree, tol, overlap_tol, strategy
            )


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=8),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_passes_match_the_per_pair_loops(n_sources, n_steiner, grid, seed):
    assert_same_as_per_pair_loops(random_tree(random.Random(seed), n_sources, n_steiner, grid))


@given(degenerate_trees())
@settings(max_examples=150, deadline=None)
def test_passes_match_the_per_pair_loops_on_degenerate_trees(tree):
    assert_same_as_per_pair_loops(tree)


def star(points: list[tuple[float, float]], flows: list[float] | None = None) -> SolvedTree:
    """Steiner slot n + 1 at the origin with sources 0..n-1 at points[:-1]
    as its children and the sink at points[-1] as its parent."""
    n = len(points) - 1
    instance = Instance.with_unit_supplies([Point(float(i) + 1.0, 0.0) for i in range(n)], Point(-1.0, 1.0))
    topology = Topology(n, 1, (n + 1,) * n + (NO_PARENT, n))
    xs = tuple(x for x, _ in points) + (0.0,)
    ys = tuple(y for _, y in points) + (0.0,)
    flows = tuple(flows or [1.0] * n) + (0.0, float(n))
    return SolvedTree(instance, topology, xs, ys, flows, 0.0)


TINY = 1.6e-162  # its square is the smallest subnormal; products of two such underflow
CORNER_STARS = {
    # every pair meets at 120 degrees
    "all obtuse": [(1.0, 0.0), (-0.5, math.sqrt(3.0) / 2.0), (-0.5, -math.sqrt(3.0) / 2.0)],
    # two child edges along one ray, and the out-edge opposite
    "collinear": [(1.0, 0.0), (2.0, 0.0), (-1.0, 0.0)],
    # a child on the slot, and a child edge along the out-edge
    "zero-length": [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
    # dot products that underflow to +0.0 and -0.0
    "underflow": [(TINY, 1e-200), (1e-200, TINY), (-1e-200, TINY), (-TINY, -1e-200)],
}


@pytest.mark.parametrize("name", sorted(CORNER_STARS))
def test_corner_nodes_match_the_per_pair_loops(name):
    tree = star(CORNER_STARS[name], [1.0, 2.5, 0.75][: len(CORNER_STARS[name]) - 1] or None)
    assert_same_as_per_pair_loops(tree)


def test_underflowed_dot_products_take_the_full_test():
    # both in-edges meet the out-edge where u . v underflows to +0.0 or
    # -0.0 (the true angles lie just off pi/2), so neither pair is skipped
    # as obtuse and atan2 reads exactly pi/2 for both
    points = [(TINY, 1e-200), (-TINY, -1e-200), (1e-200, TINY)]
    (px, py) = points[-1]
    assert [x * px + y * py for x, y in points[:-1]] == [0.0, 0.0]
    violations, _ = analysis.check_edge_pairs(star(points), -1e-9)
    assert [(v.in_neighbour, v.angle) for v in violations] == [(0, math.pi / 2.0), (1, math.pi / 2.0)]


def test_obtuse_pairs_reach_a_large_overlap_tolerance():
    tree = star(CORNER_STARS["all obtuse"])
    assert analysis.check_edge_pairs(tree)[1] == []
    assert len(analysis.check_edge_pairs(tree, overlap_tol=math.pi)[1]) == 3


@pytest.mark.parametrize("position", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_non_finite_position_raises_like_weighted_mean(position):
    tree = star([position, (1.0, 1.0), (-1.0, 0.5)])
    assert outcome(analysis.centroid_deviations, tree).startswith("GeometryError(mass point at non-finite")
    assert outcome(analysis.centroid_deviations, tree) == outcome(oracle.weighted_mean_deviations, tree)


@pytest.mark.parametrize("mass", [0.0, -0.0, -2.0, math.nan, math.inf])
def test_bad_mass_raises_like_weighted_mean(mass):
    tree = star([(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)], [1.0, mass])
    assert outcome(analysis.centroid_deviations, tree).startswith("GeometryError(mass must be")
    assert outcome(analysis.centroid_deviations, tree) == outcome(oracle.weighted_mean_deviations, tree)
