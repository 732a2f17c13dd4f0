import math
import random

import pytest

from fqst import (
    DegreeBound,
    ExplicitBound,
    Instance,
    NodeWeighted,
    Point,
    SplitSpec,
    Topology,
    apply_split,
    beaded_spanning_tree,
    build_solved_tree,
    check_angles,
    check_centroid_certificate,
    check_degree_window,
    check_overlapping_edges,
    compute_flows,
    cost,
    cost_node_weighted,
    expand_beads,
    lower_bound_path,
    optimal_bead_count,
    solve_exact,
    solve_topology,
    sq_dist,
    steiner_count_bound,
)
from fqst.analysis import _weighted_sink_distances, beaded_spanning_cost, spanning_bead_floor
from conftest import NO_PARENT, random_instance, random_supplied_instance


@pytest.fixture
def worked_tree(worked_instance, worked_topology):
    return solve_topology(worked_instance, worked_topology)


@pytest.fixture
def balanced_cross_tree():
    """Three unit sources into one Steiner slot at the origin, sink below.

    Arranged so the in-pair centroid and the out-side centroid both equal
    the Steiner position, making the {0,1}-split exactly cost-neutral.
    """
    inst = Instance.with_unit_supplies(
        [Point(-1, 0), Point(1, 0), Point(0, 3)], Point(0, -1)
    )
    topo = Topology(3, 1, (4, 4, 4, NO_PARENT, 3))
    return solve_topology(inst, topo)


class TestCost:
    def test_worked_example(self, worked_tree):
        assert cost(worked_tree) == pytest.approx(102.0, abs=1e-12)
        assert worked_tree.cost == pytest.approx(cost(worked_tree), rel=1e-12)

    def test_all_coincident_is_zero(self):
        inst = Instance.with_unit_supplies([Point(5, 5), Point(5, 5)], Point(0, 0))
        topo = Topology(2, 0, (1, 2, NO_PARENT))
        flows = compute_flows(topo, inst.supplies)
        tree = build_solved_tree(inst, topo, (), flows)
        assert cost(tree) == 5.0 * 5.0 * 2.0 * 2.0 + 0.0  # z0->z1 zero, z1->sink carries 2
        # a genuinely zero tree: both sources on the sink... not allowed; use
        # the zero-length edge instead
        assert tree.degenerate

    def test_single_edge(self):
        inst = Instance((Point(0, 0),), (3.0,), Point(2, 0))
        topo = Topology(1, 0, (1, NO_PARENT))
        tree = solve_topology(inst, topo)
        assert cost(tree) == 12.0


class TestCostNodeWeighted:
    def test_worked_example_with_charge(self, worked_tree):
        assert cost_node_weighted(worked_tree, 10.0) == pytest.approx(122.0, abs=1e-12)

    def test_no_steiner_equals_cost(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(1, 0))
        tree = solve_topology(inst, Topology(1, 0, (1, NO_PARENT)))
        assert cost_node_weighted(tree, 7.0) == cost(tree)

    def test_beaded_path(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(3, 0))
        topo = Topology(1, 2, (2, NO_PARENT, 3, 1))
        tree = solve_topology(inst, topo)
        assert cost_node_weighted(tree, 1.0) == pytest.approx(5.0, abs=1e-12)


class TestCentroidCertificate:
    def test_solved_tree_passes(self, worked_tree):
        assert all(check_centroid_certificate(worked_tree).values())

    def test_perturbed_steiner_fails(self, worked_tree):
        moved = worked_tree.with_steiner_positions(
            [Point(5.1, 2.0), worked_tree.steiner_positions[1]]
        )
        result = check_centroid_certificate(moved)
        assert not result[4]
        assert result[5] is False or result[5] is True  # slot 5 shifts only via slot 4
        assert not all(result.values())

    def test_balanced_cross_passes(self, balanced_cross_tree):
        assert all(check_centroid_certificate(balanced_cross_tree).values())


class TestCertificateResidualEquivalence:
    def test_certificate_agrees_with_stationarity_residual(self):
        # the residual row for a Steiner point is its total incident weight
        # times its offset from the neighbour centroid, so the two checks
        # agree once the tolerance is scaled by that weight
        import numpy as np

        from dense_oracle import assemble_system
        from conftest import random_full_topology

        rng = random.Random(46)
        for _ in range(10):
            n = rng.randint(2, 5)
            inst = random_instance(rng, n)
            topo = random_full_topology(rng, n)
            tree = solve_topology(inst, topo)
            if rng.random() < 0.7 and tree.steiner_positions:
                moved = list(tree.steiner_positions)
                idx = rng.randrange(len(moved))
                moved[idx] = Point(
                    moved[idx].x + rng.uniform(-0.3, 0.3),
                    moved[idx].y + rng.uniform(-0.3, 0.3),
                )
                tree = tree.with_steiner_positions(moved)
            system = assemble_system(inst, topo, tree.flows)
            xs = np.array([p.x for p in tree.steiner_positions])
            ys = np.array([p.y for p in tree.steiner_positions])
            rx = system.matrix @ xs - system.rhs_x
            ry = system.matrix @ ys - system.rhs_y
            tol = 1e-7
            verdict = check_centroid_certificate(tree, tol)
            for row, slot in enumerate(system.steiner_slots):
                residual = math.hypot(rx[row], ry[row])
                scaled = residual / system.matrix[row, row]
                if abs(scaled - tol) > 1e-12:  # away from the knife edge
                    assert verdict[slot] == (scaled <= tol)


class TestCheckAngles:
    def test_straight_path_has_none(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(3, 0))
        topo = Topology(1, 2, (2, NO_PARENT, 3, 1))
        assert check_angles(solve_topology(inst, topo)) == []

    def test_sixty_degree_bend_flagged(self):
        # source relays through another source with a 60 degree turn
        inst = Instance.with_unit_supplies(
            [Point(1, 0), Point(0, 0)], Point(0.5, math.sqrt(3) / 2)
        )
        topo = Topology(2, 0, (1, 2, NO_PARENT))
        tree = solve_topology(inst, topo)
        violations = check_angles(tree)
        assert len(violations) == 1
        assert violations[0].node == 1
        assert violations[0].angle == pytest.approx(math.pi / 3, abs=1e-12)

    def test_exact_explicit_optimum_has_none(self):
        rng = random.Random(41)
        for _ in range(5):
            inst = random_instance(rng, 3)
            report = solve_exact(inst, ExplicitBound(1))
            assert check_angles(report.best, 1e-7) == []


class TestDegreeWindow:
    def test_degree_four_violates_phi_three(self):
        inst = Instance.with_unit_supplies(
            [Point(0, 2), Point(2, 0), Point(-2, 0)], Point(0, -2)
        )
        topo = Topology(3, 1, (4, 4, 4, NO_PARENT, 3))
        tree = solve_topology(inst, topo)
        violations = check_degree_window(tree, 3)
        assert any(v.kind == "steiner-degree" for v in violations)
        # the window for phi = 4 is [4, 5], so the same tree passes
        assert check_degree_window(tree, 4) == []

    def test_degree_two_source_midpoint_condition(self):
        # relay source placed exactly at the balance point stays quiet
        inst = Instance.with_unit_supplies([Point(1, 0), Point(3, 0)], Point(0, 0))
        topo = Topology(2, 0, (2, 0, NO_PARENT))
        tree = solve_topology(inst, topo)
        assert check_degree_window(tree, 3) == []
        # moving the relay off the balance point trips the midpoint check
        bad = Instance.with_unit_supplies([Point(1.2, 0.1), Point(3, 0)], Point(0, 0))
        bad_tree = solve_topology(bad, topo)
        kinds = {v.kind for v in check_degree_window(bad_tree, 3)}
        assert "source-midpoint" in kinds

    def test_source_degree_cap(self):
        inst = Instance.with_unit_supplies(
            [Point(0, 0), Point(-1, 1), Point(1, 1)], Point(0, -2)
        )
        topo = Topology(3, 0, (3, 0, 0, NO_PARENT))
        tree = solve_topology(inst, topo)
        assert any(v.kind == "source-degree" for v in check_degree_window(tree, 3))


class TestOverlappingEdges:
    def test_folded_collinear_edges_report_overlap(self):
        # the relay node sits beyond both neighbours, so the shorter edge
        # lies inside the longer one
        inst = Instance.with_unit_supplies([Point(0, 0), Point(1, 0)], Point(2, 0))
        topo = Topology(2, 0, (2, 0, NO_PARENT))  # z1 -> z0 -> sink, z0 past z1
        flows = compute_flows(topo, inst.supplies)
        tree = build_solved_tree(inst, topo, (), flows)
        overlaps = check_overlapping_edges(tree)
        assert len(overlaps) == 1
        assert overlaps[0].node == 0
        assert not overlaps[0].degree_phi_caveat

    def test_midpoint_bead_is_not_an_overlap(self):
        # opposite-direction collinear edges share only the bead itself
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(2, 0))
        topo = Topology(1, 1, (2, NO_PARENT, 1))
        tree = solve_topology(inst, topo)
        assert check_overlapping_edges(tree) == []

    def test_degree_phi_caveat_under_degree_bound(self):
        # force a degree-3 Steiner slot with two collinear incident edges
        inst = Instance.with_unit_supplies([Point(-1, 0), Point(-2, 0)], Point(1, 0))
        topo = Topology(2, 1, (3, 3, NO_PARENT, 2))
        tree = solve_topology(inst, topo)
        overlaps = check_overlapping_edges(tree, strategy=DegreeBound(3))
        assert overlaps
        assert all(o.degree_phi_caveat for o in overlaps if o.node == 3)

    def test_generic_tree_has_none(self, worked_tree):
        assert check_overlapping_edges(worked_tree) == []

    def test_zero_length_edge_reported_degenerate(self):
        inst = Instance.with_unit_supplies([Point(0, 0), Point(0, 0)], Point(2, 0))
        topo = Topology(2, 0, (1, 2, NO_PARENT))
        flows = compute_flows(topo, inst.supplies)
        tree = build_solved_tree(inst, topo, (), flows)
        overlaps = check_overlapping_edges(tree)
        assert any(o.degenerate for o in overlaps)


class TestApplySplit:
    def test_balanced_cross_split_is_not_beneficial(self, balanced_cross_tree):
        split = apply_split(balanced_cross_tree, SplitSpec(4, (0, 1)))
        assert split.cost == pytest.approx(balanced_cross_tree.cost, abs=1e-9)
        # the new slot lands exactly on the old one
        assert split.steiner_positions[0].x == pytest.approx(0.0, abs=1e-9)
        assert split.steiner_positions[1].x == pytest.approx(0.0, abs=1e-9)
        assert split.degenerate

    def test_spread_star_has_beneficial_pair_split(self):
        inst = Instance.with_unit_supplies(
            [Point(-10, 10), Point(10, 10), Point(-10, 14), Point(10, 14)], Point(0, 0)
        )
        topo = Topology(4, 1, (5, 5, 5, 5, NO_PARENT, 4))
        tree = solve_topology(inst, topo)
        import itertools

        best = min(
            apply_split(tree, SplitSpec(5, pair)).cost
            for pair in itertools.combinations(range(4), 2)
        )
        assert best < tree.cost - 1e-9

    def test_full_split_strictly_improves(self, worked_tree):
        split = apply_split(worked_tree, SplitSpec(4, (0, 1)))
        assert split.cost < worked_tree.cost - 1e-12

    def test_invalid_member_rejected(self, worked_tree):
        with pytest.raises(ValueError):
            apply_split(worked_tree, SplitSpec(4, (2,)))


class TestOptimalBeadCount:
    def test_unit_example(self):
        assert optimal_bead_count(1.0, 3.0, 1.0) == 2

    def test_short_edge_needs_no_beads(self):
        # exactly at the boundary f*len^2 == 2c the tie goes to zero beads
        assert optimal_bead_count(1.0, 1.0, 0.5) == 0
        assert optimal_bead_count(2.0, 1.0, 2.0) == 0
        assert optimal_bead_count(1.0, 0.3, 5.0) == 0

    def test_long_edge(self):
        assert optimal_bead_count(4.0, 10.0, 1.0) == 19

    def test_matches_enumeration(self):
        rng = random.Random(42)
        for _ in range(300):
            f = rng.uniform(0.1, 10.0)
            length = rng.uniform(0.1, 10.0)
            c = rng.uniform(0.05, 10.0)
            ratio = f * length * length / c
            cap = int(math.sqrt(ratio)) + 2
            best = min(
                range(cap + 1), key=lambda p: (f * length * length / (p + 1) + c * p, p)
            )
            got = optimal_bead_count(f, length, c)
            assert got == best
            assert got * (got + 1) <= ratio + 1e-9
            assert ratio <= (got + 1) * (got + 2) + 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_bead_count(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("c", [1e-34, 1e-60, 1e-300])
    def test_huge_counts_come_from_the_closed_form(self, c):
        # f L^2 / c = 100 / c; the count is the floor of sqrt(100 / c) - 1 or
        # next to it, and is found without stepping from one bead to the next
        got = optimal_bead_count(1.0, 10.0, c)
        assert abs(got + 1 - math.sqrt(100.0 / c)) <= 2e-15 * math.sqrt(100.0 / c) + 2

    def test_overflowing_ratio_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflows"):
            optimal_bead_count(1.0, 10.0, 5e-324)


class TestLowerBoundPath:
    def test_single_source(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(2, 0))
        assert lower_bound_path(inst, 0) == pytest.approx(2.0)
        # the true optimum (the direct edge, cost 4) respects it
        assert lower_bound_path(inst, 0) <= 4.0

    def test_worked_instance_budget_two(self, worked_instance):
        # squared distances to the sink: 122 + 90 + 16 = 228
        assert lower_bound_path(worked_instance, 2) == pytest.approx(228.0 / 6.0)
        assert lower_bound_path(worked_instance, 2) <= 102.0

    def test_sources_at_sink_distance_zero(self):
        inst = Instance.with_unit_supplies(
            [Point(1e-12, 0), Point(0, 1e-12)], Point(0, 0)
        )
        assert lower_bound_path(inst, 3) == pytest.approx(0.0, abs=1e-20)

    def test_weighted_by_supplies(self):
        # supply-weighted squared distances: 0.01*100 + 0.01*101 = 2.01
        inst = Instance((Point(0, 0), Point(0, 1)), (0.01, 0.01), Point(10, 0))
        assert lower_bound_path(inst, 1) == pytest.approx(2.01 / 4.0)
        # below the one-Steiner tree's cost 1.0075
        assert lower_bound_path(inst, 1) <= 1.0075


class TestBeadedSpanningTree:
    def test_boundary_distance_needs_no_beads(self):
        # distance exactly sqrt(2c/f) with f = 1, c = 0.5
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(1, 0))
        tree = beaded_spanning_tree(inst, 0.5)
        assert tree.topology.n_steiner == 0

    def test_collinear_sources_become_beaded_path(self):
        inst = Instance.with_unit_supplies([Point(0, 0), Point(1, 0)], Point(4, 0))
        c = 0.5
        tree = beaded_spanning_tree(inst, c)
        # spanning tree is the path; the long edge carries flow 2 over length 3
        expected_beads = optimal_bead_count(2.0, 3.0, c)
        assert tree.topology.n_steiner == expected_beads
        assert all(abs(p.y) < 1e-12 for p in tree.steiner_positions)
        assert all(check_centroid_certificate(tree).values())

    def test_upper_bounds_node_weighted_optimum(self):
        rng = random.Random(43)
        for _ in range(5):
            inst = random_instance(rng, 3, span=4.0)
            q = sum(sq_dist(z, inst.sink) for z in inst.sources)
            c = rng.uniform(q / 16.0, q / 4.0)
            report = solve_exact(inst, NodeWeighted(c))
            bst = beaded_spanning_tree(inst, c)
            assert report.objective <= cost_node_weighted(bst, c) + 1e-9

    def test_edge_length_bound_holds(self):
        rng = random.Random(44)
        for _ in range(10):
            inst = random_instance(rng, 4)
            c = rng.uniform(0.5, 20.0)
            tree = beaded_spanning_tree(inst, c)
            for child in tree.topology.edge_children():
                flow = tree.flows[child]
                length2 = sq_dist(
                    tree.position(child), tree.position(tree.topology.parents[child])
                )
                assert length2 <= 2.0 * c / flow + 1e-9


    def test_closed_form_cost_matches_the_built_tree(self):
        rng = random.Random(47)
        for _ in range(20):
            inst = random_supplied_instance(rng, rng.randint(1, 5), span=4.0)
            c = rng.choice([1e-3, 1e-2, 0.1, 1.0]) * _weighted_sink_distances(inst)
            built = cost_node_weighted(beaded_spanning_tree(inst, c), c)
            assert beaded_spanning_cost(inst, c) == pytest.approx(built, rel=1e-12, abs=0.0)


class TestSteinerCountBound:
    def test_expensive_steiner_gives_zero(self, worked_instance):
        bst = beaded_spanning_tree(worked_instance, 1000.0)
        assert cost_node_weighted(bst, 1000.0) < 1000.0 * 2
        assert steiner_count_bound(worked_instance, 1000.0) == 0

    def test_monotone_nonincreasing_in_charge(self, worked_instance):
        grid = [0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0, 150.0, 400.0]
        values = [steiner_count_bound(worked_instance, c) for c in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]

    def test_spanning_bead_floor_is_below_the_budget(self):
        rng = random.Random(46)
        for _ in range(20):
            inst = random_supplied_instance(rng, rng.randint(1, 5), span=4.0)
            c = rng.choice([1e-3, 1e-2, 0.1, 1.0]) * _weighted_sink_distances(inst)
            floor = spanning_bead_floor(inst, c)
            beads = beaded_spanning_tree(inst, c).topology.n_steiner
            assert floor <= beads <= steiner_count_bound(inst, c)

    def test_bounds_exact_optimum_count(self):
        rng = random.Random(45)
        for _ in range(5):
            inst = random_instance(rng, 3, span=4.0)
            q = sum(sq_dist(z, inst.sink) for z in inst.sources)
            c = rng.uniform(q / 16.0, q / 4.0)
            report = solve_exact(inst, NodeWeighted(c))
            assert report.best.topology.n_steiner <= steiner_count_bound(inst, c)


class TestExpandBeads:
    def test_single_edge_chain(self):
        from canonical_oracle import canonical_form

        topo = Topology(1, 0, (1, NO_PARENT))
        expanded = expand_beads(topo, [2])
        assert expanded.n_steiner == 2
        assert canonical_form(expanded) == canonical_form(
            Topology(1, 2, (2, NO_PARENT, 3, 1))
        )

    def test_zero_vector_is_identity(self, worked_topology):
        expanded = expand_beads(worked_topology, [0] * 5)
        assert expanded.parents == worked_topology.parents
