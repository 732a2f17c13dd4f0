import math
import random

import numpy as np
import pytest

from fqst import (
    DegreeBound,
    Instance,
    Point,
    Topology,
    UnsupportedTopologyError,
    UnsupportedWeightsError,
    run_geo_algorithm,
    solve_topology,
)
from fqst.cli import main
from fqst.documents import dumps
from fqst.geo_solver import QuasiSource
from certificate_oracle import MassPoint
from conftest import NO_PARENT, instance_document, random_full_topology, random_instance, with_steiner_positions
from merge_replay import merge_quasi_quasi, merge_quasi_source, merge_sources, replay_tree


def unit(x, y):
    return MassPoint(Point(x, y), 1.0)


class TestMergeSources:
    def test_worked_example(self):
        q = merge_sources(unit(0, 0), unit(2, 4))
        assert q.position == Point(1.0, 2.0)
        assert q.mass == 2.0
        assert q.replaced_steiner_mass == 2.0

    def test_coincident_sources(self):
        q = merge_sources(unit(3.5, -1.0), unit(3.5, -1.0))
        assert q.position == Point(3.5, -1.0)
        assert q.mass == 2.0

    def test_symmetric_pair(self):
        q = merge_sources(unit(-3, 0), unit(3, 0))
        assert q.position == Point(0.0, 0.0)

    def test_non_unit_mass_rejected(self):
        with pytest.raises(UnsupportedWeightsError):
            merge_sources(MassPoint(Point(0, 0), 2.0), unit(1, 1))


class TestMergeQuasiSource:
    def test_worked_example(self):
        q = QuasiSource(Point(1, 2), 2.0, 2.0)
        merged = merge_quasi_source(q, unit(11, 5))
        assert merged.position == Point(6.0, 3.5)
        assert merged.mass == 2.0
        assert merged.replaced_steiner_mass == 3.0

    def test_coincident_input(self):
        q = QuasiSource(Point(4, 4), 2.0, 3.0)
        merged = merge_quasi_source(q, unit(4, 4))
        assert merged.position == Point(4.0, 4.0)

    def test_formula_substitution(self):
        q = QuasiSource(Point(0, 0), 2.0, 1.0)
        merged = merge_quasi_source(q, unit(6, 0))
        assert merged.position.x == pytest.approx(3.6, abs=1e-15)
        assert merged.position.y == 0.0
        assert merged.mass == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_non_unit_source_rejected(self):
        q = QuasiSource(Point(0, 0), 2.0, 2.0)
        with pytest.raises(UnsupportedWeightsError):
            merge_quasi_source(q, MassPoint(Point(1, 0), 1.5))


def quasi_source_elimination_oracle(q, z, v):
    """Solve the centre-of-mass equations for (s1, s2) directly.

    s1 sits between the quasi-source and s2; s2 receives s1's subtree flow
    w1 and the unit source z, sending w1 + 1 to v.
    """
    w0, w1 = q.mass, q.replaced_steiner_mass
    matrix = np.array([[w0 + w1, -w1], [-w1, 2.0 * (w1 + 1.0)]])
    out = []
    for qc, zc, vc in ((q.position.x, z.position.x, v.x), (q.position.y, z.position.y, v.y)):
        rhs = np.array([w0 * qc, zc + (w1 + 1.0) * vc])
        out.append(np.linalg.solve(matrix, rhs)[1])
    return Point(out[0], out[1])


def quasi_quasi_elimination_oracle(q1, q2, v):
    """Solve the centre-of-mass equations for (s1, s2, s3) directly."""
    w01, w1 = q1.mass, q1.replaced_steiner_mass
    w02, w2 = q2.mass, q2.replaced_steiner_mass
    matrix = np.array(
        [
            [w01 + w1, 0.0, -w1],
            [0.0, w02 + w2, -w2],
            [-w1, -w2, 2.0 * (w1 + w2)],
        ]
    )
    out = []
    for c1, c2, vc in (
        (q1.position.x, q2.position.x, v.x),
        (q1.position.y, q2.position.y, v.y),
    ):
        rhs = np.array([w01 * c1, w02 * c2, (w1 + w2) * vc])
        out.append(np.linalg.solve(matrix, rhs)[2])
    return Point(out[0], out[1])


class TestMergeQuasiQuasi:
    def test_symmetric_inputs_give_midpoint(self):
        q1 = QuasiSource(Point(0, 0), 2.0, 3.0)
        q2 = QuasiSource(Point(4, 2), 2.0, 3.0)
        merged = merge_quasi_quasi(q1, q2)
        assert merged.position == Point(2.0, 1.0)

    def test_balanced_example(self):
        q1 = QuasiSource(Point(0, 0), 2.0, 2.0)
        q2 = QuasiSource(Point(4, 0), 2.0, 2.0)
        merged = merge_quasi_quasi(q1, q2)
        assert merged.position == Point(2.0, 0.0)
        assert merged.mass == pytest.approx(2.0, abs=1e-15)
        assert merged.replaced_steiner_mass == 4.0

    def test_asymmetric_example(self):
        # frozen from the elimination identity: coefficient
        # w02*w2*(w01+w1) / (w1*w2*(w01+w02) + w01*w02*(w1+w2)) = 15/29
        q1 = QuasiSource(Point(0, 0), 2.0, 2.0)
        q2 = QuasiSource(Point(8, 0), 5.0 / 3.0, 3.0)
        merged = merge_quasi_quasi(q1, q2)
        assert merged.position.x == pytest.approx(8.0 * 15.0 / 29.0, rel=1e-12)
        assert merged.position.y == 0.0
        assert merged.mass == pytest.approx(29.0 / 14.0, rel=1e-12)
        assert merged.replaced_steiner_mass == 5.0

    def test_replacement_property_against_elimination_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            q1 = QuasiSource(
                Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                rng.uniform(1.5, 4.0),
                rng.uniform(2.0, 6.0),
            )
            q2 = QuasiSource(
                Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                rng.uniform(1.5, 4.0),
                rng.uniform(2.0, 6.0),
            )
            merged = merge_quasi_quasi(q1, q2)
            w_out = q1.replaced_steiner_mass + q2.replaced_steiner_mass
            for _ in range(3):
                v = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
                s3 = quasi_quasi_elimination_oracle(q1, q2, v)
                expected_x = (merged.mass * merged.position.x + w_out * v.x) / (
                    merged.mass + w_out
                )
                expected_y = (merged.mass * merged.position.y + w_out * v.y) / (
                    merged.mass + w_out
                )
                assert s3.x == pytest.approx(expected_x, abs=1e-10)
                assert s3.y == pytest.approx(expected_y, abs=1e-10)

    def test_quasi_source_replacement_against_elimination_oracle(self):
        rng = random.Random(12)
        for _ in range(50):
            q = QuasiSource(
                Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                rng.uniform(1.5, 4.0),
                rng.uniform(2.0, 6.0),
            )
            z = unit(rng.uniform(-5, 5), rng.uniform(-5, 5))
            merged = merge_quasi_source(q, z)
            w_out = q.replaced_steiner_mass + 1.0
            for _ in range(3):
                v = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
                s2 = quasi_source_elimination_oracle(q, z, v)
                expected_x = (merged.mass * merged.position.x + w_out * v.x) / (
                    merged.mass + w_out
                )
                expected_y = (merged.mass * merged.position.y + w_out * v.y) / (
                    merged.mass + w_out
                )
                assert s2.x == pytest.approx(expected_x, abs=1e-10)
                assert s2.y == pytest.approx(expected_y, abs=1e-10)


class TestSolveFullTopology:
    def test_worked_example(self, worked_instance, worked_topology):
        run = run_geo_algorithm(worked_instance, worked_topology)
        tree = run.tree
        assert tree.steiner_positions[0].x == pytest.approx(5.0, abs=1e-12)
        assert tree.steiner_positions[0].y == pytest.approx(2.0, abs=1e-12)
        assert tree.steiner_positions[1].x == pytest.approx(9.0, abs=1e-12)
        assert tree.steiner_positions[1].y == pytest.approx(2.0, abs=1e-12)
        assert tree.cost == pytest.approx(102.0, abs=1e-12)
        first, second = run.steps
        assert first.kind == "source-source"
        assert first.result.position == Point(1.0, 2.0)
        assert first.result.mass == 2.0
        assert second.kind == "quasi-source"
        assert second.result.position == Point(6.0, 3.5)
        assert second.result.mass == 2.0

    def test_two_coincident_sources(self):
        d = 7.0
        inst = Instance.with_unit_supplies([Point(0, 0), Point(0, 0)], Point(d, 0))
        topo = Topology(2, 1, (3, 3, NO_PARENT, 2))
        tree = run_geo_algorithm(inst, topo).tree
        assert tree.steiner_positions[0] == Point(d / 2, 0.0)
        assert tree.cost == pytest.approx(d * d, rel=1e-12)
        assert not tree.degenerate

    def test_single_source_edge(self):
        inst = Instance.with_unit_supplies([Point(0, 0)], Point(3, 4))
        topo = Topology(1, 0, (1, NO_PARENT))
        tree = run_geo_algorithm(inst, topo).tree
        assert tree.cost == 25.0

    def test_matches_algebraic_solver(self):
        # the elimination against the paper's merges replayed from merge_*
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(2, 8)
            inst = random_instance(rng, n)
            topo = random_full_topology(rng, n)
            replay = replay_tree(inst, topo)
            alg = run_geo_algorithm(inst, topo).tree
            for p, q in zip(replay.steiner_positions, alg.steiner_positions):
                assert abs(p.x - q.x) <= 1e-9
                assert abs(p.y - q.y) <= 1e-9
            assert replay.cost == pytest.approx(alg.cost, rel=1e-9)

    def test_trace_matches_public_merge_functions(self):
        rng = random.Random(22)
        for _ in range(10):
            n = rng.randint(3, 7)
            inst = random_instance(rng, n)
            topo = random_full_topology(rng, n)
            run = run_geo_algorithm(inst, topo)
            replayed = {}
            for step in run.steps:
                inputs = []
                for node in step.inputs:
                    if node in replayed:
                        inputs.append(replayed[node])
                    else:
                        inputs.append(unit(inst.sources[node].x, inst.sources[node].y))
                kinds = [isinstance(i, QuasiSource) for i in inputs]
                if kinds == [False, False]:
                    q = merge_sources(inputs[0], inputs[1])
                elif kinds == [True, True]:
                    q = merge_quasi_quasi(inputs[0], inputs[1])
                elif kinds == [True, False]:
                    q = merge_quasi_source(inputs[0], inputs[1])
                else:
                    q = merge_quasi_source(inputs[1], inputs[0])
                replayed[step.steiner_slot] = q
                assert q.position.x == pytest.approx(step.result.position.x, abs=1e-12)
                assert q.position.y == pytest.approx(step.result.position.y, abs=1e-12)
                assert q.mass == pytest.approx(step.result.mass, rel=1e-12)
                assert q.replaced_steiner_mass == step.result.replaced_steiner_mass

    def test_rigid_motion_equivariance(self):
        rng = random.Random(23)
        theta, tx, ty = 0.83, -4.2, 2.6
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def move(p: Point) -> Point:
            return Point(cos_t * p.x - sin_t * p.y + tx, sin_t * p.x + cos_t * p.y + ty)

        for _ in range(10):
            n = rng.randint(2, 6)
            inst = random_instance(rng, n)
            topo = random_full_topology(rng, n)
            base = run_geo_algorithm(inst, topo).tree
            moved_inst = Instance.with_unit_supplies(
                [move(p) for p in inst.sources], move(inst.sink)
            )
            moved = run_geo_algorithm(moved_inst, topo).tree
            for p, q in zip(base.steiner_positions, moved.steiner_positions):
                expected = move(p)
                assert abs(expected.x - q.x) <= 1e-9
                assert abs(expected.y - q.y) <= 1e-9
            assert moved.cost == pytest.approx(base.cost, rel=1e-9)

    def test_operation_counts(self):
        rng = random.Random(24)
        for n in range(2, 11):
            inst = random_instance(rng, n)
            topo = random_full_topology(rng, n)
            run = run_geo_algorithm(inst, topo)
            assert run.merge_count == n - 1
            assert run.placement_count == n - 1
            assert run.merge_count + run.placement_count == 2 * (n - 1)

    def test_overflowing_cost_is_placed_exactly(self, tmp_path, capsys, worked_topology):
        # squared edge lengths overflow, but the placements, weighted means
        # in scaled flows, are exact and pass the certificate; the cost is
        # infinite, which solve-topology refuses to write (exit 2)
        inst = Instance.with_unit_supplies(
            [Point(1e308, 0.0), Point(-1e308, 0.0), Point(1e308, 1e308)], Point(0.0, -1e308)
        )
        for tree in (
            solve_topology(inst, worked_topology),
            run_geo_algorithm(inst, worked_topology).tree,
        ):
            assert tree.steiner_positions == (Point(1e307, -2e307), Point(2e307, -4e307))
            assert tree.deviations == {4: 0.0, 5: 0.0}
            assert tree.cost == math.inf
        path = tmp_path / "instance.json"
        path.write_text(dumps(instance_document(inst, DegreeBound(3), worked_topology)))
        assert main(["solve-topology", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_non_unit_supplies_rejected(self, worked_topology):
        inst = Instance(
            (Point(0, 0), Point(2, 4), Point(11, 5)), (1.0, 2.0, 1.0), Point(11, 1)
        )
        with pytest.raises(UnsupportedWeightsError):
            run_geo_algorithm(inst, worked_topology).tree

    def test_non_full_topology_rejected(self, worked_instance):
        # a path through the sources has terminals of degree 2
        topo = Topology(3, 0, (1, 2, 3, NO_PARENT))
        with pytest.raises(UnsupportedTopologyError):
            run_geo_algorithm(worked_instance, topo).tree

    def test_degree_four_steiner_rejected(self):
        inst = random_instance(random.Random(25), 3)
        topo = Topology(3, 1, (4, 4, 4, NO_PARENT, 3))
        with pytest.raises(UnsupportedTopologyError):
            run_geo_algorithm(inst, topo).tree

    def test_perturbing_any_steiner_increases_cost(self):
        rng = random.Random(26)
        inst = random_instance(rng, 5)
        topo = random_full_topology(rng, 5)
        tree = run_geo_algorithm(inst, topo).tree
        base = tree.cost
        for idx in range(len(tree.steiner_positions)):
            for k in range(16):
                angle = 2 * math.pi * k / 16
                moved = list(tree.steiner_positions)
                moved[idx] = Point(
                    moved[idx].x + 1e-3 * math.cos(angle),
                    moved[idx].y + 1e-3 * math.sin(angle),
                )
                assert with_steiner_positions(tree, moved).cost >= base - 1e-15
