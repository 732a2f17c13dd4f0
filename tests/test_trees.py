"""SolvedTree's coordinate table and its derived views."""

import random

import pytest

from fqst import Point, TopologyError, solve_topology
from fqst.trees import SolvedTree, build_solved_tree
from conftest import (
    beaded_spanning_tree,
    node_table,
    random_general_tree,
    random_supplied_instance,
    with_steiner_positions,
)


def solved_trees():
    rng = random.Random(81)
    for _ in range(12):
        n = rng.randint(1, 6)
        inst = random_supplied_instance(rng, n)
        yield solve_topology(inst, random_general_tree(rng, n, rng.randint(0, 5)))
    yield beaded_spanning_tree(random_supplied_instance(rng, 4), 0.05)


@pytest.mark.parametrize("tree", list(solved_trees()))
def test_views_agree_with_the_table(tree):
    topology = tree.topology
    sink = topology.sink
    assert len(tree.xs) == len(tree.ys) == topology.n_nodes
    assert tree.position(sink) == tree.instance.sink
    for i, source in enumerate(tree.instance.sources):
        assert tree.position(i) == source
    assert len(tree.steiner_positions) == topology.n_steiner
    for i, point in enumerate(tree.steiner_positions):
        node = sink + 1 + i
        assert point == tree.position(node) == Point(tree.xs[node], tree.ys[node])


def test_build_from_the_table_recomputes_cost(worked_instance, worked_topology):
    tree = solve_topology(worked_instance, worked_topology)
    rebuilt = build_solved_tree(worked_instance, worked_topology, tree.xs, tree.ys, tree.flows)
    assert rebuilt == tree
    assert rebuilt.cost == pytest.approx(102.0, abs=1e-9)
    moved = with_steiner_positions(tree, [Point(5.0, 2.0), Point(9.0, 3.0)])
    assert moved.xs == tree.xs and moved.ys[-1] == 3.0
    assert moved.cost > tree.cost


@pytest.mark.parametrize("short", ["xs", "ys", "both", "flows"])
def test_rejects_a_table_of_the_wrong_length(worked_instance, worked_topology, short):
    tree = solve_topology(worked_instance, worked_topology)
    fields = {"xs": tree.xs, "ys": tree.ys, "flows": tree.flows}
    for name in ("xs", "ys") if short == "both" else (short,):
        fields[name] = fields[name][:-1]
    with pytest.raises(TopologyError):
        SolvedTree(worked_instance, worked_topology, cost=tree.cost, **fields)


def test_build_rejects_a_table_without_its_steiner_rows(worked_instance, worked_topology):
    flows = solve_topology(worked_instance, worked_topology).flows
    with pytest.raises(TopologyError, match="one entry per node"):
        build_solved_tree(worked_instance, worked_topology, *node_table(worked_instance), flows)
