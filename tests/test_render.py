from fqst import Instance, Point, Topology, render_svg, solve_topology
from fqst.trees import SolvedTree
from fqst.topology import compute_flows
from conftest import NO_PARENT, node_table


def test_worked_example_element_counts(worked_instance, worked_topology):
    tree = solve_topology(worked_instance, worked_topology)
    svg = render_svg(tree)
    assert svg.count('class="terminal"') == 4
    assert svg.count('class="steiner"') == 2
    assert svg.count("<line") == 5
    assert svg.count('class="flow"') == 5
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")


def test_byte_identical_output(worked_instance, worked_topology):
    tree = solve_topology(worked_instance, worked_topology)
    assert render_svg(tree) == render_svg(tree)


def test_steinerless_tree_renders_terminals_only():
    inst = Instance.with_unit_supplies([Point(0, 0), Point(1, 2)], Point(3, 0))
    topo = Topology(2, 0, (2, 2, NO_PARENT))
    svg = render_svg(solve_topology(inst, topo))
    assert svg.count('class="terminal"') == 3
    assert svg.count('class="steiner"') == 0
    assert svg.count("<line") == 2


def test_coincident_points_render():
    inst = Instance.with_unit_supplies([Point(1, 1), Point(1, 1)], Point(1, 2))
    topo = Topology(2, 0, (1, 2, NO_PARENT))
    flows = compute_flows(topo, inst.supplies)
    tree = SolvedTree(inst, topo, *node_table(inst), flows)
    svg = render_svg(tree)
    assert svg.count('class="terminal"') == 3
    assert "</svg>" in svg
