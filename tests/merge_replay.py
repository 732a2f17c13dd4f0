"""The paper's merging algorithm replayed from its public closed forms.

For a full degree-3 unit-supply topology, the Steiner slots are merged in
reversed breadth-first order from the sink, each by merge_sources,
merge_quasi_source or merge_quasi_quasi according to how many of its two
inputs are quasi-sources.  Back-tracking then places each slot, parents
first, at (w0 q + f x_parent) / (w0 + f): q and w0 its quasi-source's
position and formal mass, f the absorbed slot's additive mass (its
out-edge flow).  None of this goes through the package's tree elimination,
so the tests use it as an oracle for it.
"""

from __future__ import annotations

from fqst.geo_solver import QuasiSource, merge_quasi_quasi, merge_quasi_source, merge_sources
from fqst.geometry import MassPoint
from fqst.topology import Instance, Topology, compute_flows
from fqst.trees import SolvedTree, build_solved_tree


def replay_merges(instance: Instance, topology: Topology) -> dict[int, QuasiSource]:
    """Each Steiner slot's quasi-source, in merge order."""
    sink = topology.sink
    children = topology.children_lists()
    quasi: dict[int, QuasiSource] = {}
    for slot in reversed(topology.order_from_sink()):
        if slot <= sink:
            continue
        a, b = (
            quasi[c] if c > sink else MassPoint(instance.sources[c], instance.supplies[c])
            for c in children[slot]
        )
        if isinstance(a, QuasiSource) and isinstance(b, QuasiSource):
            quasi[slot] = merge_quasi_quasi(a, b)
        elif isinstance(a, QuasiSource):
            quasi[slot] = merge_quasi_source(a, b)
        elif isinstance(b, QuasiSource):
            quasi[slot] = merge_quasi_source(b, a)
        else:
            quasi[slot] = merge_sources(a, b)
    return quasi


def replay_tree(instance: Instance, topology: Topology) -> SolvedTree:
    """The embedding the merges and the back-tracking give."""
    quasi = replay_merges(instance, topology)
    sink = topology.sink
    xs = [p.x for p in instance.sources] + [instance.sink.x] + [0.0] * topology.n_steiner
    ys = [p.y for p in instance.sources] + [instance.sink.y] + [0.0] * topology.n_steiner
    for slot in topology.order_from_sink():
        if slot <= sink:
            continue
        q = quasi[slot]
        w0, f = q.mass, q.replaced_steiner_mass
        parent = topology.parents[slot]
        xs[slot] = (w0 * q.position.x + f * xs[parent]) / (w0 + f)
        ys[slot] = (w0 * q.position.y + f * ys[parent]) / (w0 + f)
    return build_solved_tree(instance, topology, xs, ys, compute_flows(topology, instance.supplies))
