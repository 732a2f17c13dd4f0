"""The paper's linear-time merging algorithm for full degree-3 topologies.

Its forward pass repeatedly picks a Steiner slot whose two in-neighbours are
already resolved terminals (sources or quasi-sources) and replaces all three
nodes by a single quasi-source, at the in-neighbours' weighted mean with
their merged weight as its formal mass.  The backward pass then re-creates
each eliminated Steiner point, in reverse order, at the centre of mass of
its quasi-source and its already-placed out-neighbour; the out-neighbour's
mass in that average is the flow on the connecting edge.

Every quasi-source carries two numbers beyond its position: its formal mass
(which has no flow interpretation) and the additive mass of the Steiner slot
it absorbed, which equals the flow that slot sends toward the sink.  Both are
needed by later merges and by the backward pass.

Both passes are algebraic_solver's tree elimination, which generalises them
to any topology and any positive supplies: run_geo_algorithm checks that the
topology is full and the supplies are unit, runs the elimination, and reads
the merge trace off its upward merges.  The paper's closed forms for the
three kinds of merge are the tests' oracle (tests/merge_replay.py).
"""

from __future__ import annotations

from functools import cached_property

from .algebraic_solver import UpwardMerges, eliminate
from .errors import UnsupportedTopologyError, UnsupportedWeightsError
from .geometry import Point, Record
from .topology import Instance, Topology
from .trees import SolvedTree

SOURCE_SOURCE = "source-source"
QUASI_SOURCE = "quasi-source"
QUASI_QUASI = "quasi-quasi"
_KINDS = (SOURCE_SOURCE, QUASI_SOURCE, QUASI_QUASI)  # by the count of quasi inputs


class QuasiSource(Record):
    """A synthetic terminal standing in for a Steiner slot and its two inputs.

    mass is the formal mass w(q); replaced_steiner_mass is the additive mass
    of the absorbed Steiner slot (the flow on its out-edge), used both by
    later merges and as the out-neighbour weight during back-tracking.
    """

    __slots__ = ("position", "mass", "replaced_steiner_mass")

    def __init__(self, position: Point, mass: float, replaced_steiner_mass: float) -> None:
        self._store(position, mass, replaced_steiner_mass)


class MergeStep(Record):
    __slots__ = ("kind", "inputs", "steiner_slot", "result")

    def __init__(self, kind: str, inputs: tuple[int, int], steiner_slot: int, result: QuasiSource) -> None:
        self._store(kind, inputs, steiner_slot, result)


class GeoRun(Record):
    """A solve together with its merge trace and operation counts.

    steps, the paper's merge trace, is read off the elimination's upward
    merges when first asked for.
    """

    def __init__(self, tree: SolvedTree, merges: UpwardMerges) -> None:
        self._store(tree, merges)

    def __repr__(self) -> str:
        return f"GeoRun(tree={self.tree!r})"  # not the merges, tables over every node

    @property
    def merge_count(self) -> int:
        return len(self.merges.order)

    # the pass down places every merged slot once
    placement_count = merge_count

    @cached_property
    def steps(self) -> tuple[MergeStep, ...]:
        """Each merge as the paper's quasi-source, at the slot's summary
        position with its merged weight as the formal mass, which absorbs
        the slot's out-edge flow as the additive mass."""
        topology = self.tree.topology
        children = topology.children_lists()
        sink = topology.sink
        flows = self.tree.flows
        order, qx, qy, v, scale = self.merges
        steps = []
        for slot in order:
            a, b = children[slot]
            position = Point(qx[slot], qy[slot])
            result = QuasiSource(position, v[slot] / scale, flows[slot])
            steps.append(MergeStep(_KINDS[(a > sink) + (b > sink)], (a, b), slot, result))
        return tuple(steps)


def _check_supported(instance: Instance, topology: Topology) -> None:
    if topology.n_sources != instance.n_sources:
        raise UnsupportedTopologyError(
            f"topology is for {topology.n_sources} sources, instance has {instance.n_sources}"
        )
    if not instance.has_unit_supplies():
        raise UnsupportedWeightsError(
            "the merging solver needs unit supplies; use the algebraic solver"
        )
    n = instance.n_sources
    if topology.n_steiner != max(0, n - 1):
        raise UnsupportedTopologyError(
            f"a full topology on {n} sources has {max(0, n - 1)} Steiner slots, "
            f"got {topology.n_steiner}"
        )
    deg = topology.degrees()
    for node, d in enumerate(deg):
        if node <= n:  # a terminal
            if d != 1:
                raise UnsupportedTopologyError(
                    f"terminal {node} has degree {d}; the topology is not full"
                )
        elif d != 3:
            raise UnsupportedTopologyError(
                f"Steiner slot {node} has degree {d}; only degree-3 slots are supported"
            )


def run_geo_algorithm(instance: Instance, topology: Topology) -> GeoRun:
    """Solve a full degree-3 topology by quasi-source merging and back-tracking.

    Does exactly n-1 merges and n-1 placements for n sources; the merge order
    is the reversed breadth-first order from the sink restricted to Steiner
    slots, so both in-neighbours of a slot are always resolved before it.
    """
    _check_supported(instance, topology)
    return GeoRun(*eliminate(instance, topology))

