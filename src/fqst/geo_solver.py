"""The paper's linear-time merging algorithm for full degree-3 topologies.

Its forward pass repeatedly picks a Steiner slot whose two in-neighbours are
already resolved terminals (sources or quasi-sources) and replaces all three
nodes by a single quasi-source whose position and mass are closed-form
functions of the inputs (merge_sources, merge_quasi_source,
merge_quasi_quasi).  The backward pass then re-creates each eliminated
Steiner point, in reverse order, at the centre of mass of its quasi-source
and its already-placed out-neighbour; the out-neighbour's mass in that
average is the flow on the connecting edge.

Every quasi-source carries two numbers beyond its position: its formal mass
(which has no flow interpretation) and the additive mass of the Steiner slot
it absorbed, which equals the flow that slot sends toward the sink.  Both are
needed by later merges and by the backward pass.

Both passes are algebraic_solver's tree elimination, which generalises them
to any topology and any positive supplies: run_geo_algorithm checks that the
topology is full and the supplies are unit, runs the elimination, and reads
the merge trace off its upward merges.  The merge_* closed forms stay as the
paper states them, for the trace's readers and the tests' replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebraic_solver import UpwardMerges, eliminate, solve_topology
from .errors import UnsupportedTopologyError, UnsupportedWeightsError
from .geometry import MassPoint, Point, lerp
from .topology import Instance, Topology
from .trees import SolvedTree

SOURCE_SOURCE = "source-source"
QUASI_SOURCE = "quasi-source"
QUASI_QUASI = "quasi-quasi"
_KINDS = (SOURCE_SOURCE, QUASI_SOURCE, QUASI_QUASI)  # by the count of quasi inputs


@dataclass(frozen=True, slots=True)
class QuasiSource:
    """A synthetic terminal standing in for a Steiner slot and its two inputs.

    mass is the formal mass w(q); replaced_steiner_mass is the additive mass
    of the absorbed Steiner slot (the flow on its out-edge), used both by
    later merges and as the out-neighbour weight during back-tracking.
    """

    position: Point
    mass: float
    replaced_steiner_mass: float


@dataclass(frozen=True, slots=True)
class MergeStep:
    kind: str
    inputs: tuple[int, int]
    steiner_slot: int
    result: QuasiSource


@dataclass(frozen=True)
class GeoRun:
    """A solve together with its merge trace and operation counts.

    steps, the paper's merge trace, is read off the elimination's upward
    merges when first asked for.
    """

    tree: SolvedTree
    merges: UpwardMerges = field(repr=False)

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
        qx, qy, mass = self.merges.qx, self.merges.qy, self.merges.v
        steps = []
        for slot in self.merges.order:
            a, b = children[slot]
            position = Point(qx[slot], qy[slot])
            result = QuasiSource(position, mass[slot], flows[slot])
            steps.append(MergeStep(_KINDS[(a > sink) + (b > sink)], (a, b), slot, result))
        return tuple(steps)


def _require_unit(mass: float) -> None:
    if mass != 1.0:
        raise UnsupportedWeightsError(
            "merging is defined for unit supplies only; "
            "route non-unit instances to the algebraic solver"
        )


def merge_sources(z1: MassPoint, z2: MassPoint) -> QuasiSource:
    """Replace two unit sources and their common Steiner slot.

    The quasi-source sits at the midpoint and carries mass 2; the absorbed
    slot's additive mass is 1 + 1 = 2.
    """
    _require_unit(z1.mass)
    _require_unit(z2.mass)
    return QuasiSource(lerp(z1.position, z2.position, 0.5), 2.0, 2.0)


def merge_quasi_source(q: QuasiSource, z: MassPoint) -> QuasiSource:
    """Replace a quasi-source, a unit source, and their common Steiner slot.

    With w0 = w(q) and w1 the mass of the slot q absorbed, the replacement
    sits at q + (w0+w1)/(w0+w1+w0*w1) * (z-q) with mass
    (w0+w1+w0*w1)/(w0+w1).
    """
    _require_unit(z.mass)
    w0 = q.mass
    w1 = q.replaced_steiner_mass
    bulk = w0 + w1 + w0 * w1
    position = lerp(q.position, z.position, (w0 + w1) / bulk)
    return QuasiSource(position, bulk / (w0 + w1), q.replaced_steiner_mass + z.mass)


def merge_quasi_quasi(q1: QuasiSource, q2: QuasiSource) -> QuasiSource:
    """Replace two quasi-sources and their common Steiner slot.

    Eliminating the two absorbed Steiner points from the centre-of-mass
    conditions leaves the new terminal as the combination of q1, q2 with
    weights w01*w1/(w01+w1) and w02*w2/(w02+w2), i.e. at

        q1 + w02*w2*(w01+w1) / D * (q2 - q1),
        D = w1*w2*(w01+w02) + w01*w02*(w1+w2),

    with mass D / ((w1+w01)*(w2+w02)).  For mirror-symmetric inputs the
    coefficient reduces to 1/2.
    """
    w01, w1 = q1.mass, q1.replaced_steiner_mass
    w02, w2 = q2.mass, q2.replaced_steiner_mass
    denom = w1 * w2 * (w01 + w02) + w01 * w02 * (w1 + w2)
    position = lerp(q1.position, q2.position, w02 * w2 * (w01 + w1) / denom)
    mass = denom / ((w1 + w01) * (w2 + w02))
    return QuasiSource(position, mass, w1 + w2)


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


def solve_full_topology(instance: Instance, topology: Topology) -> SolvedTree:
    """Locally minimal embedding of a full degree-3 topology, with flows and cost."""
    _check_supported(instance, topology)
    return solve_topology(instance, topology)
