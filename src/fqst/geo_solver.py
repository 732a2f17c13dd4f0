"""Linear-time merging solver for full topologies with degree-3 Steiner points.

The solver makes two passes over a merge order derived from one traversal of
the topology rooted at the sink.  The forward pass repeatedly picks a Steiner
slot whose two in-neighbours are already resolved terminals (sources or
quasi-sources) and replaces all three nodes by a single quasi-source whose
position and mass are closed-form functions of the inputs.  The backward pass
then re-creates each eliminated Steiner point, in reverse order, at the
centre of mass of its quasi-source and its already-placed out-neighbour; the
out-neighbour's mass in that average is the flow on the connecting edge.

Every quasi-source carries two numbers beyond its position: its formal mass
(which has no flow interpretation) and the additive mass of the Steiner slot
it absorbed, which equals the flow that slot sends toward the sink.  Both are
needed by later merges and by the backward pass.

Only unit supplies are supported here; the algebraic solver covers general
supplies and general Steiner degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedTopologyError, UnsupportedWeightsError
from .geometry import MassPoint, Point, lerp
from .topology import Instance, Topology, compute_flows
from .trees import SolvedTree, build_solved_tree

SOURCE_SOURCE = "source-source"
QUASI_SOURCE = "quasi-source"
QUASI_QUASI = "quasi-quasi"


@dataclass(frozen=True, slots=True)
class MergeProvenance:
    """Which two terminals and which Steiner slot a quasi-source replaced."""

    first: int
    second: int
    steiner_slot: int


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
    provenance: MergeProvenance | None = None


@dataclass(frozen=True, slots=True)
class MergeStep:
    kind: str
    inputs: tuple[int, int]
    steiner_slot: int
    result: QuasiSource


@dataclass(frozen=True)
class GeoRun:
    """A solve together with its merge trace and operation counts.

    steps is empty when the run was made with record_steps=False (the large-n
    path, which skips per-merge object construction).
    """

    tree: SolvedTree
    steps: tuple[MergeStep, ...]
    merge_count: int
    placement_count: int


def _require_unit(mass: float) -> None:
    if mass != 1.0:
        raise UnsupportedWeightsError(
            "merging is defined for unit supplies only; "
            "route non-unit instances to the algebraic solver"
        )


def merge_sources(
    z1: MassPoint, z2: MassPoint, provenance: MergeProvenance | None = None
) -> QuasiSource:
    """Replace two unit sources and their common Steiner slot.

    The quasi-source sits at the midpoint and carries mass 2; the absorbed
    slot's additive mass is 1 + 1 = 2.
    """
    _require_unit(z1.mass)
    _require_unit(z2.mass)
    return QuasiSource(lerp(z1.position, z2.position, 0.5), 2.0, 2.0, provenance)


def merge_quasi_source(
    q: QuasiSource, z: MassPoint, provenance: MergeProvenance | None = None
) -> QuasiSource:
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
    return QuasiSource(
        position, bulk / (w0 + w1), q.replaced_steiner_mass + z.mass, provenance
    )


def merge_quasi_quasi(
    q1: QuasiSource, q2: QuasiSource, provenance: MergeProvenance | None = None
) -> QuasiSource:
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
    return QuasiSource(position, mass, w1 + w2, provenance)


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
    for node in range(topology.n_nodes):
        if topology.is_terminal(node):
            if deg[node] != 1:
                raise UnsupportedTopologyError(
                    f"terminal {node} has degree {deg[node]}; the topology is not full"
                )
        elif deg[node] != 3:
            raise UnsupportedTopologyError(
                f"Steiner slot {node} has degree {deg[node]}; only degree-3 slots are supported"
            )


def run_geo_algorithm(
    instance: Instance, topology: Topology, record_steps: bool = True
) -> GeoRun:
    """Solve a full degree-3 topology by quasi-source merging and back-tracking.

    Does exactly n-1 merges and n-1 placements for n sources; the merge order
    is the reversed breadth-first order from the sink restricted to Steiner
    slots, so both in-neighbours of a slot are always resolved before it.

    The merge state lives in flat float arrays (position, mass, absorbed
    additive mass per node), which keeps the hot loops free of per-merge
    object allocation; the MergeStep trace is materialised afterwards unless
    record_steps is False.
    """
    _check_supported(instance, topology)
    order = topology.order_from_sink()
    children = topology.children_lists()
    parents = topology.parents
    sink = topology.sink
    n_nodes = topology.n_nodes

    qx = [0.0] * n_nodes
    qy = [0.0] * n_nodes
    qmass = [0.0] * n_nodes  # 0.0 marks an unresolved / source node
    qrepl = [0.0] * n_nodes
    for i, p in enumerate(instance.sources):
        qx[i] = p.x
        qy[i] = p.y

    merge_slots: list[int] = []
    merge_kinds: list[str] = []
    merge_count = 0
    for node in reversed(order):
        if node <= sink:
            continue
        a, b = children[node]
        ma, mb = qmass[a], qmass[b]
        if ma == 0.0 and mb == 0.0:
            # two unit sources; the replacement is their midpoint with mass 2
            kind = SOURCE_SOURCE
            qx[node] = 0.5 * (qx[a] + qx[b])
            qy[node] = 0.5 * (qy[a] + qy[b])
            qmass[node] = 2.0
            qrepl[node] = 2.0
        elif ma != 0.0 and mb != 0.0:
            # two quasi-sources, weights w0i*wi/(w0i+wi) as in merge_quasi_quasi
            kind = QUASI_QUASI
            w01, w1 = ma, qrepl[a]
            w02, w2 = mb, qrepl[b]
            denom = w1 * w2 * (w01 + w02) + w01 * w02 * (w1 + w2)
            t = w02 * w2 * (w01 + w1) / denom
            qx[node] = qx[a] + t * (qx[b] - qx[a])
            qy[node] = qy[a] + t * (qy[b] - qy[a])
            qmass[node] = denom / ((w1 + w01) * (w2 + w02))
            qrepl[node] = w1 + w2
        else:
            # one quasi-source and one unit source, as in merge_quasi_source
            kind = QUASI_SOURCE
            quasi, source = (a, b) if ma != 0.0 else (b, a)
            w0, w1 = qmass[quasi], qrepl[quasi]
            bulk = w0 + w1 + w0 * w1
            t = (w0 + w1) / bulk
            qx[node] = qx[quasi] + t * (qx[source] - qx[quasi])
            qy[node] = qy[quasi] + t * (qy[source] - qy[quasi])
            qmass[node] = bulk / (w0 + w1)
            qrepl[node] = w1 + 1.0
        merge_count += 1
        merge_slots.append(node)
        merge_kinds.append(kind)

    px = qx.copy()
    py = qy.copy()
    px[sink] = instance.sink.x
    py[sink] = instance.sink.y
    placement_count = 0
    for s in reversed(merge_slots):
        # the out-neighbour's mass is the flow on the connecting edge, which
        # equals the additive mass of the slot being placed
        anchor = parents[s]
        w0 = qmass[s]
        f = qrepl[s]
        total = w0 + f
        px[s] = (w0 * qx[s] + f * px[anchor]) / total
        py[s] = (w0 * qy[s] + f * py[anchor]) / total
        placement_count += 1

    flows = compute_flows(topology, instance.supplies)
    tree = build_solved_tree(instance, topology, px, py, flows)

    steps: tuple[MergeStep, ...] = ()
    if record_steps:
        steps = tuple(
            MergeStep(
                kind,
                (children[slot][0], children[slot][1]),
                slot,
                QuasiSource(
                    Point(qx[slot], qy[slot]),
                    qmass[slot],
                    qrepl[slot],
                    MergeProvenance(children[slot][0], children[slot][1], slot),
                ),
            )
            for kind, slot in zip(merge_kinds, merge_slots)
        )
    return GeoRun(tree, steps, merge_count, placement_count)


def solve_full_topology(instance: Instance, topology: Topology) -> SolvedTree:
    """Locally minimal embedding of a full degree-3 topology, with flows and cost."""
    return run_geo_algorithm(instance, topology, record_steps=False).tree
