"""The paper's merging algorithm replayed from its closed forms.

For a full degree-3 unit-supply topology, the Steiner slots are merged in
reversed breadth-first order from the sink, each by merge_sources,
merge_quasi_source or merge_quasi_quasi according to how many of its two
inputs are quasi-sources.  These closed forms are kept here as the paper
states them.  Back-tracking then places each slot, parents first, at
(w0 q + f x_parent) / (w0 + f): q and w0 its quasi-source's position and
formal mass, f the absorbed slot's additive mass (its out-edge flow).  None
of this goes through the package's tree elimination, so the tests use it
as an oracle for it.
"""

from __future__ import annotations

from certificate_oracle import MassPoint, lerp
from fqst.errors import UnsupportedWeightsError
from fqst.geo_solver import QuasiSource
from fqst.topology import Instance, Topology, compute_flows
from fqst.trees import SolvedTree, build_solved_tree


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
