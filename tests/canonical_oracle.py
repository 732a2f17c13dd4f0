"""Brute-force canonical form of a topology under Steiner relabelling.

The package canonicalises topologies with the sink-rooted encoding
(fqst.topology.rooted_encoding).  This independent key tries every
relabelling of the Steiner slots and keeps the smallest parent array, so the
enumeration tests can check deduplication against something that shares no
code with it.  Its cost grows as n_steiner factorial.
"""

from __future__ import annotations

import itertools

from fqst.topology import NO_PARENT, Topology


def canonical_form(topology: Topology) -> tuple[int, ...]:
    """Minimum lexicographic parent array over all Steiner-slot relabellings.

    Sources and the sink keep their labels; Steiner slots are interchangeable.
    """
    slots = list(topology.steiner_slots())
    n_nodes = topology.n_nodes
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(slots):
        relabel = list(range(n_nodes))
        for old, new in zip(slots, perm):
            relabel[old] = new
        arr = [0] * n_nodes
        for node, parent in enumerate(topology.parents):
            arr[relabel[node]] = NO_PARENT if parent == NO_PARENT else relabel[parent]
        key = tuple(arr)
        if best is None or key < best:
            best = key
    assert best is not None
    return best
