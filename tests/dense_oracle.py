"""Dense linear-system oracle for fixed-topology embeddings.

Setting the gradient of the cost to zero at every Steiner point says each
Steiner point is the weighted mean of its neighbours.  Collecting those
conditions over the Steiner slots gives one linear system per coordinate
with a shared coefficient matrix: row i has diagonal equal to the total
weight incident to slot i, off-diagonal -w for each Steiner neighbour
connected with weight w, and terminal neighbours moved to the right-hand
side.  Edge weights default to the flows; bead-reduced weights f/(p+1) keep
the weighted-mean form.

The matrix is weakly diagonally dominant in every row, and every connected
component of its Steiner-Steiner adjacency contains a strictly dominant row,
which makes it non-singular.  Solving it densely with numpy is independent
of the package's tree elimination, so the tests use it as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fqst.errors import InternalConsistencyError, TopologyError
from fqst.geometry import Point
from fqst.topology import NO_PARENT, Instance, Topology

RESIDUAL_TOLERANCE = 1e-9



@dataclass(frozen=True)
class SteinerSystem:
    """The per-coordinate linear system for the Steiner positions.

    The matrix is shared by both coordinates; only the right-hand sides
    differ.  steiner_slots maps row index to node id.
    """

    matrix: np.ndarray
    rhs_x: np.ndarray
    rhs_y: np.ndarray
    steiner_slots: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.steiner_slots)


def assemble_system(
    instance: Instance,
    topology: Topology,
    flows: Sequence[float],
    edge_weights: Sequence[float] | None = None,
) -> SteinerSystem:
    """Stationarity system for the Steiner slots; empty when there are none.

    edge_weights defaults to the flows; exact search passes bead-reduced
    weights instead.
    """
    weights = flows if edge_weights is None else edge_weights
    slots = tuple(topology.steiner_slots())
    p = len(slots)
    row_of = {slot: r for r, slot in enumerate(slots)}
    matrix = np.zeros((p, p))
    rhs_x = np.zeros(p)
    rhs_y = np.zeros(p)
    if p == 0:
        return SteinerSystem(matrix, rhs_x, rhs_y, slots)

    positions = [*instance.sources, instance.sink]
    children = topology.children
    for r, slot in enumerate(slots):
        incident = [(child, weights[child]) for child in children[slot]]
        parent = topology.parents[slot]
        if parent == NO_PARENT:
            raise TopologyError(f"Steiner slot {slot} has no out-edge")
        incident.append((parent, weights[slot]))
        for neighbour, w in incident:
            matrix[r, r] += w
            if neighbour > topology.sink:
                matrix[r, row_of[neighbour]] -= w
            else:
                pos = positions[neighbour]
                rhs_x[r] += w * pos.x
                rhs_y[r] += w * pos.y
    return SteinerSystem(matrix, rhs_x, rhs_y, slots)


def _check_dominance(matrix: np.ndarray) -> None:
    """Weak row dominance everywhere, strict somewhere in every component."""
    p = matrix.shape[0]
    diag = np.abs(np.diag(matrix))
    off = np.abs(matrix).sum(axis=1) - diag
    slack = diag - off
    if np.any(slack < -1e-9 * (1.0 + diag)):
        raise InternalConsistencyError(
            "assembled matrix is not diagonally dominant; assembly bug"
        )
    strict = slack > 1e-12 * (1.0 + diag)
    seen = [False] * p
    for start in range(p):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        head = 0
        any_strict = False
        while head < len(component):
            row = component[head]
            head += 1
            any_strict = any_strict or bool(strict[row])
            for other in range(p):
                if not seen[other] and matrix[row, other] != 0.0:
                    seen[other] = True
                    component.append(other)
        if not any_strict:
            raise InternalConsistencyError(
                "a Steiner component has no terminal attachment; assembly bug"
            )


def solve_positions(system: SteinerSystem) -> tuple[Point, ...]:
    """The unique solution of the system for both coordinates.

    Solved by direct elimination with partial pivoting; the residual is
    checked against RESIDUAL_TOLERANCE relative to the right-hand side.
    """
    if system.size == 0:
        return ()
    _check_dominance(system.matrix)
    rhs = np.column_stack([system.rhs_x, system.rhs_y])
    solution = np.linalg.solve(system.matrix, rhs)
    residual = system.matrix @ solution - rhs
    bound = RESIDUAL_TOLERANCE * (1.0 + np.abs(rhs).max())
    if np.abs(residual).max() > bound:
        raise InternalConsistencyError(
            f"linear solve residual {np.abs(residual).max():.3e} exceeds {bound:.3e}"
        )
    return tuple(Point(float(x), float(y)) for x, y in solution)
