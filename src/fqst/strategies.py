"""Steiner-point bounding strategies.

A tree minimising the flow-weighted quadratic cost only exists when the
number of Steiner points is bounded somehow; these are the three supported
ways of bounding it.
"""

from __future__ import annotations

import math
from typing import Union

from .geometry import Record


class DegreeBound(Record):
    """Require every Steiner point to have degree at least phi (phi >= 3)."""

    __slots__ = ("phi",)

    def __init__(self, phi: int) -> None:
        if phi < 3:
            raise ValueError(f"degree bound requires phi >= 3, got {phi}")
        self._store(phi)


class ExplicitBound(Record):
    """Cap the number of Steiner points at k (k >= 0)."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"explicit bound requires k >= 0, got {k}")
        self._store(k)


class NodeWeighted(Record):
    """Charge a fixed cost c > 0 per Steiner point in the objective."""

    __slots__ = ("c",)

    def __init__(self, c: float) -> None:
        if not (c > 0.0 and math.isfinite(c)):
            raise ValueError(f"node weight must be positive and finite, got {c}")
        self._store(c)


BoundStrategy = Union[DegreeBound, ExplicitBound, NodeWeighted]


def objective(strategy: BoundStrategy, cost: float, n_steiner: int) -> float:
    """The objective of a tree of the given cost and Steiner count: the cost
    plus c per Steiner point under the node weight, the cost otherwise."""
    if isinstance(strategy, NodeWeighted):
        return cost + strategy.c * n_steiner
    return cost

# the largest source count exact search accepts unless told otherwise
DEFAULT_GUARD = 6


def max_steiner_count(n_sources: int, phi: int) -> int:
    """Largest Steiner count a tree on n sources plus a sink can host when
    every Steiner degree is at least phi.

    A tree on n + 1 + j nodes has n + j edges, so counting degrees,
    2(n + j) >= (n + 1) + phi*j, i.e. j <= (n - 1) / (phi - 2).
    """
    return max(0, (n_sources - 1) // (phi - 2))
