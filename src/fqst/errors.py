"""Exception types shared across the package."""


class FqstError(Exception):
    """Base class for all package errors."""


class GeometryError(FqstError, ValueError):
    """Degenerate or out-of-domain geometric input."""


class TopologyError(FqstError, ValueError):
    """Malformed topology: a parent array that is not a tree, refused when a
    Topology is built, or a Steiner slot with no inflow."""


class UnsupportedTopologyError(FqstError, ValueError):
    """Topology outside the merging solver's domain (it needs a full topology with degree-3 Steiner points)."""


class UnsupportedWeightsError(FqstError, ValueError):
    """Supplies outside a solver's domain (the merging solver needs unit supplies)."""


class InternalConsistencyError(FqstError, RuntimeError):
    """An internal invariant failed; indicates a bug rather than bad input."""


class GuardLimitError(FqstError, ValueError):
    """Instance too large for exhaustive search under the configured guard."""


class DocumentError(FqstError, ValueError):
    """Malformed instance or result document."""
