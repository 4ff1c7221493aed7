"""Exception types shared across the package."""


class IsophaseError(Exception):
    """Base class for all package errors."""


class InvalidSubsetError(IsophaseError, ValueError):
    """Vertex subset is out of range, unsorted or has duplicates."""


class InvalidMapError(IsophaseError, ValueError):
    """A map is not a valid (partial) injection for the given graphs."""


class SizeError(IsophaseError, ValueError):
    """Pattern larger than host, or subgraph size larger than the graphs."""


class BudgetExceededError(IsophaseError, RuntimeError):
    """Search-node budget hit before the search resolved.

    Carries the partial count accumulated so far and the nodes expanded.
    """

    def __init__(self, message: str, partial_count: int, nodes: int):
        super().__init__(message)
        self.partial_count = partial_count
        self.nodes = nodes


class ScaleError(IsophaseError, ValueError):
    """An instance is too large to enumerate, or a value leaves the float range."""


class ParameterError(IsophaseError, ValueError):
    """Probability parameter outside its admissible open interval."""


class RegionError(IsophaseError, ValueError):
    """(p, q) lies outside the admissible region required by a bound."""


class SymmetryError(IsophaseError, ValueError):
    """Arguments must be swapped (and p, q mirrored) before this bound applies."""


class StructuralError(IsophaseError, ValueError):
    """A pair graph violates an invariant its constructors guarantee."""


class NTooSmallError(IsophaseError, ValueError):
    """n is too small for the threshold equation to have a root."""


class DepthLimitError(IsophaseError, ValueError):
    """Hereditarily finite set is too deep to encode within fixed-width limits."""


class InvalidInputError(IsophaseError, ValueError):
    """Inputs violate a precondition (overlapping sets, self-loop query, ...)."""
