"""Exception hierarchy shared across the package.

Two broad families matter for the batch runner's exit codes: input/contract
problems (exit 2) and numerical failures discovered while solving (exit 1).
"""

from __future__ import annotations


class HetdimError(Exception):
    """Base class for all package errors."""


class ValidationError(HetdimError):
    """Bad input: violated invariant, malformed config, schema mismatch."""


class ContractError(ValidationError):
    """An operation was called outside its contract (e.g. symmetry op on a
    non-symmetric model)."""


class NumericalError(HetdimError):
    """A solver or check failed at run time."""


class DomainError(NumericalError):
    """A point left the region where a map is defined."""


class ItineraryError(NumericalError):
    """An orbit violated its prescribed itinerary.

    Carries ``step``, the first offending local-map iteration.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ConvergenceError(NumericalError):
    """An iterative solver did not reach its tolerance.

    ``residual`` records the last residual, ``seed`` the starting point,
    and ``row`` the failing row of a lock-step block solve (None for a
    point solve).
    """

    def __init__(self, message: str, residual: float | None = None, seed=None,
                 row: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.seed = seed
        self.row = row


class AmbiguousIndexError(NumericalError):
    """A multiplier sits too close to the unit circle to count indices."""


class HypothesisError(NumericalError):
    """A hypothesis of the construction failed numerically (e.g. no cone
    constant works, or area growth stalls)."""
