"""Exception types shared across the package, and the one work-limit check.

The CLI maps these onto its exit codes, so raising the right class here is
part of the external contract: parse problems are plain ValueError (exit 2),
BoxError / UnbalancedQueryError mean a dimension mismatch (exit 3), and
UnsupportedFamilyError / NotComputableError mark queries that are out of
scope by design or over a work limit (exit 4).
"""


class BoxError(ValueError):
    """A partition does not fit the required rectangular box."""


class UnsupportedFamilyError(Exception):
    """The operation is not defined (or deliberately not implemented) for
    this family of Grassmannians."""


class DegreeRangeError(ValueError):
    """A curve degree is outside the range an operation supports."""


class UnbalancedQueryError(ValueError):
    """Condition codimensions do not sum to the moduli space dimension."""


class NotComputableError(Exception):
    """The query is well posed but outside what this engine computes."""


def require_within(what: str, quantity: str, limit: int, got: int) -> None:
    """The one work-limit check: NotComputableError (exit 4) when `got` passes
    `limit`.  One comparison when it passes; the message is built only to raise."""
    if got > limit:
        raise NotComputableError(
            f"{what} is computed for {quantity} <= {limit} (work limit), got {got}"
        )
