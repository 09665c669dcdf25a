"""Exception types shared across the package."""


class RadialError(Exception):
    """Base class for all errors raised by this package."""


class OverflowRiskError(RadialError):
    """A height or product is small/large enough that dividing by it would
    silently denormalize or overflow."""


class ParseError(RadialError):
    """Expression could not be parsed; carries the 0-based offset into the
    source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExpressionRangeError(RadialError):
    """A parsed expression produced a negative or undefined value at the top
    level.  Wrap the expression in pos(...) to clamp to zero explicitly.
    In a batch, row is the offending row in the caller's numbering (None
    for one point); a layer that batches for its own caller renumbers it
    with at_row."""

    def __init__(self, value: float, point: list, row=None):
        self.value, self.point, self.row = value, point, row
        where = "" if row is None else f" (row {row})"
        super().__init__(
            f"expression evaluated to {value!r} at {point}{where}; wrap it in pos(...) "
            "to clamp negative/undefined values to zero"
        )

    def at_row(self, row: int) -> "ExpressionRangeError":
        return ExpressionRangeError(self.value, self.point, row)


class NotDifferentiableError(RadialError):
    """One-sided difference quotients disagree beyond tolerance."""


class NonMonotonePerspectiveError(RadialError):
    """The perspective profile decreased across an increasing pair of heights
    while the function was not declared ray-monotone; witness is the
    transform.MonotoneWitness of that pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RadialityRequiredError(RadialError):
    """An operation needed ray-monotone (upper radial) operands."""


class StrictnessViolatedError(RadialError):
    """The denominator of a dual derivative formula is not strictly negative."""


class DegenerateNormalError(RadialError):
    """Normal vector excluded from the transformed differential set."""


class OriginNotInSetError(RadialError):
    """Gauge evaluation requires a set that contains the origin."""


class InfiniteValueError(RadialError):
    """Solution mapping requires a finite positive optimal value."""


class NotStationaryError(RadialError):
    """The supplied point does not have a (numerically) vanishing gradient."""


class SchemaError(RadialError):
    """A JSON document does not match the radial/v1 set schemas."""
