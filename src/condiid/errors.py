"""Exception types shared across the package."""


class SpecValidationError(ValueError):
    """A model specification violates its stated constraints."""


class NotDMonotoneError(SpecValidationError):
    """A sequence fails the required (log-)d-monotonicity precondition."""


class NonPositiveEntryError(SpecValidationError):
    """A sequence contains non-positive entries where positivity is required."""


class UnsupportedLawError(SpecValidationError):
    """The requested operation is not implementable for this mixing law."""


class DimensionCapError(SpecValidationError):
    """Requested dimension exceeds the hard cap of a combinatorial sampler."""


class NonMonotoneConditionalError(RuntimeError):
    """A conditional survival function turned out non-monotone, i.e. the
    supplied survival function is not a valid survival function."""
