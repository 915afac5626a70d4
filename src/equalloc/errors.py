"""Exception types shared across the package."""


class EqualLocError(Exception):
    """Base class for all equalloc errors."""


class DomainError(EqualLocError):
    """An input lies outside the mathematical domain of an operation."""


class DimensionMismatchError(DomainError):
    """Vectors of incompatible group counts were combined."""

    def __init__(self, expected: int, actual: int, what: str = "vector"):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what} has {actual} groups, expected {expected}")


class CapacityError(EqualLocError):
    """An exact method was asked to enumerate more than it safely can."""


class UnsupportedUtilityError(EqualLocError):
    """The requested solver cannot handle this utility specification."""


class DegenerateDesignError(EqualLocError):
    """A regression design matrix has no variation to fit a slope on."""


class InsufficientHistoryError(EqualLocError):
    """Not enough performance measurements to estimate a marginal gain.

    Callers should treat this as a forced-exploration signal and sample
    the offending group next.
    """

    def __init__(self, group: int, have: int, need: int):
        self.group = group
        self.have = have
        self.need = need
        super().__init__(
            f"group {group} has {have} performance records, need {need}"
        )


class ConfigError(EqualLocError):
    """An experiment configuration is missing or inconsistent."""
