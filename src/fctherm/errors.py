"""Exception types shared across the library."""


class FcthermError(Exception):
    """Base class for library-specific failures."""


class SingularSupportError(FcthermError):
    """A logarithmic-derivative equation has no solution on the state's support.

    Raised when a direction with (lambda_i + lambda_j) ~ 0 carries a
    non-negligible derivative component, i.e. the state family leaves the
    support of the state itself.
    """


class CouplingTooStrongError(FcthermError):
    """The assembled second-order state left the physical regime.

    Raised when the truncated coupling expansion produces a state with an
    eigenvalue below the positivity floor: the requested coupling/temperature
    combination is outside the validity of the expansion.
    """


class NonzeroMeanError(FcthermError, ValueError):
    """The bath coupling has a thermal mean, which the second-order expansion
    assumes away: the reduced state then has a first-order term."""


class ConfigError(FcthermError, ValueError):
    """A run configuration, or an operator file it names, failed validation:
    the message names the field's dotted path, or the file and its key."""


class TruncationWarning(UserWarning):
    """A truncated probe leaves more thermal population in its top level than
    the tail budget allows, so truncation error may dominate a comparison
    against the untruncated model."""
