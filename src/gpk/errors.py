"""Error taxonomy shared by every gpk module.

Exit-code mapping used by the CLI: configuration/domain problems -> 2,
numerical-budget problems (truncation, stability, blow-up) -> 3,
invariant violations -> 4.
"""


class GpkError(Exception):
    """Base class for all gpk errors."""

    exit_code = 1


class ConfigurationError(GpkError):
    """Bad run configuration: grids too coarse, missing files, invalid schema."""

    exit_code = 2


class DomainError(GpkError):
    """Inputs outside an operation's domain (negative potential, r < 0, ...)."""

    exit_code = 2


class BudgetError(GpkError):
    """A numerical budget was exceeded: truncation tail, stability, accuracy."""

    exit_code = 3


class TruncationBudgetError(BudgetError):
    """Fock-space cutoff cannot hold the requested state or operator."""


class NumericalBlowupError(BudgetError):
    """NaN/Inf detected during evolution; carries the last good time."""

    def __init__(self, message, last_good_time):
        super().__init__(message)
        self.last_good_time = last_good_time


class InvariantViolation(GpkError):
    """A structural invariant failed (norm drift, PSD defect, symmetry)."""

    exit_code = 4
