"""Shared exception types.

ConfigError maps to CLI exit code 2, NumericalAbort (and subclasses) to exit
code 3.  Invariant failures are reported through the verify ledger instead of
exceptions and map to exit code 1.
"""


class ConfigError(ValueError):
    """Invalid scenario configuration or construction parameters."""


class NumericalAbort(RuntimeError):
    """A run left its domain of validity and was stopped."""


class TruncationError(NumericalAbort):
    """Mass reached the truncated right boundary or the frontier left the grid."""


class NonMonotoneCDFError(NumericalAbort):
    """A CDF handed to the jump solver decreased; the field is corrupted."""
