"""Exception types shared across the package.

The CLI maps ConfigError to exit code 1 and every other EelabError
(plus I/O failures) to exit code 2.
"""


class EelabError(Exception):
    """Base class for all package errors."""


class ConfigError(EelabError):
    """Invalid parameters, malformed config files, unknown keys."""


class DomainError(EelabError):
    """A state that does not belong to the model's state space."""


class CapabilityError(EelabError):
    """The state space is larger than the enumeration cap."""


class SupportError(EelabError):
    """Proposal distribution lacks support where the target has mass."""


class ReversibilityError(EelabError):
    """Kernel failed the detailed-balance precondition of a spectral op."""


class ShapeError(EelabError):
    """Mismatched vector lengths or grid dimensions."""


class NumericError(EelabError):
    """Non-normalizable weights, overflow, or other numeric failure."""
