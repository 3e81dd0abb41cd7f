"""Desk-scale MCMC laboratory.

Equi-energy ladder sampling with exact enumeration oracles, spectral
analysis of reversible kernels, and Swendsen-Wang cut image
segmentation, driven by a JSON-configured experiment CLI.
"""

__version__ = "0.1.0"

from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    EelabError,
    NumericError,
    ReversibilityError,
    ShapeError,
    SupportError,
)
from .rng import RandomStream
from .statespace import (
    EnergyModel,
    FiniteDistribution,
    LadderLevel,
    builtin_model,
    enumerate_distribution,
    geometric_ladder,
)

__all__ = [
    "CapabilityError",
    "ConfigError",
    "DomainError",
    "EelabError",
    "NumericError",
    "ReversibilityError",
    "ShapeError",
    "SupportError",
    "RandomStream",
    "EnergyModel",
    "FiniteDistribution",
    "LadderLevel",
    "builtin_model",
    "enumerate_distribution",
    "geometric_ladder",
    "__version__",
]
