"""condiid: conditionally iid multivariate laws.

Exact samplers, closed-form survival/copula evaluators and analytic
extendibility checks for one-factor (conditionally iid) families: binary
sequences, spherical and norm-symmetric mixtures, multivariate lack-of-memory
laws, min-stable exponential laws, and exogenous shock models, cross-validated
by a seeded Monte Carlo harness.
"""

from . import diagnostics, extreme_value, lack_of_memory, mixing, mixtures, moments, shock_models
from .errors import (
    DimensionCapError,
    NonMonotoneConditionalError,
    NonPositiveEntryError,
    NotDMonotoneError,
    SpecValidationError,
    UnsupportedLawError,
)
from .sample import SampleMatrix, read_csv, write_csv

__version__ = "0.1.0"

__all__ = [
    "diagnostics",
    "extreme_value",
    "lack_of_memory",
    "mixing",
    "mixtures",
    "moments",
    "shock_models",
    "SampleMatrix",
    "read_csv",
    "write_csv",
    "SpecValidationError",
    "NotDMonotoneError",
    "NonPositiveEntryError",
    "UnsupportedLawError",
    "DimensionCapError",
    "NonMonotoneConditionalError",
    "__version__",
]
