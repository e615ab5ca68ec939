"""condiid: conditionally iid multivariate laws.

Exact samplers, closed-form survival/copula evaluators and analytic
extendibility checks for one-factor (conditionally iid) families: binary
sequences, spherical and norm-symmetric mixtures, multivariate lack-of-memory
laws, min-stable exponential laws, and exogenous shock models, cross-validated
by a seeded Monte Carlo harness.

Importing the package loads numpy, the exception types of ``errors`` and the
sample I/O of ``sample``.  A family module (``moments``, ``mixtures``,
``shock_models``, ...) loads on first use: ``condiid.moments``,
``from condiid import moments`` or ``import condiid.moments``.  scipy loads
inside the function that calls it.
"""

import importlib

from .errors import (
    DimensionCapError,
    NonMonotoneConditionalError,
    NonPositiveEntryError,
    NotDMonotoneError,
    SpecValidationError,
    UndecidedVerdictError,
    UnsupportedLawError,
)
from .sample import read_csv, write_csv

__version__ = "0.1.0"

_SUBMODULES = (
    "diagnostics",
    "extreme_value",
    "lack_of_memory",
    "mixing",
    "mixtures",
    "moments",
    "shock_models",
)

__all__ = [
    *_SUBMODULES,
    "read_csv",
    "write_csv",
    "SpecValidationError",
    "NotDMonotoneError",
    "UndecidedVerdictError",
    "NonPositiveEntryError",
    "UnsupportedLawError",
    "DimensionCapError",
    "NonMonotoneConditionalError",
    "__version__",
]


def __getattr__(name):
    # called only for names the module lacks; importing a submodule binds it
    # as an attribute, so each one comes through here at most once
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
