"""Exception types shared across the package, and the type tests behind them."""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

# Most float64 elements one NumPy array can index: its size in bytes must fit an intp.
MAX_ELEMENTS = np.iinfo(np.intp).max / 8


def is_finite_real(value) -> bool:
    """A finite int or float; bools are not numbers here."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def is_integer(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class ParameterError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


def check_elements(n, what: str) -> None:
    """Raise a ParameterError naming ``what`` when n elements are more than an array can index."""
    if not n < MAX_ELEMENTS:
        raise ParameterError(f"{what} needs at least {MAX_ELEMENTS:.3g} entries, past what an array can index")


class SearchError(RuntimeError):
    """An iterative search could not bracket or reach its target.

    Raised for example when the response peak sits on the search-horizon
    boundary, or when rounding hides the likelihood flip below its bound.
    """


class ConfigError(ParameterError):
    """A configuration value is invalid; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key
