"""Exception types shared across the package, and the type tests behind them."""

from __future__ import annotations

import math
from numbers import Integral, Real


def is_finite_real(value) -> bool:
    """A finite int or float; bools are not numbers here."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def is_integer(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class ParameterError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class SearchError(RuntimeError):
    """An iterative search could not bracket or reach its target.

    Raised for example when the response peak sits on the search-horizon
    boundary, or when a threshold scan exhausts its cap.
    """


class ConfigError(ParameterError):
    """A configuration value is invalid; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key
