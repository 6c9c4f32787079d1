"""Special-function primitives behind the analytic formulas.

Everything here is pure and thread-safe. The incomplete gamma functions
are only ever needed at positive integer order, where they reduce to
finite Poisson sums; those sums are evaluated in log space so that
orders around 10^3 and means around 10^3 stay representable.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "erf",
    "log_sum_exp",
    "regularized_gamma_p",
    "regularized_gamma_q",
]


def erf(x: float) -> float:
    """Gaussian error function.

    Delegates to the C library routine, which is correctly rounded to
    well below the 1e-12 accuracy this package relies on.
    """
    if not math.isfinite(x):
        raise ParameterError(f"erf requires finite x, got {x}")
    return math.erf(x)


def _check_order(a: int) -> int:
    if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
        raise ParameterError(f"order must be a positive integer, got {a!r}")
    if a < 1:
        raise ParameterError(f"order must be >= 1, got {a}")
    return int(a)


def _check_point(x: float) -> float:
    x = float(x)
    if not (x >= 0.0) or math.isinf(x):
        raise ParameterError(f"argument must be finite and >= 0, got {x}")
    return x


def regularized_gamma_q(a: int, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for integer a >= 1.

    Equals the CDF of a Poisson(x) variable evaluated at a - 1,
    computed as the exact finite sum over the first a Poisson terms.
    """
    a = _check_order(a)
    x = _check_point(x)
    if x == 0.0:
        return 1.0
    lx = math.log(x)
    logs = [k * lx - x - math.lgamma(k + 1) for k in range(a)]
    m = max(logs)
    total = math.fsum(math.exp(t - m) for t in logs)
    return min(1.0, math.exp(m) * total)


def regularized_gamma_p(a: int, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) for integer a >= 1.

    Evaluated as 1 - Q(a, x) when that difference is well conditioned,
    and otherwise as the complementary Poisson tail sum starting at a,
    which keeps full relative precision when P is small.
    """
    a = _check_order(a)
    x = _check_point(x)
    if x == 0.0:
        return 0.0
    q = regularized_gamma_q(a, x)
    if q <= 0.5:
        return 1.0 - q
    term = math.exp(a * math.log(x) - x - math.lgamma(a + 1))
    total = 0.0
    j = a
    while term > 0.0:
        total += term
        j += 1
        term *= x / j
        if term < total * 1e-18:
            total += term
            break
    return min(1.0, total)


def log_sum_exp(terms: Sequence[float] | np.ndarray) -> float:
    """ln of the sum of exponentials, stabilized by the usual max shift."""
    arr = np.asarray(terms, dtype=float)
    if arr.size == 0:
        raise ParameterError("log_sum_exp of an empty sequence")
    m = float(arr.max())
    if not math.isfinite(m):
        # all terms -inf (empty sum, log 0), or a genuine +inf term
        return m
    return m + math.log(float(np.exp(arr - m).sum()))
