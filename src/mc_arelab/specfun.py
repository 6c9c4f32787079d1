"""Special-function primitives behind the analytic formulas.

Everything here is pure and thread-safe. The incomplete gamma functions
are only ever needed at positive integer order, where they are the cdf
and the tail of a Poisson count; ``_poisson_ladder`` gives both on arrays,
in log space, for the gamma functions and the channel's radial series.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ParameterError, is_finite_real, is_integer

# How far, in nats, the pmf falls below P(N = n + 1) before a tail sum stops.
_LADDER_NATS = 41.0
_LOG_FACTORIALS = np.array([math.lgamma(j + 1.0) for j in range(4096)])

__all__ = [
    "erf",
    "log_sum_exp",
    "regularized_gamma_p",
    "regularized_gamma_q",
]


def erf(x):
    """Gaussian error function of a float, or elementwise of an array.

    Delegates to the C library routine, which is correctly rounded to
    well below the 1e-12 accuracy this package relies on.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ParameterError(f"erf requires finite x, got {x}")
    values = np.array([math.erf(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return float(values) if values.ndim == 0 else values


def _check_order(a: int) -> int:
    if not is_integer(a) or a < 1:
        raise ParameterError(f"order must be a positive integer, got {a!r}")
    return int(a)


def _check_point(x: float) -> float:
    if not (is_finite_real(x) and x >= 0.0):
        raise ParameterError(f"argument must be finite and >= 0, got {x!r}")
    return float(x)


def _log_poisson_pmf(x: np.ndarray, n: int, power: float = 1.0) -> np.ndarray:
    """ln(x^j e^-x / j!^power), j = 0..n, on a new last axis (power 1: the Poisson pmf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        j_log_x = np.arange(n + 1) * np.log(x)[..., None]
    j_log_x[..., 0] = 0.0
    log_factorials = _LOG_FACTORIALS[: n + 1]
    if n >= len(_LOG_FACTORIALS):
        log_factorials = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    return j_log_x - x[..., None] - power * log_factorials


def _poisson_ladder(x: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """ln P[N <= j] and ln P[N > j] of N ~ Poisson(x) for j = 0..n.

    ``x`` is an array of means and ``n`` an int array of its shape; the
    results have shape x.shape + (max(n) + 1,), with no guarantee past an
    element's own n. The cdf is the running sum of the pmf. The tail is
    1 - cdf where the cdf is at most 1/2, else the pmf summed down from an
    order M > n. Both sides are thus sums of positive terms, accurate
    relative to themselves down to ~1e-300 of the largest pmf term. The
    direct tail is needed only when x <= n + 1, where the pmf does not rise
    past n + 1 and at least halves per order past 2x; M stops once it has
    fallen e^-41 below P(N = n + 1), leaving out < 2e-18 of P[N > n].
    """
    width = int(n.max(initial=0)) + 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        start = np.maximum(n + 1, np.ceil(2.0 * x))
        steps = np.ceil(_LADDER_NATS / np.log((start + 1.0) / x))
        top = np.where(x <= n + 1, start + np.maximum(steps, 1.0), n).astype(np.int64)
        log_pmf = _log_poisson_pmf(x, max(int(top.max(initial=0)), width))
        log_pmf[np.arange(log_pmf.shape[-1]) > top[..., None]] = -np.inf
        scale = log_pmf.max(axis=-1, keepdims=True)
        pmf = np.exp(log_pmf - scale)
        log_cdf = np.log(np.cumsum(pmf[..., :width], axis=-1)) + scale
        log_above = np.log(np.cumsum(pmf[..., :0:-1], axis=-1)[..., ::-1]) + scale
        log_tail = np.where(log_cdf > -math.log(2.0), log_above[..., :width], np.log(-np.expm1(log_cdf)))
    return log_cdf, log_tail


def regularized_gamma_q(a: int, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = P[Poisson(x) <= a - 1], integer a >= 1."""
    a = _check_order(a)
    x = _check_point(x)
    log_cdf, _ = _poisson_ladder(np.array([x]), np.array([a - 1]))
    return min(1.0, math.exp(log_cdf[0, a - 1]))


def regularized_gamma_p(a: int, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) = P[Poisson(x) >= a], integer a >= 1."""
    a = _check_order(a)
    x = _check_point(x)
    _, log_tail = _poisson_ladder(np.array([x]), np.array([a - 1]))
    return min(1.0, math.exp(log_tail[0, a - 1]))


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
