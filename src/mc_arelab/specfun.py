"""Special-function primitives behind the analytic formulas.

Everything here is pure and thread-safe, and every log Poisson term is
taken at integer counts. The incomplete gamma functions are only ever
needed at positive integer order, where they are the cdf and the tail of
a Poisson count; ``_poisson_ladder`` gives both on arrays, in log space,
for the public gamma functions. The channel's radial series needs no
tail: it sums Poisson pmf rows against running sums of its weights.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ParameterError, is_finite_real, is_integer

# How far, in nats, the pmf falls below P(N = n + 1) before a tail sum stops.
_LADDER_NATS = 41.0
_LOG_FACTORIALS = np.array([math.lgamma(j + 1.0) for j in range(4096)])
# Largest temporary, in elements, of a blocked array computation.
_CHUNK = 1 << 15

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
    values = _erf(arr)
    return float(values) if values.ndim == 0 else values


def _erf(arr: np.ndarray) -> np.ndarray:
    """erf of each element of a float array of finite elements, as an array of its shape."""
    return np.fromiter(map(math.erf, arr.ravel().tolist()), float, count=arr.size).reshape(arr.shape)


def _check_order(a: int) -> int:
    if not is_integer(a) or a < 1:
        raise ParameterError(f"order must be a positive integer, got {a!r}")
    return int(a)


def _check_point(x: float) -> float:
    if not (is_finite_real(x) and x >= 0.0):
        raise ParameterError(f"argument must be finite and >= 0, got {x!r}")
    return float(x)


def _log_factorials(j: np.ndarray) -> np.ndarray:
    """ln j! of each element of a 1-D integer array j >= 0: the table's value, or math.lgamma past it."""
    if j.size and j.max() >= len(_LOG_FACTORIALS):
        out = _LOG_FACTORIALS[np.minimum(j, len(_LOG_FACTORIALS) - 1)]
        past = np.flatnonzero(j >= len(_LOG_FACTORIALS))
        # one float at a time: a list of them all would outweigh the result
        out[past] = np.fromiter(map(math.lgamma, memoryview(j[past] + 1.0)), float, count=past.size)
        return out
    return _LOG_FACTORIALS[j]


def _log_poisson_pmf(
    x: np.ndarray,
    exponents: np.ndarray,
    log_norm: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """ln(x^e e^-x / e!), the Poisson log pmf, at each integer count e >= 0, on a new last axis; 0^0 = 1.

    The result is built in place, in ``out`` if given (shape x.shape +
    exponents.shape), else in one new array. A caller that evaluates many
    blocks at the same counts passes ``log_norm`` = ln e!, formed once, in
    place of forming it per call.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.multiply(exponents, np.log(x)[..., None], out=out)
    out[..., exponents == 0] = 0.0
    out -= x[..., None]
    out -= _log_factorials(exponents) if log_norm is None else log_norm
    return out


def _chernoff_support(lam: float, nats: float) -> int:
    """A count r with P(N >= r) <= e^-nats for N ~ Poisson(lam).

    Chernoff: P(N >= r) <= exp(-lam h(r / lam - 1)), h(u) = (1 + u) ln(1 + u) - u >= u^2 / (2 + 2u / 3).
    """
    third = nats / 3.0
    return math.ceil(lam + third + math.sqrt(third * third + 2.0 * nats * lam))


def _log_sum_exp(terms: np.ndarray, axis: int) -> np.ndarray:
    """ln sum exp along one axis, -inf where no term is finite; overwrites ``terms``."""
    top = np.maximum.reduce(terms, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    terms -= top
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduce(terms, axis=axis)) + np.squeeze(top, axis)


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
        orders = np.arange(max(int(top.max(initial=0)), width) + 1)
        # one pmf array, scaled by its largest term and exponentiated in place
        pmf = _log_poisson_pmf(x, orders)
        pmf[orders > top[..., None]] = -np.inf
        scale = pmf.max(axis=-1, keepdims=True)
        pmf -= scale
        np.exp(pmf, out=pmf)
        log_cdf = np.cumsum(pmf[..., :width], axis=-1)
        np.log(log_cdf, out=log_cdf)
        log_cdf += scale
        log_above = np.log(np.cumsum(pmf[..., :0:-1], axis=-1)[..., : -width - 1 : -1])
        log_above += scale
        log_tail = np.where(log_cdf > -math.log(2.0), log_above, np.log(-np.expm1(log_cdf)))
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
    arr = np.array(terms, dtype=float)
    if arr.size == 0:
        raise ParameterError("log_sum_exp of an empty sequence")
    return float(_log_sum_exp(arr.ravel(), 0))
