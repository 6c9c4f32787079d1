"""Analytic channel response of a diffusive link with uniform flow.

A point transmitter at the origin releases molecules that diffuse with
coefficient D and drift with velocity v along z. The paired receiver is a
transparent cylinder of radius S_RX spanning z_S..z_E, centered on the z
axis at lateral offset r_i from the transmitter of interest. The response
value is the probability that one released molecule is inside the cylinder
at time t; it factorizes into an axial erf difference and a radial series.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SearchError, is_finite_real, is_integer
from .gridgeom import GridLayout, cell_area
from .specfun import _CHUNK, _erf, _log_factorials, erf

__all__ = [
    "ChannelSummary",
    "PhysicalParams",
    "ReceiverGeometry",
    "cir",
    "cir_uca",
    "peak_time",
    "summarize",
]

GAMMA_FORMS = ("lower", "regularized")

# The radial series stops where its next term is at most SERIES_RTOL / 2 of
# the sum. SERIES_RTOL < 2^-53, so that term is under half an ulp of the
# running sum (at least 2^-54 of it), and no later, smaller term can move
# the double either.
SERIES_RTOL = 1e-16
_LOG_RTOL = math.log(SERIES_RTOL)
_LOG_HALF_RTOL = math.log(SERIES_RTOL / 2.0)
# each weight tail and the Poisson head a complement drops
_LOG_TAIL = math.log(SERIES_RTOL / 8.0)
# Orders per temporary of the radial series: the widest top summed in
# blocks, and the segment of a wider window. A block's three temporaries
# stay within _CHUNK together, and each below the 128 KB at which the C
# allocator maps memory directly and then keeps a larger heap resident.
_SEGMENT = _CHUNK // 4
# Orders past 2^53 are not exact floats: h must lie below it, less the at
# most 54 orders that a top adds to h.
_MAX_ORDER = 2.0**53 - 64.0
# exp(-_FAR^2) is below half the smallest double.
_FAR = math.sqrt(746.0)
# Points of the peak_time scan, and points evaluated inside each edge
# bracket per zoom.
_SCAN = 1000
# horizons whose scan, horizon * k / _SCAN for k = 1.._SCAN, is all normal floats
_HORIZONS = (_SCAN * sys.float_info.min, sys.float_info.max / _SCAN)
_ZOOM = 32
# Links per block of a batched peak search or summary: the links share each
# NumPy call of the block's zooms and response evaluation, whose arrays stay
# at several hundred elements.
_BLOCK = 8
# Default tolerance of the peak time.
_PEAK_TOL = 1e-6
# A zoom row's new edges, at (first, last) at the peak: first - 1, first, last and last + 1.
_LAST = np.array([False, False, True, True])
_BESIDE = np.array([-1, 0, 0, 1])
# The flat index of the first zoom point of each row of a block.
_ROW_STARTS = np.arange(_BLOCK)[:, None] * (2 * (_ZOOM + 2))
# Simpson intervals of the tail estimate in summarize.
_TAIL_INTERVALS = 64
# Composite Simpson weights 1, 4, 2, 4, ..., 2, 4, 1 on its nodes.
_SIMPSON = np.tile([2.0, 4.0], _TAIL_INTERVALS // 2 + 1)[: _TAIL_INTERVALS + 1]
_SIMPSON[[0, -1]] = 1.0
_SIMPSON.setflags(write=False)
_NODES = np.arange(_TAIL_INTERVALS + 1)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of one link: transport, geometry scale, and release size.

    Units: D in m^2/s, v in m/s, d (plane separation), s_rx and l_rx in m,
    n_mol molecules per on-symbol, c_noise molecules per m^3.
    """

    D: float = 0.01
    v: float = 0.2
    d: float = 0.5
    s_rx: float = 0.1
    l_rx: float = 0.2
    n_mol: int = 100
    c_noise: float = 0.0

    def __post_init__(self) -> None:
        positive = {"D": self.D, "d": self.d, "s_rx": self.s_rx, "l_rx": self.l_rx}
        for name, value in positive.items():
            if not (is_finite_real(value) and value > 0):
                raise ParameterError(f"{name} must be positive and finite, got {value!r}")
        if not (is_finite_real(self.v) and self.v >= 0):
            raise ParameterError(f"v must be nonnegative and finite, got {self.v!r}")
        if not (is_integer(self.n_mol) and self.n_mol >= 1):
            raise ParameterError(f"n_mol must be an integer >= 1, got {self.n_mol!r}")
        if not (is_finite_real(self.c_noise) and self.c_noise >= 0):
            raise ParameterError(f"c_noise must be nonnegative and finite, got {self.c_noise!r}")


@dataclass(frozen=True)
class ReceiverGeometry:
    """Axial extent and volume of the receiving cylinder."""

    z_s: float
    z_e: float
    volume: float

    def __post_init__(self) -> None:
        if not (is_finite_real(self.z_s) and is_finite_real(self.z_e) and self.z_e > self.z_s):
            raise ParameterError(f"z_s and z_e must be finite with z_e > z_s, got [{self.z_s!r}, {self.z_e!r}]")
        if not (is_finite_real(self.volume) and self.volume > 0):
            raise ParameterError(f"volume must be positive and finite, got {self.volume!r}")

    @classmethod
    def centered(cls, params: PhysicalParams) -> "ReceiverGeometry":
        """Receiver centered on the plane at distance d from the transmitters."""
        half = 0.5 * params.l_rx
        return cls(
            z_s=params.d - half,
            z_e=params.d + half,
            volume=params.s_rx * params.s_rx * math.pi * params.l_rx,
        )


@dataclass(frozen=True)
class ChannelSummary:
    """Expected molecule counts at the sampling time.

    ``cbar`` holds one (expected count, multiplicity) pair per interferer
    ring, in increasing ring-distance order. ``tail_mean`` estimates the
    mean interference from the sites beyond the outermost ring.
    """

    t_m: float
    mu_s: float
    cbar: tuple[tuple[float, int], ...]
    mu_n: float
    tail_mean: float = 0.0

    @property
    def cbar_sum(self) -> float:
        return math.fsum(value * count for value, count in self.cbar)

    @property
    def n_interferers(self) -> int:
        return sum(count for _, count in self.cbar)


def _run_starts(key: np.ndarray) -> np.ndarray:
    """True at each element of ``key`` (1-D) that starts a run of equal neighbours."""
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return new


def _scaled_rows(
    log_x: np.ndarray, log_at_mode: np.ndarray, orders: np.ndarray, log_norm: np.ndarray, power: float
) -> np.ndarray:
    """x^k / k!^power over its value at the mode, at k = ``orders``: one row per x.

    ``log_x`` is ln x (1-D), ``log_at_mode`` ln of each row's value at its
    mode and ``log_norm`` ln k! at ``orders``. Each row is power * (k ln(x) / power - ln k!) less
    that log, exponentiated: dividing and multiplying by a power of 2 is
    exact, so this rounds as k ln(x) - power ln k! does.
    """
    rows = np.multiply((log_x / power)[:, None], orders)
    rows -= log_norm
    if power != 1.0:
        rows *= power
    rows -= log_at_mode[:, None]
    return np.exp(rows, out=rows)


def _tops(rho: np.ndarray, sigma: np.ndarray, extra: float) -> np.ndarray:
    """The certified top order of each element's radial series, on 1-D arrays with rho > 0.

    Term j + 1 of the series is at most q_j = sigma (1 + rho / j^extra) /
    (j + 1) times term j, and q_j falls with j. From h on, q_j <= 1/2: h is
    the larger of a floor f = max(1, 2 sigma, (2 rho sigma)^(1/(extra+1)))
    and the root of j^2 - (2 sigma - 1) j - 2 rho sigma / f^(extra-1), since
    j^extra >= j f^(extra-1) for j >= f. From h on, q_j <= a_h / (j + 1)
    with a_h = sigma (1 + rho / h^extra), so term h + m is at most a_h^m h!
    / (h + m)! times term h. The top is h + m for the least m >= 1 that
    brings this product to SERIES_RTOL: m ln a_h - ln((h + m)! / h!) <= ln
    SERIES_RTOL. The last term summed is then at most SERIES_RTOL of the
    sum, and the next at most half that.
    """
    rs = rho * sigma
    floor = np.maximum(np.maximum(1.0, 2.0 * sigma), (2.0 * rs) ** (1.0 / (extra + 1.0)))
    slope = 2.0 * sigma - 1.0
    h = np.maximum(floor, np.ceil(0.5 * (slope + np.sqrt(slope * slope + 8.0 * rs / floor ** (extra - 1.0)))))
    if not h.max(initial=0.0) < _MAX_ORDER:
        at = int(h.argmax())
        raise ParameterError(
            f"the radial series at sigma = {sigma[at]:.6g}, rho = {rho[at]:.6g} runs past order 2^53, "
            "where orders are no longer exact floats"
        )
    with np.errstate(divide="ignore"):
        log_a = np.log(sigma * (1.0 + rho / h**extra))
    h = h.astype(np.int64)
    base = _log_factorials(h)
    # q_h <= 1/2 bounds the product by 2^-m, so the least m is at most 54:
    # six steps of binary lifting find it, `short` orders being too few
    short = np.zeros_like(h)
    for step in (32, 16, 8, 4, 2, 1):
        more = short + step
        too_few = more * log_a - (_log_factorials(h + more) - base) > _LOG_RTOL
        np.copyto(short, more, where=too_few)
    return h + short + 1


def _radial(rho: np.ndarray, sigma: np.ndarray, extra: float) -> np.ndarray:
    """sum_k w_k P(k+1, sigma), w_k = e^-rho rho^k / k!^extra, on 1-D arrays with rho > 0.

    P(k+1, sigma) = P[N > k] for N ~ Poisson(sigma), so exchanging the order
    of summation gives sum_(j >= 1) p_j W_(j-1), with p_j = P[N = j] and
    W_i = w_0 + ... + w_i: a sum of positive terms, with no tail to form.
    Each element stops at its certified top (_tops): the term after it is
    at most SERIES_RTOL / 2 of the sum, below half an ulp of the running
    sum, and every later term is smaller still, so no order past the top
    can move the double. Elements whose top is at most _SEGMENT orders sum
    j = 1..top in blocks (_radial_blocks); wider ones sum only the window
    of orders that can move their double, a segment at a time
    (_radial_window). Every scale, top and window is the element's own, so
    an array call equals the scalar calls bit for bit.
    """
    top = _tops(rho, sigma, extra)
    narrow = top <= _SEGMENT
    if narrow.all():
        return _radial_blocks(rho, sigma, top, extra)
    out = np.empty_like(rho)
    out[narrow] = _radial_blocks(rho[narrow], sigma[narrow], top[narrow], extra)
    for i in np.flatnonzero(~narrow).tolist():
        out[i] = _radial_window(float(rho[i]), float(sigma[i]), int(top[i]), extra)
    return out


def _radial_blocks(rho: np.ndarray, sigma: np.ndarray, top: np.ndarray, extra: float) -> np.ndarray:
    """The radial sums of elements with tops of at most _SEGMENT orders, each over its orders 1..top.

    The sum runs in scaled linear space, the p_j over p at their mode
    max(1, floor(sigma)) and the w_k over w at their mode floor(rho^(1/extra)),
    so no entry exceeds 1 (nor W_k its order + 1). Where that mode lies past
    the top, the sum is at most top times the scaled w at the top, so
    scaled terms underflow only in sums below about 1e-290. The p_j row
    depends on sigma alone, so each run of neighbours with equal sigma
    shares one row: a block ends where a run starts, unless a single run
    fills it.
    """
    log_fact = _log_factorials(np.arange(int(top.max(initial=0)) + 1))
    # ln of p and w at their modes (0 at sigma = 0, whose p_j are all 0)
    with np.errstate(divide="ignore"):
        log_sigma = np.log(sigma)
    p_mode = np.maximum(1.0, np.floor(sigma))
    p_at = np.where(sigma > 0.0, p_mode * log_sigma - _log_factorials(p_mode.astype(np.int64)), 0.0)
    log_rho = np.log(rho)
    w_mode = np.floor(rho ** (1.0 / extra))
    w_at = w_mode * log_rho - extra * _log_factorials(w_mode.astype(np.int64))
    del p_mode, w_mode
    new = _run_starts(sigma)
    out = np.empty_like(rho)
    rows = _SEGMENT // int(top.max(initial=1)) or 1
    start = 0
    while start < rho.size:
        stop = start + rows
        # end the block at the last run start in (start, stop]
        cuts = np.flatnonzero(new[start + 1 : stop + 1])
        if stop < rho.size and cuts.size:
            stop = start + 1 + int(cuts[-1])
        b = slice(start, stop)
        heads = new[b].copy()
        heads[0] = True
        width = int(top[b].max())
        orders = np.arange(width + 1.0)
        pmf = _scaled_rows(log_sigma[b][heads], p_at[b][heads], orders[1:], log_fact[1 : width + 1], 1.0)
        terms = _scaled_rows(log_rho[b], w_at[b], orders[:-1], log_fact[:width], extra)
        del orders  # one row fewer held at the peak of a wide block
        np.cumsum(terms, axis=1, out=terms)
        terms *= pmf[np.cumsum(heads) - 1]
        np.cumsum(terms, axis=1, out=terms)
        out[b] = terms[np.arange(len(terms)), top[b] - 1]
        del pmf, terms  # the next block's rows are formed without these
        start = stop
    out *= np.exp(p_at - sigma + (w_at - rho))
    return out


def _least(meets, low: int) -> int:
    """The least integer n >= low at which ``meets(n)`` holds, for a predicate that stays true once true."""
    if meets(low):
        return low
    fails, step = low, 1
    while not meets(fails + step):
        fails += step
        step *= 2
    holds = fails + step
    while holds - fails > 1:
        mid = (fails + holds) // 2
        if meets(mid):
            holds = mid
        else:
            fails = mid
    return holds


def _radial_window(rho: float, sigma: float, top: int, extra: float) -> float:
    """The radial sum of one element whose top lies past _SEGMENT orders, over its certified window.

    Scales are those of _radial_blocks. The weights w_k of the window lie
    in [k_lo, K]: the largest k_lo and the least K >= floor(rho^(1/extra))
    at which each weight tail beyond is at most SERIES_RTOL / 8 of the
    largest weight, bounded geometrically by the ratio of neighbouring
    weights, k^extra / rho. Where the weights end far below sigma, with
    P[N <= K] <= SERIES_RTOL / 8 by the Chernoff bound e^-sigma (e sigma /
    K)^K, the sum is the complement W_inf - sum_k w_k P[N <= k], and the
    second part is negligible: it is the sum of the window's weights.

    Elsewhere the forward sum runs over j = lo..top with the running sum of
    the weights from w_(lo-1) on, which drops sum_(j<lo) p_j W_(j-1) +
    W_(lo-2) P[N >= lo], at most W_(lo-2). lo is the largest order at which
    that bound, at most w_(lo-2) / (1 - (lo - 2)^extra / rho), stays under
    SERIES_RTOL / 2 of a lower bound on the sum: its term at (rho
    sigma)^(1/(extra+1)), with W taken as its last weight. The window is
    summed a segment of _SEGMENT orders at a time, each segment continuing
    the running sums of the last. After a segment that ends at order J,
    every later ratio is at most a / (j + 1) with a = sigma (1 + w_max /
    W_(J-1)), w_max the largest weight from w_J on, since the weights fall
    past their mode and W grows: where a < J + 1, the top falls to the
    least order whose next term this bound puts under SERIES_RTOL / 2 of
    the sum so far.
    """
    log_rho, log_sigma = math.log(rho), math.log(sigma)
    w_mode = math.floor(rho ** (1.0 / extra))
    w_at = w_mode * log_rho - extra * math.lgamma(w_mode + 1.0)
    p_mode = max(1, math.floor(sigma))
    p_at = p_mode * log_sigma - math.lgamma(p_mode + 1.0)

    def log_w(k: int) -> float:
        """ln w_k over w at its mode."""
        return k * log_rho - extra * math.lgamma(k + 1.0) - w_at

    def above(k: int) -> bool:
        """The weights past w_k sum to at most SERIES_RTOL / 8 of the largest (k >= w_mode)."""
        return log_w(k + 1) - math.log1p(-rho / (k + 2.0) ** extra) <= _LOG_TAIL

    def below(k: int, log_bound: float) -> bool:
        """The weights before w_k sum to at most e^log_bound of the largest (k <= w_mode)."""
        return k <= 0 or log_w(k - 1) - math.log1p(-((k - 1.0) ** extra) / rho) <= log_bound

    weight_rows = functools.partial(_scaled_rows, np.array([log_rho]), np.array([w_at]))
    last = _least(above, w_mode)
    if last < sigma and last * (1.0 + log_sigma - math.log(max(last, 1))) - sigma <= _LOG_TAIL:
        first = w_mode - _least(lambda d: below(w_mode - d, _LOG_TAIL), 0)
        total = 0.0
        for start in range(first, last + 1, _SEGMENT):
            k = np.arange(start, min(last, start + _SEGMENT - 1) + 1)
            total += float(np.add.reduce(weight_rows(k.astype(float), _log_factorials(k), extra)[0]))
        return total * math.exp(w_at - rho)

    central = max(1, round((sigma * rho) ** (1.0 / (extra + 1.0))))
    log_floor = central * log_sigma - math.lgamma(central + 1.0) - p_at + log_w(central - 1) + _LOG_HALF_RTOL
    # lo - 1 is the first weight summed
    lo = min(top, w_mode + 1 - _least(lambda d: below(w_mode - d, log_floor), 0))
    weights = terms = 0.0
    start = lo
    while start <= top:
        stop = min(top, start + _SEGMENT - 1)
        log_fact = _log_factorials(np.arange(start - 1, stop + 1))
        orders = np.arange(start - 1.0, stop + 1.0)
        pmf = _scaled_rows(np.array([log_sigma]), np.array([p_at]), orders[1:], log_fact[1:], 1.0)[0]
        row = weight_rows(orders[:-1], log_fact[:-1], extra)[0]
        row[0] += weights
        np.cumsum(row, out=row)
        weights = float(row[-1])
        last_term = float(pmf[-1]) * weights
        row *= pmf
        row[0] += terms
        np.cumsum(row, out=row)
        terms = float(row[-1])
        start = stop + 1
        peak = 1.0 if stop < w_mode else math.exp(log_w(stop))
        a = sigma * (1.0 + peak / weights) if weights > 0.0 else math.inf
        if start <= top and a < start:
            log_a, log_f = math.log(a), math.lgamma(start)
            need = math.log(terms) - math.log(last_term) + _LOG_HALF_RTOL if last_term > 0.0 else math.inf
            m = _least(lambda m: m * log_a - (math.lgamma(start + m) - log_f) <= need, 1)
            top = min(top, stop + m - 1)
    return terms * math.exp(p_at - sigma + (w_at - rho))


def _axial(t: np.ndarray, D: float, v: float, z_s: float, z_e: float) -> np.ndarray:
    """Axial factor of the response: the erf difference over z_s..z_e at times ``t`` (1-D).

    Both erf arguments go through one pass of math.erf; a non-finite one
    raises the error of its own erf call.
    """
    root = np.sqrt(4.0 * D * t)
    ends = np.subtract(v * t, np.array([[z_s], [z_e]], dtype=float))
    ends /= root
    if not np.isfinite(ends).all():
        erf(ends[0])
        erf(ends[1])
    values = _erf(ends)
    return 0.5 * (values[0] - values[1])


def _zero_offset(t: np.ndarray, axial: np.ndarray, D: float, s_rx) -> np.ndarray:
    """cir(t, 0.0, ...) bit for bit, given the axial factor at ``t``: axial times 1 - e^-sigma.

    ``s_rx`` is a float, or an array of one radius per element of ``t``.
    np.maximum and np.minimum clip as np.clip does, up to the sign of a
    zero, which the peak search, comparing these values only, never sees.
    """
    value = np.expm1(-s_rx * s_rx / (4.0 * D * t))
    np.negative(value, out=value)
    value *= axial
    return np.minimum(np.maximum(value, 0.0, out=value), 1.0, out=value)


def _check_times(t_arr: np.ndarray, t) -> None:
    """Reject any time in ``t_arr`` that is not positive and finite, naming the argument ``t``."""
    if not (np.isfinite(t_arr) & (t_arr > 0)).all():
        raise ParameterError(f"t must be positive and finite, got {t}")


def _series_power(k_max: int, gamma_form: str) -> float:
    """The power of k! that divides the radial weights of ``gamma_form``, once both arguments are checked.

    ``k_max`` sets no value: it is checked only so that older
    configurations that name it keep their meaning as valid input.
    """
    if not is_integer(k_max) or k_max < 0:
        raise ParameterError(f"k_max must be a nonnegative integer, got {k_max!r}")
    if gamma_form not in GAMMA_FORMS:
        raise ParameterError(f"gamma_form must be one of {GAMMA_FORMS}, got {gamma_form!r}")
    return 2.0 if gamma_form == "regularized" else 1.0


def _spaced(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(start[i], stop[i], num, axis=-1) of each row i, bit for bit, as start.shape + (num,).

    linspace forms k * step, or (k / (num - 1)) * delta as soon as any step
    of the call is 0; each row is one call here, over its intervals along
    the last axis of ``start`` and ``stop``.
    """
    delta = stop - start
    step = delta / (num - 1)
    counts = np.arange(float(num))
    out = counts * step[..., None]
    if not step.all():
        zero = (step == 0.0).any(axis=-1)
        out[zero] = counts / (num - 1) * delta[zero][..., None]
    out += start[..., None]
    out[..., -1] = stop
    return out


def _response(
    t: np.ndarray, r: np.ndarray, s_rx: np.ndarray, D: float, v: float, z_s: float, z_e: float, extra: float
) -> np.ndarray:
    """The response at each element of the equal-shape arrays ``t``, ``r`` and ``s_rx``, as a new array.

    Each element is computed on its own, so the values do not depend on
    which elements share a call. The axial factor depends on t alone (the
    transport and the span are shared): one erf pair per run of equal
    times. The radial factor is at most exp(-(r - S_RX)^2 / 4Dt), which
    rounds to 0 past _FAR diffusion lengths, as do all its terms, so those
    elements, and those of a zero axial factor, skip the series. At r = 0
    the series is its first term, P(1, sigma) = 1 - e^-sigma.
    """
    value = np.zeros(t.shape)
    flat = value.reshape(-1)
    for start in range(0, flat.size, _CHUNK // 16):
        window = slice(start, start + _CHUNK // 16)
        t_w, r_w, s_w = t.flat[window], r.flat[window], s_rx.flat[window]
        new = _run_starts(t_w)
        run = np.cumsum(new) - 1
        t_h = t_w[new]
        root_h = np.sqrt(4.0 * D * t_h)
        axial = _axial(t_h, D, v, z_s, z_e)
        live = np.flatnonzero((axial[run] != 0.0) & (r_w - s_w <= _FAR * root_h[run]))
        four_dt = 4.0 * D * t_w[live]
        s_l, r_l = s_w[live], r_w[live]
        sigma = s_l * s_l / four_dt
        rho = r_l * r_l / four_dt
        radial = -np.expm1(-sigma)
        off = rho > 0.0
        radial[off] = _radial(rho[off], sigma[off], extra)
        flat[start + live] = axial[run[live]] * radial
    np.clip(value, 0.0, 1.0, out=value)
    return value


@functools.lru_cache(maxsize=8)
def _scan_axial(D: float, v: float, z_s: float, z_e: float, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The peak_time scan grid of (0, horizon] and its axial factor, as read-only arrays.

    The axial factor does not depend on S_RX, so every point of a sweep
    that keeps the transport, the receiver's axial span and the horizon
    shares one scan. peak_time passes only horizons in _HORIZONS, so the
    grid holds normal floats only.
    """
    grid = horizon * np.arange(1, _SCAN + 1) / _SCAN
    axial = _axial(grid, D, v, z_s, z_e)
    grid.setflags(write=False)
    axial.setflags(write=False)
    return grid, axial


def cir(
    t,
    r_i,
    params: PhysicalParams,
    geom: ReceiverGeometry,
    k_max: int = 20,
    gamma_form: str = "lower",
):
    """Probability that a molecule released at t = 0 occupies the receiver at t.

    ``t`` and ``r_i`` are floats (giving a float) or broadcastable arrays
    (giving an array equal to the float calls bit for bit). The value is an
    axial erf difference times the radial series sum_k e^-rho (rho^k / k!)
    P(k+1, sigma), rho = r_i^2/4Dt, sigma = S_RX^2/4Dt. _radial sums it in
    the exchanged order, sum_(j >= 1) P[N = j] W_(j-1) for N ~
    Poisson(sigma) and W the running sum of the weights, in scaled linear
    space with one Poisson(sigma) row per run of equal sigma. Each series
    stops at its certified window: the product of the ratio bounds
    term_(j+1) / term_j <= sigma (1 + rho / j) / (j + 1) (rho / j^2 in the
    regularized form) puts the first order past it under SERIES_RTOL / 2 of
    the sum, below half an ulp, so no order past it can move the double;
    series past _SEGMENT orders also skip the leading orders that cannot
    move it. ``k_max`` is accepted and checked, for older configurations,
    but sets no value.
    Points whose value is provably 0 (a zero axial factor, or r_i more than
    27.3 sqrt(4Dt) beyond S_RX) skip the series. At rho = 0 (the paired
    link) the series is its first term, taken in closed form as 1 - e^-sigma.
    ``gamma_form`` selects the series variant: "lower" (default) keeps the
    lower incomplete gamma exactly as the cylinder integral dictates and
    agrees with adaptive quadrature of the point-source concentration;
    "regularized" divides each term by an extra k!, which is identical at
    r_i = 0 (0! = 1) but decays faster with distance and reproduces the
    tabulated reference constants used by the acceptance suite.
    """
    t_arr, r_arr, s_arr = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(r_i, dtype=float), np.asarray(params.s_rx, dtype=float)
    )
    _check_times(t_arr, t)
    if not (np.isfinite(r_arr) & (r_arr >= 0)).all():
        raise ParameterError(f"r_i must be nonnegative and finite, got {r_i}")
    extra = _series_power(k_max, gamma_form)
    value = _response(t_arr, r_arr, s_arr, params.D, params.v, geom.z_s, geom.z_e, extra)
    return float(value) if value.ndim == 0 else value


def cir_uca(t: float, r_i: float, params: PhysicalParams, geom: ReceiverGeometry) -> float:
    """Uniform-concentration approximation: center concentration times volume."""
    if not (is_finite_real(t) and t > 0):
        raise ParameterError(f"t must be positive and finite, got {t!r}")
    if not (is_finite_real(r_i) and r_i >= 0):
        raise ParameterError(f"r_i must be nonnegative and finite, got {r_i!r}")
    four_dt = 4.0 * params.D * t
    z_mid = 0.5 * (geom.z_s + geom.z_e)
    dz = z_mid - params.v * t
    conc = (math.pi * four_dt) ** -1.5 * math.exp(-(r_i * r_i + dz * dz) / four_dt)
    return geom.volume * conc


def _check_search(search_horizon: float, tol: float) -> None:
    if not (is_finite_real(search_horizon) and _HORIZONS[0] <= search_horizon <= _HORIZONS[1]):
        raise ParameterError(
            f"search_horizon must lie in [{_HORIZONS[0]!r}, {_HORIZONS[1]!r}], where the {_SCAN}-point "
            f"peak scan of (0, horizon] holds normal floats only, got {search_horizon!r}"
        )
    if not (is_finite_real(tol) and tol > 0):
        raise ParameterError(f"tol must be positive and finite, got {tol!r}")


def _transport(links) -> tuple[float, float, float, float]:
    """D, v, z_s and z_e, which every (params, geom, ...) link of a batch shares."""
    shared = {(params.D, params.v, geom.z_s, geom.z_e) for params, geom, *_ in links}
    if len(shared) != 1:
        raise ParameterError(f"a batch of links must share D, v and the receiver's axial span, got {len(shared)} sets")
    return shared.pop()


def _widest(edges: np.ndarray) -> np.ndarray:
    """The wider bracket of each row of edges (lo, hi of the first bracket, lo, hi of the second)."""
    return (edges[:, 1::2] - edges[:, ::2]).max(axis=1)


def _peak_block(links, transport, search_horizon: float, tol: float) -> list[float]:
    """peak_time of each (params, geom) link of one block of at most _BLOCK links.

    Each link's scan is the one-link search's, against the shared cached
    axial factor. Then the brackets of every link zoom together in shared
    array calls, row i of each belonging to link i, and each step does to a
    row what the search does to one link, on the same doubles: a zoom
    spaces each row's two brackets as one linspace call, and a row leaves
    the zoom once both brackets are narrower than ``tol`` or stop
    narrowing (tol is then below the float spacing at its edges).
    """
    D, v, z_s, z_e = transport
    n = _SCAN
    grid, axial = _scan_axial(*map(float, (D, v, z_s, z_e, search_horizon)))
    # one scan row per link, as the one-link search forms it: a (links,
    # _SCAN) broadcast would allocate ufunc buffers of its full size
    peak, lo, hi = [], [], []
    for params, *_ in links:
        vals = _zero_offset(grid, axial, D, params.s_rx)
        top = vals.max()
        if top <= 0.0:
            raise SearchError(
                f"response vanishes at all {n} scan points of (0, {search_horizon}], {search_horizon / n:.3g} s apart; "
                "its peak lies past the horizon (widen it) or between two scan points (narrow it)"
            )
        if vals.argmax() == n - 1:
            raise SearchError(f"response still rising at t = {search_horizon}; widen the horizon")
        near = np.flatnonzero(vals >= top * (1.0 - 1e-12))
        if near[-1] == n - 1:
            raise SearchError(f"response still at its peak at t = {search_horizon}; widen the horizon")
        peak.append(top)
        lo.append(near[0])
        hi.append(near[-1])
    peak, lo, hi = np.array(peak), np.array(lo), np.array(hi)
    s_rx = np.array([[params.s_rx] for params, *_ in links], dtype=float)

    # Each row of edges holds two brackets, around the first and the last
    # time at the peak. The outer end of each bracket stays below the
    # running maximum's level, which never drops, so both edges stay inside.
    edges = grid[np.where(_LAST, hi[:, None], lo[:, None]) + _BESIDE]
    if not lo.all():
        edges[lo == 0, 0] = grid[0] * 1e-3
    width = 2 * (_ZOOM + 2)
    # rows: the links still zooming; old, s_rx and peak: their rows
    rows, old = np.arange(len(links)), edges
    keep = _widest(edges) >= tol
    while (kept := np.count_nonzero(keep)):
        if kept < rows.size:
            edges[rows] = old
            rows, old, s_rx, peak = rows[keep], old[keep], s_rx[keep], peak[keep]
        t = _spaced(old[:, ::2], old[:, 1::2], _ZOOM + 2).reshape(-1)
        vals = _zero_offset(t, _axial(t, D, v, z_s, z_e), D, s_rx.repeat(width)).reshape(rows.size, width)
        np.maximum(peak, vals.max(axis=1), out=peak)
        near = vals >= (peak * (1.0 - 1e-12))[:, None]
        at = np.where(_LAST, width - 1 - near[:, ::-1].argmax(axis=1)[:, None], near.argmax(axis=1)[:, None])
        at += _BESIDE
        narrowed = t[np.maximum(at, 0, out=at) + _ROW_STARTS[: rows.size]]
        keep = (narrowed != old).any(axis=1) & (_widest(narrowed) >= tol)
        old = narrowed
    edges[rows] = old
    # the mean of each row, as ndarray.mean sums and divides it
    return (np.add.reduce(edges, axis=1) / 4.0).tolist()


def peak_time(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    search_horizon: float = 15.0,
    tol: float = _PEAK_TOL,
) -> float:
    """Sampling time t_m: the center of the peak of the zero-offset response.

    The peak is the set of times at which the response lies within a
    relative 1e-12 of its maximum, and t_m is its center, found to ``tol``.
    A smooth maximum and the flat plateau of the advection limit, where the
    response is clipped to 1, are the same case. A 1000-point scan of
    (0, horizon] brackets the first and the last time at the peak. Each
    zoom evaluates _ZOOM points in both brackets in one array call, raises
    the running maximum, and narrows each bracket to the neighbors of the
    first and the last point at the peak, until both are narrower than
    ``tol``. The zero-offset response is cir(t, 0.0, ...) bit for bit,
    formed directly as axial times 1 - e^-sigma; the scan's axial factor
    comes from a cache keyed by the transport, the axial span and the
    horizon. This is the one-link case of the batched search that
    perf.sweep runs on each block of links (_peak_block).
    """
    _check_search(search_horizon, tol)
    links = [(params, geom)]
    return _peak_block(links, _transport(links), search_horizon, tol)[0]


def _summary_block(links, t_ms, transport, k_max: int, gamma_form: str) -> list[ChannelSummary]:
    """summarize of each (params, geom, layout) link of one block at its t_m, in one response evaluation.

    The elements are each link's distances (0 for the paired link, then
    its rings) and then its Simpson nodes, if it has a tail, link after
    link; every element takes its link's t_m, S_RX and n_mol.
    """
    rows, ends = [], []
    for (params, _, layout), t_m in zip(links, t_ms):
        distances = [0.0] + [dist for dist, _ in layout.ring_sizes]
        tail = None
        if layout.ring_sizes:
            r_out = distances[-1]
            r_end = r_out + 8.0 * math.sqrt(4.0 * params.D * t_m) + 2.0 * params.s_rx
            if r_end > r_out:
                tail = len(ends)
                ends.append((r_out, r_end))
        rows.append((distances, tail))
    if ends:
        r_out, r_end = np.array(ends).T[:, :, None]
        nodes = _spaced(r_out, r_end, _TAIL_INTERVALS + 1)[:, 0]
    pieces, sizes = [], []
    for distances, tail in rows:
        pieces.append(distances)
        if tail is not None:
            pieces.append(nodes[tail])
        sizes.append(len(distances) + (0 if tail is None else _TAIL_INTERVALS + 1))
    r = np.concatenate(pieces)
    offsets = list(itertools.accumulate(sizes, initial=0))

    for t_m in t_ms:
        if not 0.0 < t_m < math.inf:
            raise ParameterError(f"t must be positive and finite, got {t_m}")
    if not (np.isfinite(r) & (r >= 0)).all():
        for start, stop in zip(offsets, offsets[1:]):
            segment = r[start:stop]
            if not (np.isfinite(segment) & (segment >= 0)).all():
                raise ParameterError(f"r_i must be nonnegative and finite, got {segment}")
    extra = _series_power(k_max, gamma_form)

    per_link = [(t_m, params.s_rx, params.n_mol) for (params, *_), t_m in zip(links, t_ms)]
    t, s_rx, n_mol = np.repeat(np.array(per_link, dtype=float), sizes, axis=0).T
    scaled = n_mol * _response(t, r, s_rx, *transport, extra)
    if ends:
        tails = [
            (start + len(distances), layout)
            for (distances, tail), start, (_, _, layout) in zip(rows, offsets, links)
            if tail is not None
        ]
        a_cell = np.array([[cell_area(layout.kind, layout.pitch)] for _, layout in tails])
        integrand = scaled[np.add.outer([first for first, _ in tails], _NODES)] * 2.0 * math.pi * nodes / a_cell
        tail_means = (np.add.reduce(_SIMPSON * integrand, axis=1) * (nodes[:, 1] - nodes[:, 0]) / 3.0).tolist()
    values = scaled.tolist()
    summaries = []
    for (params, geom, layout), t_m, (distances, tail), start in zip(links, t_ms, rows, offsets):
        means = values[start : start + len(distances)]
        summaries.append(
            ChannelSummary(
                t_m=t_m,
                mu_s=means[0],
                cbar=tuple((mean, count) for mean, (_, count) in zip(means[1:], layout.ring_sizes)),
                mu_n=params.c_noise * geom.volume,
                tail_mean=0.0 if tail is None else tail_means[tail],
            )
        )
    return summaries


def _summaries(links, k_max: int, gamma_form: str, search_horizon: float, t_ms=None) -> list[ChannelSummary]:
    """summarize of each (params, geom, layout) link, _BLOCK links per pass.

    The links of a block share D, v and the receiver's axial span, as the
    points of a sweep do; S_RX, n_mol, the noise and the layout are each
    link's own. ``links`` is read one block at a time, so an iterator that
    builds them holds one block's layouts at a time, not a whole axis.
    A block's peak times come from one batched search (_peak_block), and
    its rings and Simpson nodes from one response evaluation, with sigma
    and the tail nodes taken per element: every value equals the one-link
    call's bit for bit. ``t_ms`` gives the sampling times in place of the
    search. A failure raises the error of a failing link.
    """
    if t_ms is None:
        _check_search(search_horizon, _PEAK_TOL)
    links, summaries = iter(links), []
    while block := list(itertools.islice(links, _BLOCK)):
        transport = _transport(block)
        if t_ms is None:
            times = _peak_block(block, transport, search_horizon, _PEAK_TOL)
        else:
            times = t_ms[len(summaries) : len(summaries) + _BLOCK]
        summaries += _summary_block(block, times, transport, k_max, gamma_form)
    return summaries


def summarize(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    layout: GridLayout,
    k_max: int = 20,
    gamma_form: str = "lower",
    t_m: float | None = None,
    search_horizon: float = 15.0,
) -> ChannelSummary:
    """Expected signal, per-ring interference, noise and tail counts at the peak time.

    The tail estimate is a continuum approximation: site density 1/A_cell
    beyond the outermost ring, integrated against the response at t_m by
    the composite Simpson rule on _TAIL_INTERVALS intervals out to 8
    diffusion lengths plus 2 S_RX past that ring. The rings and the
    Simpson nodes share one response evaluation, whose every series stops at
    its certified window (see cir): ``k_max`` is checked but sets no value.
    This is the one-link case of _summaries, which perf.sweep runs over a
    whole sweep axis.
    """
    return _summaries([(params, geom, layout)], k_max, gamma_form, search_horizon, None if t_m is None else [t_m])[0]
