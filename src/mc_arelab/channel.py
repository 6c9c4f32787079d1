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
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SearchError, is_finite_real, is_integer
from .gridgeom import GridLayout, cell_area
from .specfun import _CHUNK, _log_factorials, erf

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

# Relative bound on the radial-series mass dropped past the chosen order.
SERIES_RTOL = 1e-16
# exp(-_FAR^2) is below half the smallest double.
_FAR = math.sqrt(746.0)
# Points of the peak_time scan, and points evaluated inside each edge
# bracket per zoom.
_SCAN = 1000
# horizons whose scan, horizon * k / _SCAN for k = 1.._SCAN, is all normal floats
_HORIZONS = (_SCAN * sys.float_info.min, sys.float_info.max / _SCAN)
_ZOOM = 32
# Simpson intervals of the tail estimate in summarize.
_TAIL_INTERVALS = 64


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
    rows *= power
    rows -= log_at_mode[:, None]
    return np.exp(rows, out=rows)


def _radial(rho: np.ndarray, sigma: np.ndarray, k_min: int, extra: float) -> np.ndarray:
    """sum_k w_k P(k+1, sigma), w_k = e^-rho rho^k / k!^extra, on 1-D arrays with rho > 0.

    P(k+1, sigma) = P[N > k] for N ~ Poisson(sigma), so exchanging the order
    of summation gives sum_(j >= 1) p_j W_(j-1), with p_j = P[N = j] and
    W_i = w_0 + ... + w_i: a sum of positive terms, with no tail to form.
    Term j + 1 is at most q_j = sigma (1 + rho / j^extra) / (j + 1) times
    term j (W_j / W_(j-1) = 1 + w_j / W_(j-1) <= 1 + w_j / w_(j-1)), and q_j
    falls with j. Each element sums the orders j = 1..top, top = h + m. From
    h on, q_j <= 1/2: h is the largest of k_min + 1, a floor f = max(1,
    2 sigma, (2 rho sigma)^(1/(extra+1))) and the root of j^2 - (2 sigma - 1)
    j - 2 rho sigma / f^(extra-1), since j^extra >= j f^(extra-1) for j >= f.
    The m more orders shrink a term by q_h^m <= SERIES_RTOL. So the last
    term is at most SERIES_RTOL times the sum, and all past it add at most
    that term.

    The sum runs in scaled linear space, the p_j over p at their mode
    max(1, floor(sigma)) and the w_k over w at their mode floor(rho^(1/extra)),
    so no entry exceeds 1 (nor W_k its order + 1). Where that mode lies past
    the top, the sum is at most top times the scaled w at the top, so
    scaled terms underflow only in sums below about 1e-290. Every scale and
    every top is the element's own, so an array call equals the scalar calls
    bit for bit. The p_j row depends on sigma alone, so each run of
    neighbours with equal sigma shares one row: a block ends where a run
    starts, unless a single run fills it.
    """
    rs = rho * sigma
    floor = np.maximum(np.maximum(1.0, 2.0 * sigma), (2.0 * rs) ** (1.0 / (extra + 1.0)))
    slope = 2.0 * sigma - 1.0
    h = np.maximum(floor, np.ceil(0.5 * (slope + np.sqrt(slope * slope + 8.0 * rs / floor ** (extra - 1.0)))))
    h = np.maximum(h, k_min + 1.0)
    with np.errstate(divide="ignore"):
        fall = np.ceil(math.log(SERIES_RTOL) / np.log(sigma * (1.0 + rho / h**extra) / (h + 1.0)))
    top = (h + np.maximum(fall, 1.0)).astype(np.int64)
    log_fact = _log_factorials(np.arange(int(top.max(initial=0)) + 1))
    # ln of p and w at their modes (0 at sigma = 0, whose p_j are all 0)
    with np.errstate(divide="ignore"):
        log_sigma = np.log(sigma)
    p_mode = np.maximum(1.0, np.floor(sigma))
    p_at = np.where(sigma > 0.0, p_mode * log_sigma - _log_factorials(p_mode.astype(np.int64)), 0.0)
    log_rho = np.log(rho)
    w_mode = np.floor(rho ** (1.0 / extra))
    w_at = w_mode * log_rho - extra * _log_factorials(w_mode.astype(np.int64))
    new = _run_starts(sigma)
    out = np.empty_like(rs)
    # a quarter of _CHUNK entries per temporary: the block's three stay
    # within _CHUNK together, and each below the 128 KB at which the C
    # allocator maps memory directly and then keeps a larger heap resident
    rows = _CHUNK // 4 // int(top.max(initial=1)) or 1
    start = 0
    while start < rs.size:
        stop = start + rows
        # end the block at the last run start in (start, stop]
        cuts = np.flatnonzero(new[start + 1 : stop + 1])
        if stop < rs.size and cuts.size:
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
        start = stop
    out *= np.exp(p_at - sigma + (w_at - rho))
    return out


def _axial(t: np.ndarray, D: float, v: float, z_s: float, z_e: float) -> np.ndarray:
    """Axial factor of the response: the erf difference over z_s..z_e at times ``t`` (1-D)."""
    root = np.sqrt(4.0 * D * t)
    return 0.5 * (erf((v * t - z_s) / root) - erf((v * t - z_e) / root))


def _zero_offset(t: np.ndarray, axial: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """cir(t, 0.0, ...) bit for bit, given the axial factor at ``t``: axial times 1 - e^-sigma."""
    return np.clip(axial * -np.expm1(-params.s_rx * params.s_rx / (4.0 * params.D * t)), 0.0, 1.0)


def _check_times(t_arr: np.ndarray, t) -> None:
    """Reject any time in ``t_arr`` that is not positive and finite, naming the argument ``t``."""
    if not (np.isfinite(t_arr) & (t_arr > 0)).all():
        raise ParameterError(f"t must be positive and finite, got {t}")


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
    space with one Poisson(sigma) row per run of equal sigma, out to an
    order certified per element from term_(j+1) / term_j <= sigma (1 + rho
    / j) / (j + 1) (rho / j^2 in the regularized form): the last term summed
    is at most SERIES_RTOL of the sum, and everything dropped at most that
    term. ``k_max`` is a minimum order (the sum runs to j >= k_max + 1).
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
    t_arr, r_arr = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r_i, dtype=float))
    _check_times(t_arr, t)
    if not (np.isfinite(r_arr) & (r_arr >= 0)).all():
        raise ParameterError(f"r_i must be nonnegative and finite, got {r_i}")
    if not is_integer(k_max) or k_max < 0:
        raise ParameterError(f"k_max must be a nonnegative integer, got {k_max!r}")
    if gamma_form not in GAMMA_FORMS:
        raise ParameterError(f"gamma_form must be one of {GAMMA_FORMS}, got {gamma_form!r}")
    extra = 2.0 if gamma_form == "regularized" else 1.0

    value = np.zeros(t_arr.shape)
    flat = value.reshape(-1)
    for start in range(0, flat.size, _CHUNK // 16):
        window = slice(start, start + _CHUNK // 16)
        t_w, r_w = t_arr.flat[window], r_arr.flat[window]
        # the axial factor depends on t alone: one erf pair per run of equal times
        new = _run_starts(t_w)
        run = np.cumsum(new) - 1
        t_h = t_w[new]
        root_h = np.sqrt(4.0 * params.D * t_h)
        axial = _axial(t_h, params.D, params.v, geom.z_s, geom.z_e)
        # the radial factor is at most exp(-(r_i - S_RX)^2 / 4Dt), which
        # rounds to 0 past _FAR diffusion lengths, as do all its terms
        live = np.flatnonzero((axial[run] != 0.0) & (r_w - params.s_rx <= _FAR * root_h[run]))
        four_dt = 4.0 * params.D * t_w[live]
        sigma = params.s_rx * params.s_rx / four_dt
        rho = r_w[live] * r_w[live] / four_dt
        # at rho = 0 the series is its first term, P(1, sigma) = 1 - e^-sigma
        radial = -np.expm1(-sigma)
        off = rho > 0.0
        radial[off] = _radial(rho[off], sigma[off], k_max, extra)
        flat[start + live] = axial[run[live]] * radial
    np.clip(value, 0.0, 1.0, out=value)
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


def peak_time(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    search_horizon: float = 15.0,
    tol: float = 1e-6,
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
    horizon.
    """
    if not (is_finite_real(search_horizon) and _HORIZONS[0] <= search_horizon <= _HORIZONS[1]):
        raise ParameterError(
            f"search_horizon must lie in [{_HORIZONS[0]!r}, {_HORIZONS[1]!r}], where the {_SCAN}-point "
            f"peak scan of (0, horizon] holds normal floats only, got {search_horizon!r}"
        )
    if not (is_finite_real(tol) and tol > 0):
        raise ParameterError(f"tol must be positive and finite, got {tol!r}")

    n = _SCAN
    grid, axial = _scan_axial(*map(float, (params.D, params.v, geom.z_s, geom.z_e, search_horizon)))
    vals = _zero_offset(grid, axial, params)
    peak = vals.max()
    if peak <= 0.0:
        raise SearchError(
            f"response vanishes at all {n} scan points of (0, {search_horizon}], {search_horizon / n:.3g} s apart; "
            "its peak lies past the horizon (widen it) or between two scan points (narrow it)"
        )
    if vals.argmax() == n - 1:
        raise SearchError(f"response still rising at t = {search_horizon}; widen the horizon")
    near = np.flatnonzero(vals >= peak * (1.0 - 1e-12))
    lo, hi = near[0], near[-1]
    if hi == n - 1:
        raise SearchError(f"response still at its peak at t = {search_horizon}; widen the horizon")

    # The outer end of each bracket stays below the running maximum's
    # level, which never drops, so both edges stay inside the brackets.
    edges = np.array([[grid[lo - 1] if lo > 0 else grid[0] * 1e-3, grid[lo]], [grid[hi], grid[hi + 1]]])
    while (edges[:, 1] - edges[:, 0]).max() >= tol:
        t = np.linspace(edges[:, 0], edges[:, 1], _ZOOM + 2, axis=-1).ravel()
        vals = _zero_offset(t, _axial(t, params.D, params.v, geom.z_s, geom.z_e), params)
        peak = max(peak, vals.max())
        near = np.flatnonzero(vals >= peak * (1.0 - 1e-12))
        first, last = near[0], near[-1]
        narrowed = np.array([[t[max(first - 1, 0)], t[first]], [t[last], t[last + 1]]])
        if (narrowed == edges).all():
            break  # tol is below the float spacing at the edges
        edges = narrowed
    return float(edges.mean())


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
    Simpson nodes share one response call.
    """
    if t_m is None:
        t_m = peak_time(params, geom, search_horizon=search_horizon)
    distances = [0.0] + [dist for dist, _ in layout.ring_sizes]
    nodes = np.empty(0)
    if layout.ring_sizes:
        r_out = distances[-1]
        r_end = r_out + 8.0 * math.sqrt(4.0 * params.D * t_m) + 2.0 * params.s_rx
        if r_end > r_out:
            nodes = np.linspace(r_out, r_end, _TAIL_INTERVALS + 1)
    response = cir(t_m, np.concatenate((distances, nodes)), params, geom, k_max=k_max, gamma_form=gamma_form)
    means = (params.n_mol * response[: len(distances)]).tolist()
    cbar = tuple((mean, count) for mean, (_, count) in zip(means[1:], layout.ring_sizes))
    mu_n = params.c_noise * geom.volume
    tail_mean = 0.0
    if nodes.size:
        # Simpson weights 1, 4, 2, 4, ..., 2, 4, 1
        weights = np.tile([2.0, 4.0], _TAIL_INTERVALS // 2 + 1)[: nodes.size]
        weights[[0, -1]] = 1.0
        a_cell = cell_area(layout.kind, layout.pitch)
        integrand = params.n_mol * response[len(distances) :] * 2.0 * math.pi * nodes / a_cell
        tail_mean = float(np.sum(weights * integrand)) * (nodes[1] - nodes[0]) / 3.0
    return ChannelSummary(t_m=t_m, mu_s=means[0], cbar=cbar, mu_n=mu_n, tail_mean=tail_mean)
