"""Analytic channel response of a diffusive link with uniform flow.

A point transmitter at the origin releases molecules that diffuse with
coefficient D and drift with velocity v along z. The paired receiver is a
transparent cylinder of radius S_RX spanning z_S..z_E, centered on the z
axis at lateral offset r_i from the transmitter of interest. The response
value is the probability that one released molecule is inside the cylinder
at time t; it factorizes into an axial erf difference and a radial series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SearchError, is_finite_real, is_integer
from .gridgeom import GridLayout
from .specfun import _log_poisson_pmf, _poisson_ladder, erf

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
# Most elements (points x series orders) in one radial-series temporary.
_CHUNK = 1 << 15
# exp(-_FAR^2) is below half the smallest double.
_FAR = math.sqrt(746.0)
# Points evaluated inside each edge bracket per zoom of peak_time.
_ZOOM = 32


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
    ring, in increasing ring-distance order.
    """

    t_m: float
    mu_s: float
    cbar: tuple[tuple[float, int], ...]
    mu_n: float

    @property
    def cbar_sum(self) -> float:
        return math.fsum(value * count for value, count in self.cbar)

    @property
    def n_interferers(self) -> int:
        return sum(count for _, count in self.cbar)


def _radial(rho: np.ndarray, sigma: np.ndarray, k_min: int, extra: float) -> np.ndarray:
    """sum_k w_k P(k+1, sigma), w_k = e^-rho rho^k / k!^extra, on 1-D arrays.

    Term k + 1 is at most q_k = rho sigma / ((k+1)^extra (k+2)) times term
    k, and q_k falls with k. An element stops at its first order K >= k_min
    with q_K <= 1/2 and term_K <= SERIES_RTOL times the partial sum, so the
    dropped terms add at most term_K. K is at most ``top``: q_k <= 1/2 from
    the first h with (h+1)^(extra+1) >= 2 rho sigma on, and m more orders
    shrink a term by q_h^m <= SERIES_RTOL. Running sums keep each element
    independent of the others; blocks of elements keep each ladder (at most
    2 top + 64 orders) within _CHUNK elements.
    """
    rs = rho * sigma
    half = np.ceil((2.0 * rs) ** (1.0 / (extra + 1.0)))
    with np.errstate(divide="ignore"):
        fall = np.ceil(math.log(SERIES_RTOL) / np.log(rs / ((half + 1.0) ** extra * (half + 2.0))))
    top = np.maximum(k_min, half + np.maximum(fall, 1.0)).astype(np.int64)
    out = np.empty_like(rs)
    rows = _CHUNK // (2 * int(top.max(initial=0)) + 64) or 1
    for i in range(0, rs.size, rows):
        b = slice(i, i + rows)
        k = np.arange(int(top[b].max()) + 1)
        _, log_tail = _poisson_ladder(sigma[b], top[b])
        terms = np.exp(_log_poisson_pmf(rho[b], k[-1], power=extra) + log_tail)
        partial = np.cumsum(terms, axis=-1)
        q = rs[b, None] / ((k + 1.0) ** extra * (k + 2.0))
        stop = ((k >= k_min) & (q <= 0.5) & (terms <= SERIES_RTOL * partial)) | (k == top[b, None])
        out[b] = partial[np.arange(len(partial)), stop.argmax(axis=-1)]
    return out


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
    axial erf difference times the radial series sum_k (rho^k / k!)
    P(k+1, sigma), rho = r_i^2/4Dt, sigma = S_RX^2/4Dt, in log space, up to
    an order chosen per element so that the dropped terms are at most
    SERIES_RTOL of the sum; ``k_max`` is a minimum order. Points whose value
    is provably 0 (a zero axial factor, or r_i more than 27.3 sqrt(4Dt)
    beyond S_RX) skip the series. ``gamma_form`` selects the series variant:
    "lower" (default) keeps the lower incomplete gamma exactly as the
    cylinder integral dictates and agrees with adaptive quadrature of the
    point-source concentration; "regularized" divides each term by an extra
    k!, which is identical at r_i = 0 but decays faster with distance and
    reproduces the tabulated reference constants used by the acceptance
    suite.
    """
    t_arr, r_arr = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r_i, dtype=float))
    if not (np.isfinite(t_arr) & (t_arr > 0)).all():
        raise ParameterError(f"t must be positive and finite, got {t}")
    if not (np.isfinite(r_arr) & (r_arr >= 0)).all():
        raise ParameterError(f"r_i must be nonnegative and finite, got {r_i}")
    if not is_integer(k_max) or k_max < 0:
        raise ParameterError(f"k_max must be a nonnegative integer, got {k_max!r}")
    if gamma_form not in GAMMA_FORMS:
        raise ParameterError(f"gamma_form must be one of {GAMMA_FORMS}, got {gamma_form!r}")
    extra = 2.0 if gamma_form == "regularized" else 1.0

    value = np.zeros(t_arr.shape)
    flat = value.reshape(-1)
    for start in range(0, flat.size, _CHUNK // 64):
        window = slice(start, start + _CHUNK // 64)
        t_w, r_w = t_arr.flat[window], r_arr.flat[window]
        four_dt = 4.0 * params.D * t_w
        root = np.sqrt(four_dt)
        axial = 0.5 * (erf((params.v * t_w - geom.z_s) / root) - erf((params.v * t_w - geom.z_e) / root))
        # the radial factor is at most exp(-(r_i - S_RX)^2 / 4Dt), which
        # rounds to 0 past _FAR diffusion lengths, as do all its terms
        live = np.flatnonzero((axial != 0.0) & (r_w - params.s_rx <= _FAR * root))
        sigma = params.s_rx * params.s_rx / four_dt[live]
        rho = r_w[live] * r_w[live] / four_dt[live]
        flat[start + live] = axial[live] * _radial(rho, sigma, k_max, extra)
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
    ``tol``.
    """
    if not (is_finite_real(search_horizon) and search_horizon > 0):
        raise ParameterError(f"search_horizon must be positive and finite, got {search_horizon!r}")
    if not (is_finite_real(tol) and tol > 0):
        raise ParameterError(f"tol must be positive and finite, got {tol!r}")

    n = 1000
    grid = search_horizon * np.arange(1, n + 1) / n
    vals = cir(grid, 0.0, params, geom)
    peak = vals.max()
    if peak <= 0.0:
        raise SearchError(f"response vanishes everywhere on (0, {search_horizon}]; widen the horizon")
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
        vals = cir(t, 0.0, params, geom)
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
    """Expected signal, per-ring interference, and noise counts at the peak time."""
    if t_m is None:
        t_m = peak_time(params, geom, search_horizon=search_horizon)
    distances = np.array([0.0] + [dist for dist, _ in layout.ring_sizes])
    means = (params.n_mol * cir(t_m, distances, params, geom, k_max=k_max, gamma_form=gamma_form)).tolist()
    cbar = tuple((mean, count) for mean, (_, count) in zip(means[1:], layout.ring_sizes))
    mu_n = params.c_noise * geom.volume
    return ChannelSummary(t_m=t_m, mu_s=means[0], cbar=cbar, mu_n=mu_n)
