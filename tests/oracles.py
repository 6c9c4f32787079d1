"""Independent reference computations used only by the test suite.

These deliberately take different routes than the library: the response
oracles integrate the free-space Gaussian concentration over the receiver
cylinder by adaptive quadrature (with the Bessel kernel the library never
evaluates), take the radial factor from SciPy's noncentral chi-square cdf
or sum its series exactly with SciPy's incomplete gamma; the peak-time
oracle refines its scan by golden-section search and plateau bisection
with one scalar response call per step, where the library zooms on both
edges of the peak with array calls; the error-probability oracles expand small sums by hand, and the detection
oracles evaluate every likelihood as a log-sum-exp over the
atoms of the collapsed interference spectrum, where the library works
from the convolved count distribution.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

from mc_arelab.channel import PhysicalParams, ReceiverGeometry, cir
from mc_arelab.errors import ParameterError, SearchError
from mc_arelab.specfun import log_sum_exp


def cir_quadrature(t: float, r_i: float, params: PhysicalParams, geom: ReceiverGeometry) -> float:
    """2D adaptive quadrature of the point-source concentration over the cylinder.

    The angular integral is carried out analytically (modified Bessel I0,
    evaluated in scaled form for stability), leaving a radial-by-axial
    double integral.
    """
    four_dt = 4.0 * params.D * t
    pref = (math.pi * four_dt) ** -1.5

    def integrand(z: float, r: float) -> float:
        bessel = special.i0e(r * r_i / (2.0 * params.D * t))
        radial = bessel * math.exp(-((r - r_i) ** 2) / four_dt)
        axial = math.exp(-((z - params.v * t) ** 2) / four_dt)
        return 2.0 * math.pi * r * pref * radial * axial

    value, abserr = integrate.dblquad(
        integrand, 0.0, params.s_rx, geom.z_s, geom.z_e, epsabs=1e-14, epsrel=1e-11
    )
    return value


def _axial_sigma_rho(t: float, r_i: float, params: PhysicalParams, geom: ReceiverGeometry):
    four_dt = 4.0 * params.D * t
    root = math.sqrt(four_dt)
    axial = 0.5 * (math.erf((params.v * t - geom.z_s) / root) - math.erf((params.v * t - geom.z_e) / root))
    return axial, params.s_rx**2 / four_dt, r_i * r_i / four_dt


def cir_ncx2(t: float, r_i: float, params: PhysicalParams, geom: ReceiverGeometry) -> float:
    """Response in the lower gamma form from the noncentral chi-square cdf.

    The radial factor sum_k Poisson(rho; k) P(k+1, sigma) is the cdf at
    2 sigma of a noncentral chi-square with 2 degrees of freedom and
    noncentrality 2 rho.
    """
    axial, sigma, rho = _axial_sigma_rho(t, r_i, params, geom)
    return axial * float(stats.ncx2.cdf(2.0 * sigma, 2, 2.0 * rho))


def cir_regularized_fsum(
    t: float, r_i: float, params: PhysicalParams, geom: ReceiverGeometry, orders: int
) -> float:
    """Response in the regularized gamma form as an exactly rounded sum of ``orders`` terms."""
    axial, sigma, rho = _axial_sigma_rho(t, r_i, params, geom)
    terms = (
        math.exp(k * math.log(rho) - rho - 2.0 * math.lgamma(k + 1.0)) * float(special.gammainc(k + 1, sigma))
        for k in range(orders)
    )
    return axial * math.fsum(terms)


def oracle_peak_time(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    search_horizon: float = 15.0,
    tol: float = 1e-6,
) -> float:
    """Time at which the zero-offset response peaks, refined by scalar calls.

    A 1000-point scan of (0, horizon] brackets the maximum, refined by
    golden-section search. In the advection-dominated limit the response
    is flat at its maximum over a finite window; the center of that
    plateau is returned, located by bisecting both plateau edges.
    """
    if search_horizon <= 0:
        raise ParameterError(f"search_horizon must be positive, got {search_horizon}")
    if tol <= 0:
        raise ParameterError(f"tol must be positive, got {tol}")

    n = 1000
    grid = [search_horizon * i / n for i in range(1, n + 1)]
    vals = cir(np.array(grid), 0.0, params, geom).tolist()
    peak = max(vals)
    if peak <= 0.0:
        raise SearchError(f"response vanishes everywhere on (0, {search_horizon}]; widen the horizon")
    i_max = vals.index(peak)
    if i_max == n - 1:
        raise SearchError(f"response still rising at t = {search_horizon}; widen the horizon")

    thresh = peak * (1.0 - 1e-12)
    lo = i_max
    while lo > 0 and vals[lo - 1] >= thresh:
        lo -= 1
    hi = i_max
    while hi < n - 1 and vals[hi + 1] >= thresh:
        hi += 1
    if hi == n - 1:
        raise SearchError(f"response still at its peak at t = {search_horizon}; widen the horizon")

    def f(t: float) -> float:
        return cir(t, 0.0, params, geom)

    if hi > lo:
        # flat plateau: bisect the rising and falling crossings of thresh
        def edge(a: float, b: float, rising: bool) -> float:
            for _ in range(80):
                mid = 0.5 * (a + b)
                above = f(mid) >= thresh
                if above == rising:
                    b = mid
                else:
                    a = mid
                if b - a < tol:
                    break
            return 0.5 * (a + b)

        left = edge(grid[lo - 1] if lo > 0 else grid[0] * 1e-3, grid[lo], rising=True)
        right = edge(grid[hi], grid[hi + 1], rising=False)
        return 0.5 * (left + right)

    a = grid[i_max - 1] if i_max > 0 else grid[0] * 1e-3
    b = grid[i_max + 1]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d_ = a + inv_phi * (b - a)
    fc, fd = f(c), f(d_)
    while b - a > tol:
        if fc > fd:
            b, d_, fd = d_, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + inv_phi * (b - a)
            fd = f(d_)
    return 0.5 * (a + b)


def exhaustive_iui_spectrum(ring_basis: list[tuple[float, int]]) -> list[tuple[float, float]]:
    """All 2^(N-1) interference outcomes aggregated into (value, weight) pairs.

    Brute force over every activation pattern of every individual
    interferer; equal values (within 1e-12) are merged.
    """
    singles: list[float] = []
    for cbar, count in ring_basis:
        singles.extend([cbar] * count)
    n = len(singles)
    outcomes: dict[float, float] = {}
    weight = 0.5**n
    for mask in range(2**n):
        total = 0.0
        m = mask
        idx = 0
        while m:
            if m & 1:
                total += singles[idx]
            m >>= 1
            idx += 1
        key = round(total, 12)
        outcomes[key] = outcomes.get(key, 0.0) + weight
    return sorted(outcomes.items())


def _log_poisson_score(phi: float, lam: np.ndarray) -> np.ndarray:
    """phi ln(lam) - lam elementwise, with the 0^0 = 1 convention at lam = 0."""
    out = np.full(lam.shape, -math.inf)
    pos = lam > 0
    out[pos] = phi * np.log(lam[pos]) - lam[pos]
    if phi == 0:
        out[~pos] = 0.0
    return out


def atom_optimal_threshold(mu_s: float, spectrum, mu_n: float, theta_cap: int | None = None) -> int:
    """First integer count whose log-likelihood over the atoms favours bit 1."""
    if theta_cap is None:
        theta_cap = 10 * math.ceil(mu_s + spectrum.max_value + mu_n) + 50
    lam_on = mu_s + spectrum.values + mu_n
    lam_off = spectrum.values + mu_n
    for theta in range(theta_cap + 1):
        on = log_sum_exp(_log_poisson_score(theta, lam_on) + spectrum.log_weights)
        off = log_sum_exp(_log_poisson_score(theta, lam_off) + spectrum.log_weights)
        if on >= off:
            return theta
    raise SearchError(f"no threshold up to {theta_cap} flips the likelihood ratio; raise theta_cap")


def atom_decision_curves(theta_max: int, mu_s: float, spectrum, mu_n: float):
    """(q, p) of the rule [r >= theta] for theta = 0..theta_max, atom by atom.

    Each atom's Poisson cdf is accumulated term by term in log space and
    the atoms are then weighted, the reverse order of the library's sums
    over the count distribution.
    """
    w = np.exp(spectrum.log_weights)
    lam_on = mu_s + spectrum.values + mu_n
    lam_off = spectrum.values + mu_n
    with np.errstate(divide="ignore"):
        log_on = np.log(lam_on)
        log_off = np.log(lam_off)
    q_curve = np.empty(theta_max + 1)
    p_curve = np.empty(theta_max + 1)
    acc_on = np.zeros_like(lam_on)
    acc_off = np.zeros_like(lam_off)
    logp_on = -lam_on
    logp_off = -lam_off
    for theta in range(theta_max + 1):
        q_curve[theta] = math.fsum(w * acc_on)
        p_curve[theta] = 1.0 - math.fsum(w * acc_off)
        acc_on += np.exp(logp_on)
        acc_off += np.exp(logp_off)
        step = math.log(theta + 1)
        logp_on += log_on - step
        logp_off += log_off - step
    return np.clip(q_curve, 0.0, 1.0), np.clip(p_curve, 0.0, 1.0)


def atom_threshold_set(mu_s: float, spectrum, mu_n: float, phi_max: float | None = None) -> list[int]:
    """Likelihood-balance crossings with every scan point a log-sum-exp over the atoms."""
    if phi_max is None:
        phi_max = float(10 * math.ceil(mu_s + spectrum.max_value + mu_n) + 50)
    lam_on = mu_s + spectrum.values + mu_n
    lam_off = spectrum.values + mu_n
    log_w = spectrum.log_weights

    def balance(phi: float) -> float:
        lhs = log_sum_exp(_log_poisson_score(phi, lam_on) + log_w)
        rhs = log_sum_exp(_log_poisson_score(phi, lam_off) + log_w)
        if lhs == rhs:
            return 0.0
        if math.isinf(rhs) and rhs < 0:
            return math.inf
        return lhs - rhs

    roots: list[float] = []
    step = 0.25
    prev_phi = 0.0
    prev_val = balance(0.0)
    if prev_val == 0.0:
        roots.append(0.0)
    for i in range(1, int(math.ceil(phi_max / step)) + 1):
        phi = min(i * step, phi_max)
        val = balance(phi)
        if val == 0.0:
            roots.append(phi)
        elif (val > 0) != (prev_val > 0):
            lo, hi, lo_val = prev_phi, phi, prev_val
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                mid_val = balance(mid)
                if mid_val == 0.0:
                    lo = hi = mid
                    break
                if (mid_val > 0) == (lo_val > 0):
                    lo, lo_val = mid, mid_val
                else:
                    hi = mid
                if hi - lo < 1e-9:
                    break
            roots.append(0.5 * (lo + hi))
        prev_phi, prev_val = phi, val
    return sorted({max(1, math.ceil(root)) for root in roots})
