"""Independent reference computations used only by the test suite.

These deliberately take different routes than the library: the response
oracles integrate the free-space Gaussian concentration over the receiver
cylinder by adaptive quadrature (with the Bessel kernel the library never
evaluates), take the radial factor from SciPy's noncentral chi-square cdf
or sum its series exactly with SciPy's incomplete gamma; the peak-time
oracle refines its scan by golden-section search and plateau bisection
with one scalar response call per step, where the library zooms on both
edges of the peak with array calls; the tail oracle evaluates the
response at its Simpson nodes alone, where the library evaluates them in
one call with the ring distances; the site oracle scans the lattice at
the asked pitch on every call, where the library scans it once per (kind,
count) at unit pitch; the error-probability oracles expand small sums by hand, and the detection
oracles evaluate every likelihood as a log-sum-exp over the
atoms of the collapsed interference spectrum, with a log-sum-exp of their
own, where the library works from the convolved count distribution.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

from mc_arelab.channel import PhysicalParams, ReceiverGeometry, cir
from mc_arelab.errors import ParameterError, SearchError
from mc_arelab.gridgeom import GridKind, GridLayout, TxSite, cell_area

# Most elements (scan points x atoms) in one oracle temporary.
_BLOCK = 1 << 20


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


def cir_lower_fsum(t: float, r_i: float, params: PhysicalParams, geom: ReceiverGeometry, orders: int) -> float:
    """Response in the lower gamma form as an exactly rounded sum of ``orders`` terms, for r_i > 0.

    SciPy's ncx2 cdf returns 0 below about 1e-47; this sum does not.
    """
    axial, sigma, rho = _axial_sigma_rho(t, r_i, params, geom)
    k = np.arange(orders)
    terms = np.exp(k * math.log(rho) - rho - special.gammaln(k + 1.0)) * special.gammainc(k + 1.0, sigma)
    return axial * math.fsum(terms.tolist())


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
        raise SearchError(
            f"response vanishes at all {n} scan points of (0, {search_horizon}], {search_horizon / n:.3g} s apart; "
            "its peak lies past the horizon (widen it) or between two scan points (narrow it)"
        )
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


def neglected_tail(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    layout: GridLayout,
    t_m: float,
    gamma_form: str,
    k_max: int = 20,
) -> float:
    """Mean interference from sites beyond the outermost ring, from a response call of its own.

    Continuum approximation: site density 1/A_cell outside the enumerated
    region, integrated against the channel response at the decision time
    by the composite Simpson rule on 64 intervals.
    """
    r_out = layout.ring_sizes[-1][0]
    a_cell = cell_area(layout.kind, layout.pitch)
    width = math.sqrt(4.0 * params.D * t_m)
    r_end = r_out + 8.0 * width + 2.0 * params.s_rx
    if r_end <= r_out:
        return 0.0

    nodes = np.linspace(r_out, r_end, 65)
    weights = np.tile([2.0, 4.0], 33)[:65]  # Simpson: 1, 4, 2, 4, ..., 2, 4, 1
    weights[[0, -1]] = 1.0
    response = cir(t_m, nodes, params, geom, k_max=k_max, gamma_form=gamma_form)
    integrand = params.n_mol * response * 2.0 * math.pi * nodes / a_cell
    return float(np.sum(weights * integrand)) * (nodes[1] - nodes[0]) / 3.0


def scan_sites(kind: GridKind, pitch: float, n_interferers: int) -> GridLayout:
    """Nearest sites by a full lattice scan at ``pitch``, with no cache.

    Keeps every site within a radius grown until it holds n_interferers,
    groups the sites by their integer squared norm in pitch units, sorts
    each class by the polar angle of the site's position at this pitch,
    and takes whole classes in distance order until n_interferers is
    reached.
    """
    hexagonal = kind is GridKind.HEXAGONAL
    radius = math.sqrt((n_interferers + 1) * cell_area(kind, pitch) / math.pi) * 1.3 + 3.0 * pitch
    while True:
        q_max = (radius / pitch) ** 2
        half_width = math.ceil(1.5 * radius / pitch) + 2
        by_class: dict[int, list[tuple[float, int, int]]] = {}
        for xp in range(-half_width, half_width + 1):
            for yp in range(-half_width, half_width + 1):
                q = xp * xp + yp * yp + (xp * yp if hexagonal else 0)
                if (xp, yp) == (0, 0) or q > q_max:
                    continue
                if hexagonal:
                    x, y = pitch * (math.sqrt(3.0) / 2.0) * xp, pitch * (yp + 0.5 * xp)
                else:
                    x, y = pitch * xp, pitch * yp
                by_class.setdefault(q, []).append((math.atan2(y, x) % (2.0 * math.pi), xp, yp))
        if sum(map(len, by_class.values())) >= n_interferers:
            break
        radius *= 1.6

    sites = [TxSite(index=0, radial_distance=0.0, ring=0, lattice_coords=(0, 0))]
    ring_sizes = []
    for ring, q in enumerate(sorted(by_class), start=1):
        dist = pitch * math.sqrt(q)
        members = sorted(by_class[q])
        ring_sizes.append((dist, len(members)))
        for _, xp, yp in members:
            sites.append(TxSite(index=len(sites), radial_distance=dist, ring=ring, lattice_coords=(xp, yp)))
        if len(sites) - 1 >= n_interferers:
            break
    return GridLayout(kind=kind, pitch=pitch, sites=tuple(sites), ring_sizes=tuple(ring_sizes))


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


def _log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """ln sum exp along the last axis, shifted by the largest finite term of each row."""
    top = terms.max(axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(terms - top).sum(axis=-1)) + top[..., 0]


def _log_moments(phis, lam: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """ln sum_a w_a lam_a^phi e^-lam_a at each phi, with 0^0 = 1 at lam = 0, in blocks of phis."""
    phis = np.asarray(phis, dtype=float).reshape(-1)
    pos = lam > 0
    log_lam = np.log(np.where(pos, lam, 1.0))
    out = np.empty(phis.size)
    rows = max(1, _BLOCK // lam.size)
    for start in range(0, phis.size, rows):
        phi = phis[start : start + rows, None]
        score = np.where(pos, phi * log_lam - lam, np.where(phi == 0, 0.0, -np.inf))
        out[start : start + rows] = _log_sum_exp(score + log_w)
    return out


def _balances(phis, mu_s: float, spectrum, mu_n: float) -> np.ndarray:
    """ln moment of the bit-1 mixture minus that of the bit-0 mixture at each phi."""
    lhs = _log_moments(phis, mu_s + spectrum.values + mu_n, spectrum.log_weights)
    rhs = _log_moments(phis, spectrum.values + mu_n, spectrum.log_weights)
    with np.errstate(invalid="ignore"):
        return np.where(lhs == rhs, 0.0, np.where(np.isneginf(rhs), np.inf, lhs - rhs))


def atom_optimal_threshold(mu_s: float, spectrum, mu_n: float, theta_cap: int | None = None) -> int:
    """First integer count whose log-likelihood over the atoms favours bit 1."""
    if theta_cap is None:
        theta_cap = 10 * math.ceil(mu_s + spectrum.max_value + mu_n) + 50
    # the ln theta! of both likelihoods cancels
    flips = np.flatnonzero(_balances(np.arange(theta_cap + 1), mu_s, spectrum, mu_n) >= 0)
    if not flips.size:
        raise SearchError(f"no threshold up to {theta_cap} flips the likelihood ratio; raise theta_cap")
    return int(flips[0])


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


def atom_ml_decide(r: int, mu_s: float, spectrum, mu_n: float) -> int:
    """Maximum-likelihood bit decision for a count r, each likelihood a log-sum-exp over the atoms."""
    return 1 if _balances([r], mu_s, spectrum, mu_n)[0] >= 0 else 0


def atom_flip_set(mu_s: float, spectrum, mu_n: float, r_max: int | None = None) -> list[int]:
    """Counts r >= 1 whose atom ML decision differs from the one at r - 1, up to r_max.

    At an integer count the balance is the count log-likelihood ratio (the
    ln r! of both likelihoods cancels), so each decision is one sign of it;
    r = 0 decides 0, since P(0 | 1) = e^-mu_s P(0 | 0).
    """
    if r_max is None:
        r_max = 10 * math.ceil(mu_s + spectrum.max_value + mu_n) + 50
    decide = _balances(np.arange(r_max + 1), mu_s, spectrum, mu_n) >= 0
    decide[0] = False
    return (np.flatnonzero(decide[1:] != decide[:-1]) + 1).tolist()


def atom_balance(phi: float, mu_s: float, spectrum, mu_n: float) -> float:
    """ln E[lam^phi e^-lam] of the bit-1 mixture minus that of the bit-0 mixture, over the atoms."""
    return float(_balances([phi], mu_s, spectrum, mu_n)[0])


def atom_threshold_set(mu_s: float, spectrum, mu_n: float, phi_max: float | None = None) -> list[int]:
    """Likelihood-balance crossings with every scan point a log-sum-exp over the atoms, bisected to 1e-9.

    All scan points, a quarter apart up to phi_max, are summed in one array;
    bisection runs only inside an interval whose ends have opposite nonzero
    signs. An exact zero at a scan point is a root of its own.
    """
    if phi_max is None:
        phi_max = float(10 * math.ceil(mu_s + spectrum.max_value + mu_n) + 50)
    step = 0.25
    phis = np.minimum(step * np.arange(int(math.ceil(phi_max / step)) + 1), phi_max)
    vals = _balances(phis, mu_s, spectrum, mu_n)
    roots = phis[vals == 0].tolist()
    for i in np.flatnonzero((vals[:-1] != 0) & (vals[1:] != 0) & ((vals[:-1] > 0) != (vals[1:] > 0))).tolist():
        lo, hi, lo_val = phis[i], phis[i + 1], vals[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            mid_val = atom_balance(mid, mu_s, spectrum, mu_n)
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
    return sorted({max(1, math.ceil(root)) for root in roots})
