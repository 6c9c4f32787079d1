"""Independent reference computations used only by the test suite.

These deliberately take different routes than the library: the response
oracle integrates the free-space Gaussian concentration over the receiver
cylinder by adaptive quadrature (with the Bessel kernel the library never
evaluates), the error-probability oracles expand small sums by hand, and
the detection oracles evaluate every likelihood as a log-sum-exp over the
atoms of the collapsed interference spectrum, where the library works
from the convolved count distribution.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from mc_arelab.channel import PhysicalParams, ReceiverGeometry
from mc_arelab.errors import SearchError
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
