"""Detection at the reference receiver under statistically known interference.

The receiver observes a Poisson count whose mean depends on the desired
bit, on which interferers happened to transmit, and on background noise.
Interferers at equal distance are statistically identical, so the
2^(N-1) interference patterns collapse to one atom per multiplicity
tuple across rings. The integer-count statistics (the optimal threshold
and, in perf, the error curves) come from the exact count distribution,
a convolution of one short pmf per ring, so they take the ring basis
itself; only the real-exponent threshold set and the ML decision need the
atoms, as likelihood sums in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, SearchError, is_finite_real
from .specfun import _log_poisson_pmf, log_sum_exp

__all__ = [
    "DetectorSpec",
    "IuiSpectrum",
    "SuboptimalThreshold",
    "characterize",
    "collapse_iui",
    "ml_decide",
    "optimal_threshold",
    "sinr_worst",
    "suboptimal_threshold",
    "threshold_set",
]

RING_MERGE_REL = 1e-9

# Largest temporary, in elements, of a Poisson-mixture pmf.
_CHUNK = 1 << 15

# Scan points of the threshold-set balance within this distance of zero
# are recomputed exactly, so the ladder's rounding cannot flip a sign.
BALANCE_RECHECK = 1e-9
# Largest drift, in nats, of any ladder term between two exact rebuilds.
# A term within 40 nats of the largest then never left the normal double
# range (e^-708) on its way there, so it kept full precision.
LADDER_LOG_RANGE = 300.0


@dataclass(frozen=True)
class IuiSpectrum:
    """Distribution of the total interference mean, one atom per outcome."""

    values: np.ndarray
    log_weights: np.ndarray
    ring_basis: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if self.values.shape != self.log_weights.shape or self.values.ndim != 1:
            raise ParameterError("values and log_weights must be matching 1D arrays")
        if self.values.size == 0:
            raise ParameterError("a spectrum needs at least the empty-interference atom")
        if np.any(self.values < 0):
            raise ParameterError("atom values must be nonnegative")
        norm = float(np.exp(self.log_weights - self.log_weights.max()).sum())
        norm = math.exp(self.log_weights.max()) * norm
        if abs(norm - 1.0) > 1e-10:
            raise ParameterError(f"atom weights sum to {norm}, expected 1")
        self.values.setflags(write=False)
        self.log_weights.setflags(write=False)

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def cbar_sum(self) -> float:
        return math.fsum(cbar * count for cbar, count in self.ring_basis)


@dataclass(frozen=True)
class SuboptimalThreshold:
    """Closed-form threshold: integer value, raw real value, degeneracy flag."""

    theta: int
    raw: float
    degenerate: bool


@dataclass(frozen=True)
class DetectorSpec:
    """Detector characterization reported per configuration."""

    theta_opt: int
    theta_sub: int
    threshold_set_size: int
    sinr_worst: float


def _merge_rings(ring_basis) -> list[tuple[float, int]]:
    merged: list[list[float | int]] = []
    for cbar, count in ring_basis:
        if not (is_finite_real(cbar) and cbar >= 0):
            raise ParameterError(f"ring mean must be nonnegative and finite, got {cbar!r}")
        cbar = float(cbar)
        if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
            raise ParameterError(f"ring multiplicity must be a positive integer, got {count!r}")
        for entry in merged:
            ref = float(entry[0])
            if abs(cbar - ref) <= RING_MERGE_REL * max(cbar, ref):
                entry[1] = int(entry[1]) + int(count)
                break
        else:
            merged.append([cbar, int(count)])
    return [(float(c), int(n)) for c, n in merged]


def collapse_iui(ring_basis, atom_cap: int = 10**6) -> IuiSpectrum:
    """Collapse per-interferer on/off patterns into per-ring activity counts.

    Rings whose means agree within 1e-9 relative are merged first. Each
    atom is one tuple of per-ring active counts; its weight is the product
    of Binomial(n_j, 1/2) masses, accumulated in log space. The result is
    exactly the distribution induced by exhaustive pattern enumeration.
    """
    merged = _merge_rings(ring_basis)
    n_atoms = 1
    for _, count in merged:
        n_atoms *= count + 1
    if n_atoms > atom_cap:
        raise ParameterError(
            f"collapse would produce {n_atoms} atoms (cap {atom_cap}); "
            "merge nearby rings or raise the ring merge tolerance"
        )

    values = np.zeros(1)
    log_weights = np.zeros(1)
    for cbar, count in merged:
        k = np.arange(count + 1)
        values = (values[:, None] + cbar * k[None, :]).ravel()
        log_weights = (log_weights[:, None] + _half_binomial_log_pmf(count)[None, :]).ravel()
    return IuiSpectrum(values=values, log_weights=log_weights, ring_basis=tuple(merged))


def _half_binomial_log_pmf(count: int) -> np.ndarray:
    """ln Binomial(count, k; 1/2) for k = 0..count: how many of a ring are active."""
    lgamma = np.array([math.lgamma(i + 1.0) for i in range(count + 1)])
    return lgamma[-1] - lgamma - lgamma[::-1] - count * math.log(2.0)


def _poisson_mixture_pmf(lams: np.ndarray, log_weights: np.ndarray, n: int) -> np.ndarray:
    """sum_a w_a Poisson(r; lam_a) at r = 0..n-1, trailing zeros trimmed.

    The atoms are taken in blocks, so no temporary exceeds _CHUNK elements;
    each block's terms are added to the running sum one atom after the
    other, the order of a single sum over all atoms.
    """
    pos = lams > 0
    pos_lams, pos_weights = lams[pos], log_weights[pos]
    out = np.zeros(n)
    block = max(1, _CHUNK // n)
    for start in range(0, pos_lams.size, block):
        part = slice(start, start + block)
        terms = np.exp(_log_poisson_pmf(pos_lams[part], n - 1) + pos_weights[part, None])
        out = np.add.reduce(np.concatenate((out[None], terms)), axis=0)
    out[0] += np.exp(log_weights[~pos]).sum()
    return _trim(out)


def _trim(pmf: np.ndarray) -> np.ndarray:
    """pmf without its trailing zeros (entries that underflowed)."""
    nonzero = np.flatnonzero(pmf)
    return pmf[: nonzero[-1] + 1] if nonzero.size else pmf[:0]


def _convolve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the convolution of a and b, trailing zeros trimmed.

    Each output term is a dot product of b with a window of a, summed by
    einsum in a fixed order; np.convolve would hand the sums to BLAS.
    """
    if a.size == 0 or b.size == 0:
        return np.zeros(0)
    if a.size < b.size:
        a, b = b, a
    size = min(n, a.size + b.size - 1)
    padded = np.concatenate((np.zeros(b.size - 1), a, np.zeros(max(0, size - a.size))))
    windows = sliding_window_view(padded, b.size)[:size]
    return _trim(np.einsum("ij,j->i", windows, b[::-1]))


def _count_pmfs(mu_s: float, ring_basis, mu_n: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P(r | bit 0) and P(r | bit 1) for r = 0..n-1 (n >= 1).

    The received count is Poisson(mu_n) noise, plus per merged ring of
    ``count`` interferers with mean ``cbar`` a Poisson(k cbar) term with
    k ~ Binomial(count, 1/2), plus Poisson(mu_s) when the bit is 1. The
    terms are independent, so the pmf is the convolution of one short
    pmf per term. Entries beyond a pmf's double-precision support are 0.
    """
    off = _poisson_mixture_pmf(np.array([mu_n]), np.zeros(1), n)
    for cbar, count in _merge_rings(ring_basis):
        ring = _poisson_mixture_pmf(cbar * np.arange(count + 1), _half_binomial_log_pmf(count), n)
        off = _convolve(off, ring, n)
    on = _convolve(off, _poisson_mixture_pmf(np.array([mu_s]), np.zeros(1), n), n)
    return np.pad(off, (0, n - off.size)), np.pad(on, (0, n - on.size))


def _log_poisson_score(phi: float, lam: np.ndarray) -> np.ndarray:
    """phi ln(lam) - lam elementwise, with the 0^0 = 1 convention at lam = 0."""
    out = np.full(lam.shape, -math.inf)
    pos = lam > 0
    out[pos] = phi * np.log(lam[pos]) - lam[pos]
    if phi == 0:
        out[~pos] = 0.0
    return out


def _check_means(mu_s: float, mu_n: float) -> None:
    if not (is_finite_real(mu_s) and mu_s > 0):
        raise ParameterError(f"mu_s must be positive and finite, got {mu_s!r}")
    if not (is_finite_real(mu_n) and mu_n >= 0):
        raise ParameterError(f"mu_n must be nonnegative and finite, got {mu_n!r}")


def ml_decide(r: int, mu_s: float, spectrum: IuiSpectrum, mu_n: float) -> int:
    """Maximum-likelihood bit decision for an observed count r."""
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or r < 0:
        raise ParameterError(f"r must be a nonnegative integer, got {r!r}")
    _check_means(mu_s, mu_n)
    r = int(r)
    on = log_sum_exp(_log_poisson_score(r, mu_s + spectrum.values + mu_n) + spectrum.log_weights)
    off = log_sum_exp(_log_poisson_score(r, spectrum.values + mu_n) + spectrum.log_weights)
    return 1 if on >= off else 0


def optimal_threshold(
    mu_s: float,
    ring_basis,
    mu_n: float,
    theta_cap: int | None = None,
) -> int:
    """Smallest integer count at which deciding 1 becomes maximum likelihood.

    That is the first r <= theta_cap with P(r | 1) >= P(r | 0) in the
    exact count distribution of the (cbar, count) ring basis; the default
    cap follows from the all-interferers-active mean. Where the bit-0 count
    has mass at every r, a count at which both probabilities are below the
    smallest normal double decides nothing: below the bulk of the
    distribution it is skipped, and above it the ratio is lost, so a
    SearchError names that count rather than a later r being returned.
    """
    _check_means(mu_s, mu_n)
    merged = _merge_rings(ring_basis)
    all_active = sum(cbar * count for cbar, count in merged)
    if theta_cap is None:
        theta_cap = 10 * math.ceil(mu_s + all_active + mu_n) + 50
    if theta_cap < 1:
        raise ParameterError(f"theta_cap must be >= 1, got {theta_cap}")
    off, on = _count_pmfs(mu_s, merged, mu_n, theta_cap + 1)
    flips = on >= off
    lost = np.zeros_like(flips)
    if mu_n > 0 or all_active > 0:
        tiny = np.finfo(float).tiny
        underflow = (on < tiny) & (off < tiny)
        flips &= ~underflow
        lost = underflow & np.maximum.accumulate(~underflow)
    end = int(np.argmax(flips)) if flips.any() else theta_cap + 1
    if lost[:end].any():
        r = int(np.argmax(lost))
        raise SearchError(
            f"the count distribution underflows at r = {r} before the likelihood ratio flips"
        )
    if end > theta_cap:
        raise SearchError(f"no threshold up to {theta_cap} flips the likelihood ratio; raise theta_cap")
    return end


def threshold_set(
    mu_s: float,
    spectrum: IuiSpectrum,
    mu_n: float,
    phi_max: float | None = None,
) -> list[int]:
    """Integer ceilings of all real crossings of the likelihood balance.

    The balance function compares both likelihood mixtures at a real
    exponent, where the count distribution has no value, so it is summed
    over the atoms. Its sign changes are bracketed on a 0.25-step scan and
    bisected to 1e-9. A single crossing is the typical case. The scan
    comes from one multiplicative ladder per mixture; scan points within
    BALANCE_RECHECK of zero are recomputed exactly, as is every
    bisection point.
    """
    _check_means(mu_s, mu_n)
    if phi_max is None:
        phi_max = float(10 * math.ceil(mu_s + spectrum.max_value + mu_n) + 50)
    if phi_max < 1:
        raise ParameterError(f"phi_max must be >= 1, got {phi_max}")

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
    n_steps = int(math.ceil(phi_max / step))
    scan = _log_mixture_ladder(lam_on, log_w, step, n_steps) - _log_mixture_ladder(
        lam_off, log_w, step, n_steps
    )
    prev_phi = 0.0
    prev_val = balance(0.0)
    if prev_val == 0.0:
        roots.append(0.0)
    for i in range(1, n_steps + 1):
        phi = min(i * step, phi_max)
        val = float(scan[i - 1])
        # an infinite scan value is exact: it means the bit-0 mixture has
        # no atom with lam > 0, which balance() scores as -inf too
        if phi != i * step or not abs(val) > BALANCE_RECHECK:
            val = balance(phi)
        if val == 0.0:
            roots.append(phi)
        elif (val > 0) != (prev_val > 0):
            lo, hi = prev_phi, phi
            lo_val = prev_val
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

    out = sorted({max(1, math.ceil(root)) for root in roots})
    return out


def _log_mixture_ladder(lam: np.ndarray, log_w: np.ndarray, step: float, n_steps: int) -> np.ndarray:
    """ln sum_a w_a lam_a^phi e^-lam_a at phi = i * step, for i = 1..n_steps.

    From one phi to the next every term is multiplied by lam_a^step, so
    the terms are carried as one vector: one multiply and one sum per
    step. They are rebuilt from their exact log scores every ``block``
    steps, so that no term drifts by more than LADDER_LOG_RANGE nats in
    between. Atoms with lam = 0 add nothing at phi > 0 and are dropped.
    """
    out = np.full(n_steps, -math.inf)
    pos = lam > 0
    lam, log_w = lam[pos], log_w[pos]
    if lam.size == 0:
        return out
    log_lam = np.log(lam)
    ratio = np.exp(step * log_lam)
    drift = step * float(np.abs(log_lam).max())
    block = n_steps if drift == 0.0 else max(1, min(n_steps, int(LADDER_LOG_RANGE / drift)))
    for start in range(0, n_steps, block):
        score = (start + 1) * step * log_lam - lam + log_w
        top = float(score.max())
        terms = np.exp(score - top)
        out[start] = top + math.log(float(terms.sum()))
        for i in range(start + 1, min(start + block, n_steps)):
            terms *= ratio
            out[i] = top + math.log(float(terms.sum()))
    return out


def suboptimal_threshold(mu_s: float, cbar_sum: float, mu_n: float) -> SuboptimalThreshold:
    """Closed-form threshold from the average-interference approximation."""
    _check_means(mu_s, mu_n)
    if cbar_sum < 0:
        raise ParameterError(f"cbar_sum must be nonnegative, got {cbar_sum}")
    denom_mean = 0.5 * cbar_sum + mu_n
    if denom_mean == 0.0:
        # the log argument diverges and the raw threshold collapses to 0
        return SuboptimalThreshold(theta=1, raw=0.0, degenerate=True)
    raw = mu_s / math.log1p(mu_s / denom_mean)
    return SuboptimalThreshold(theta=math.ceil(raw), raw=raw, degenerate=False)


def sinr_worst(mu_s: float, cbar_sum: float) -> float:
    """Signal mean over the all-interferers-active mean; inf when no IUI."""
    _check_means(mu_s, 0.0)
    if cbar_sum < 0:
        raise ParameterError(f"cbar_sum must be nonnegative, got {cbar_sum}")
    if cbar_sum == 0.0:
        return math.inf
    return mu_s / cbar_sum


def characterize(
    mu_s: float,
    spectrum: IuiSpectrum,
    mu_n: float,
    theta_cap: int | None = None,
    phi_max: float | None = None,
) -> DetectorSpec:
    """Bundle the per-configuration detector quantities the CLI reports."""
    theta_opt = optimal_threshold(mu_s, spectrum.ring_basis, mu_n, theta_cap=theta_cap)
    sub = suboptimal_threshold(mu_s, spectrum.cbar_sum, mu_n)
    thresholds = threshold_set(mu_s, spectrum, mu_n, phi_max=phi_max)
    return DetectorSpec(
        theta_opt=theta_opt,
        theta_sub=sub.theta,
        threshold_set_size=len(thresholds),
        sinr_worst=sinr_worst(mu_s, spectrum.cbar_sum),
    )
