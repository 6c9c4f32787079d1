"""Detection at the reference receiver under statistically known interference.

The receiver observes a Poisson count whose mean depends on the desired
bit, on which interferers happened to transmit, and on background noise.
Interferers at equal distance are statistically identical, so every
likelihood comes from the ring basis, one (mean, count) pair per ring:
the exact count distribution is the convolution of Poisson noise, one
Binomial(count, 1/2)-mixed Poisson pmf per ring and, for a 1-bit, the
signal pmf, carried in log space. It gives the optimal threshold, the ML
decision and, in perf, the error curves. The threshold set needs the
likelihood balance at real exponents; it is read from the count
distribution at integers and bracketed by convexity in between. Only a
scan point those brackets cannot sign falls back to the atoms of
collapse_iui, one per multiplicity tuple across rings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, SearchError, is_finite_real, is_integer
from .specfun import _log_factorials, _log_poisson_pmf, log_sum_exp

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

# Largest temporary, in elements, of a Poisson mixture or a convolution.
_CHUNK = 1 << 15

# Scan points of the threshold-set balance whose bounds do not clear zero
# by this margin are summed over the atoms, so rounding cannot flip a sign.
BALANCE_RECHECK = 1e-9


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
    cbar_sum: float


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
    lgamma = _log_factorials(count)
    return lgamma[-1] - lgamma - lgamma[::-1] - count * math.log(2.0)


def _log_sum_exp(terms: np.ndarray, axis: int) -> np.ndarray:
    """ln sum exp along one axis, -inf where no term is finite; overwrites ``terms``."""
    top = terms.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    terms -= top
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        return np.log(terms.sum(axis=axis)) + np.squeeze(top, axis)


def _log_mixture(lams: np.ndarray, log_weights: np.ndarray, n: int) -> np.ndarray:
    """ln sum_a w_a Poisson(r; lam_a) at r = 0..n-1.

    The atoms are taken in blocks, so no temporary exceeds _CHUNK elements;
    each block's log-sum-exp is folded into the running value.
    """
    out = np.full(n, -math.inf)
    block = max(1, _CHUNK // n)
    for start in range(0, lams.size, block):
        part = slice(start, start + block)
        terms = _log_poisson_pmf(lams[part], n - 1)
        terms += log_weights[part, None]
        out = np.logaddexp(out, _log_sum_exp(terms, axis=0))
    return out


def _log_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ln sum_j e^(a_j + b_(r-j)) for r = 0..a.size-1, from log pmfs a and b.

    Trailing -inf entries (no mass) are dropped first. Each output term is
    a log-sum-exp over one sliding window, summed in a fixed order without
    BLAS; the windows are taken in blocks of at most _CHUNK elements.
    """
    n = a.size
    a, b = (x[: np.flatnonzero(x > -math.inf)[-1] + 1] for x in (a, b))
    if a.size < b.size:
        a, b = b, a
    size = min(n, a.size + b.size - 1)
    padded = np.concatenate((np.full(b.size - 1, -math.inf), a, np.full(size - a.size, -math.inf)))
    windows = sliding_window_view(padded, b.size)
    out = np.full(n, -math.inf)
    rows = max(1, _CHUNK // b.size)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        out[start:stop] = _log_sum_exp(windows[start:stop] + b[::-1], axis=1)
    return out


def _count_pmfs(mu_s: float, ring_basis, mu_n: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """ln P(r | bit 0) and ln P(r | bit 1) for r = 0..n-1 (n >= 1).

    The received count is Poisson(mu_n) noise, plus per merged ring of
    ``count`` interferers with mean ``cbar`` a Poisson(k cbar) term with
    k ~ Binomial(count, 1/2), plus Poisson(mu_s) when the bit is 1. The
    terms are independent, so the pmf is the convolution of one pmf per
    term, carried in log space: no entry underflows, and an entry is -inf
    only where the count has no mass. A longer build gives the same
    first n entries in value, but not bit for bit: each convolution output
    sums a window whose length follows n, so its rounding moves with n.
    """
    point = np.zeros(1)
    off = _log_mixture(np.array([mu_n]), point, n)
    for cbar, count in _merge_rings(ring_basis):
        ring = _log_mixture(cbar * np.arange(count + 1), _half_binomial_log_pmf(count), n)
        off = _log_convolve(off, ring)
    on = _log_convolve(off, _log_mixture(np.array([mu_s]), point, n))
    return off, on


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


def _check_cbar_sum(cbar_sum: float) -> None:
    if not (is_finite_real(cbar_sum) and cbar_sum >= 0):
        raise ParameterError(f"cbar_sum must be nonnegative and finite, got {cbar_sum!r}")


def ml_decide(r: int, mu_s: float, ring_basis, mu_n: float) -> int:
    """Maximum-likelihood bit decision for a count r: 1 where P(r | 1) >= P(r | 0)."""
    if not is_integer(r) or r < 0:
        raise ParameterError(f"r must be a nonnegative integer, got {r!r}")
    _check_means(mu_s, mu_n)
    off, on = _count_pmfs(mu_s, ring_basis, mu_n, int(r) + 1)
    return 1 if on[-1] >= off[-1] else 0


def _crossing(mu_s: float, lam: float) -> float:
    """mu_s / ln(1 + mu_s / lam): the real count where Poisson(lam + mu_s) overtakes Poisson(lam)."""
    return mu_s / math.log1p(mu_s / lam)


def _balance_bounds(off: np.ndarray, on: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the likelihood balance B at each phi >= 0.

    B(phi) = ln M_1(phi) - ln M_0(phi), with M_b(phi) = E[lam^phi e^-lam]
    over bit b's mixture of Poisson means. M_b(k) = k! P(k | b) at an
    integer k, where both bounds are the count log-likelihood ratio. ln M_b
    is convex for phi > 0, a log-sum-exp of affine functions, so at
    phi = m + f, with m = ceil(phi) - 1 and 0 < f <= 1, the chord through m
    and m + 1 bounds it from above and the larger secant extension of
    (m - 1, m) and (m + 1, m + 2) from below (only the right one at m = 0).
    An integer phi, the end of its unit interval, reads no count past
    phi + 1. A lam = 0 atom (mu_n = 0) adds to M_0(0) alone, which keeps
    the chord above. The bit-0 mixture needs an atom with lam > 0, so that
    every ln M_b(k) is finite. ``off`` and ``on`` are the log count pmfs of
    both bits, to at least ceil(max phi) + 2 counts.
    """
    m = np.maximum(np.ceil(phis) - 1, 0).astype(np.int64)
    f = phis - m

    def bounds(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        chord = (1 - f) * g[m] + f * g[m + 1]
        right = g[m + 1] - (1 - f) * (g[m + 2] - g[m + 1])
        left = g[m] + f * (g[m] - g[np.maximum(m - 1, 0)])
        return np.where(m >= 1, np.maximum(left, right), right), chord

    (lo_0, up_0), (lo_1, up_1) = (bounds(pmf + _log_factorials(pmf.size - 1)) for pmf in (off, on))
    lo, hi = lo_1 - up_0, up_1 - lo_0
    exact = phis == np.floor(phis)
    k = phis[exact].astype(np.int64)
    lo[exact] = hi[exact] = on[k] - off[k]
    return lo, hi


class _CountDistribution:
    """The received-count distribution of one configuration, built once to the flip bound.

    ``bound`` is ceil(phi*), with phi* the crossing at the all-active mean
    lam_max = mu_n + cbar_sum. At exponent phi, the Poisson(x + mu_s) term
    over the Poisson(x) term is exp(phi ln(1 + mu_s / x) - mu_s), at least
    1 from the crossing at x on, and that crossing grows with x. Every
    interference atom x lies at or below lam_max, so past phi* both
    P(r | 1) >= P(r | 0) and the balance is positive: the optimal
    threshold and the ceiling of every crossing of the threshold set are
    at most ceil(phi*). So is the suboptimal threshold, the crossing at
    cbar_sum / 2 + mu_n. ``off`` and ``on``, ln P(r | bit 0) and
    ln P(r | bit 1) for r = 0..bound + 2, answer all of these questions.
    """

    def __init__(self, mu_s: float, ring_basis, mu_n: float) -> None:
        _check_means(mu_s, mu_n)
        self.mu_s, self.mu_n = mu_s, mu_n
        self.merged = _merge_rings(ring_basis)
        self.cbar_sum = math.fsum(cbar * count for cbar, count in self.merged)
        lam_max = mu_n + self.cbar_sum
        self.bound = math.ceil(_crossing(mu_s, lam_max)) if lam_max > 0 else 0
        self.off, self.on = _count_pmfs(mu_s, self.merged, mu_n, self.bound + 3)

    def theta_opt(self) -> int:
        """The first r with P(r | 1) >= P(r | 0), among the first bound + 2 counts."""
        n = self.bound + 2
        flips = np.flatnonzero(self.on[:n] >= self.off[:n])
        if not flips.size:
            raise SearchError(f"no count up to {n - 1} flips the likelihood ratio, past the bound {self.bound}")
        return int(flips[0])

    def threshold_set(self) -> list[int]:
        """The scan of threshold_set."""
        if self.mu_n == 0 and all(cbar == 0 for cbar, _ in self.merged):
            # the bit-0 count is surely 0: B(0) = -mu_s and B = +inf beyond
            return [1]

        phis = 0.25 * np.arange(4 * (self.bound + 1) + 1)
        lo, hi = _balance_bounds(self.off, self.on, phis)
        positive, negative = lo > BALANCE_RECHECK, hi < -BALANCE_RECHECK
        zero = np.zeros_like(positive)
        ceil = np.maximum(np.ceil(phis), 1).astype(np.int64)
        starts = np.flatnonzero(np.diff(ceil, prepend=0))

        def in_interval(flags: np.ndarray) -> np.ndarray:
            """Per unit interval: any flag at its points or at the point before them."""
            hit = np.logical_or.reduceat(flags, starts)
            hit[1:] |= flags[starts[1:] - 1]
            return hit

        unsigned = ~(positive | negative)
        open_ = in_interval(unsigned) & ~(in_interval(positive) & in_interval(negative))
        needed = open_[ceil - 1]
        needed[starts[1:] - 1] |= open_[1:]
        points = np.flatnonzero(unsigned & needed)
        if points.size:
            try:
                spectrum = collapse_iui(self.merged)
            except ParameterError as exc:
                raise SearchError(f"the likelihood balance at phi = {phis[points[0]]} needs the atoms: {exc}") from exc
            lam_on = self.mu_s + spectrum.values + self.mu_n
            lam_off = spectrum.values + self.mu_n
            for i in points.tolist():
                phi = float(phis[i])
                lhs = log_sum_exp(_log_poisson_score(phi, lam_on) + spectrum.log_weights)
                rhs = log_sum_exp(_log_poisson_score(phi, lam_off) + spectrum.log_weights)
                # a zero balance counts as not positive, as in a sign change
                positive[i], negative[i], zero[i] = lhs > rhs, not lhs > rhs, lhs == rhs
        crossed = (in_interval(positive) & in_interval(negative)) | np.logical_or.reduceat(zero, starts)
        return ceil[starts][crossed].tolist()


def optimal_threshold(mu_s: float, ring_basis, mu_n: float) -> int:
    """Smallest integer count at which deciding 1 becomes maximum likelihood.

    That is the first r with P(r | 1) >= P(r | 0) in the exact count
    distribution of the (cbar, count) ring basis, read up to one count
    past the bound of _CountDistribution.
    """
    return _CountDistribution(mu_s, ring_basis, mu_n).theta_opt()


def threshold_set(mu_s: float, ring_basis, mu_n: float) -> list[int]:
    """Integer ceilings of all real crossings of the likelihood balance.

    The balance compares both likelihood mixtures at a real exponent phi,
    on a 0.25-step scan from 0 to one past the flip bound ceil(phi*). The
    extra unit interval keeps a crossing whose rounded balance at the bound
    itself is not yet positive. A crossing between two scan points has the
    ceiling of the later one, as they lie in one unit interval, so k is in
    the set iff the balance is zero at a scan point of (k - 1, k] or its
    sign changes along that interval's points and the point before them
    (phi = 0 joins k = 1). A single crossing is the typical case. The
    signs come from the bounds of _balance_bounds. A point whose bounds do
    not clear zero by BALANCE_RECHECK is summed over the interference
    atoms, unless its intervals already show both signs; if the atoms do
    not fit, a SearchError names the point.
    """
    return _CountDistribution(mu_s, ring_basis, mu_n).threshold_set()


def suboptimal_threshold(mu_s: float, cbar_sum: float, mu_n: float) -> SuboptimalThreshold:
    """Closed-form threshold from the average-interference approximation."""
    _check_means(mu_s, mu_n)
    _check_cbar_sum(cbar_sum)
    denom_mean = 0.5 * cbar_sum + mu_n
    if denom_mean == 0.0:
        # the log argument diverges and the raw threshold collapses to 0
        return SuboptimalThreshold(theta=1, raw=0.0, degenerate=True)
    raw = _crossing(mu_s, denom_mean)
    return SuboptimalThreshold(theta=math.ceil(raw), raw=raw, degenerate=False)


def sinr_worst(mu_s: float, cbar_sum: float) -> float:
    """Signal mean over the all-interferers-active mean; inf when no IUI."""
    _check_means(mu_s, 0.0)
    _check_cbar_sum(cbar_sum)
    if cbar_sum == 0.0:
        return math.inf
    return mu_s / cbar_sum


def characterize(mu_s: float, ring_basis, mu_n: float) -> DetectorSpec:
    """Bundle the per-configuration detector quantities the CLI reports, from one count distribution."""
    counts = _CountDistribution(mu_s, ring_basis, mu_n)
    return DetectorSpec(
        theta_opt=counts.theta_opt(),
        theta_sub=suboptimal_threshold(mu_s, counts.cbar_sum, mu_n).theta,
        threshold_set_size=len(counts.threshold_set()),
        sinr_worst=sinr_worst(mu_s, counts.cbar_sum),
        cbar_sum=counts.cbar_sum,
    )
