"""Detection at the reference receiver under statistically known interference.

The receiver observes a Poisson count whose mean depends on the desired
bit, on which interferers happened to transmit, and on background noise.
Interferers at equal distance are statistically identical, so every
likelihood comes from the ring basis, one (mean, count) pair per ring:
the exact count distribution is the convolution of Poisson noise, one
Binomial(count, 1/2)-mixed Poisson pmf per ring and, for a 1-bit, the
signal pmf, carried in log space and built once per configuration
(_CountDistribution). It gives the optimal threshold, the ML decision,
the threshold set (the counts where that decision flips) and, in perf,
the error curves. collapse_iui, one atom per multiplicity tuple across
rings, is the paper's interference spectrum; no decision reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParameterError, SearchError, check_elements, is_finite_real, is_integer
from .specfun import _CHUNK, _chernoff_support, _log_factorials, _log_poisson_pmf, _log_sum_exp

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

# Most atoms collapse_iui builds.
ATOM_CAP = 10**6


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


def collapse_iui(ring_basis) -> IuiSpectrum:
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
    if n_atoms > ATOM_CAP:
        raise ParameterError(
            f"collapse would produce {n_atoms} atoms (cap {ATOM_CAP}); "
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
    lgamma = _log_factorials(np.arange(count + 1))
    return lgamma[-1] - lgamma - lgamma[::-1] - count * math.log(2.0)


def _log_mixture(lams: np.ndarray, log_weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """ln sum_a w_a Poisson(lam_a; r) at each integer count r >= 0.

    The atoms are taken in blocks of at most _CHUNK elements, all built in
    one buffer with one ln r! row; each block's log-sum-exp is folded into
    the running value.
    """
    n = counts.size
    out = np.full(n, -math.inf)
    block = max(1, _CHUNK // n)
    log_norm = _log_factorials(counts)
    buffer = np.empty((min(block, lams.size), n))
    for start in range(0, lams.size, block):
        part = slice(start, start + block)
        terms = buffer[: len(lams[part])]
        _log_poisson_pmf(lams[part], counts, log_norm=log_norm, out=terms)
        terms += log_weights[part, None]
        np.logaddexp(out, _log_sum_exp(terms, axis=0), out=out)
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
    padded = np.full(size + b.size - 1, -math.inf)
    padded[b.size - 1 : b.size - 1 + a.size] = a
    step = padded.strides[0]
    windows = as_strided(padded, (size, b.size), (step, step), writeable=False)
    out = np.full(n, -math.inf)
    rows = max(1, _CHUNK // b.size)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        out[start:stop] = _log_sum_exp(windows[start:stop] + b[::-1], axis=1)
    return out


def _add_rings(log_pmf: np.ndarray, ring_basis) -> np.ndarray:
    """``log_pmf`` convolved with one Binomial(count, 1/2)-mixed Poisson(k cbar) log pmf per merged ring."""
    n = log_pmf.size
    for cbar, count in _merge_rings(ring_basis):
        ring = _log_mixture(cbar * np.arange(count + 1), _half_binomial_log_pmf(count), np.arange(n))
        log_pmf = _log_convolve(log_pmf, ring)
    return log_pmf


def _threshold_curves(theta_max: int, off: np.ndarray, on: np.ndarray):
    """(p_curve, q_curve) of the rule [r >= theta] for theta = 0..theta_max.

    The mass below theta is the running sum of ``off`` and ``on``, P(r | bit 0)
    and P(r | bit 1) from r = 0, held past their end.
    """

    def below(pmf: np.ndarray) -> np.ndarray:
        head = pmf[:theta_max]
        return np.cumsum(np.concatenate(([0.0], head, np.zeros(theta_max - head.size))))

    return np.clip(1.0 - below(off), 0.0, 1.0), np.clip(below(on), 0.0, 1.0)


def _check_means(mu_s: float, mu_n: float) -> None:
    if not (is_finite_real(mu_s) and mu_s > 0):
        raise ParameterError(f"mu_s must be positive and finite, got {mu_s!r}")
    if not (is_finite_real(mu_n) and mu_n >= 0):
        raise ParameterError(f"mu_n must be nonnegative and finite, got {mu_n!r}")


def _check_cbar_sum(cbar_sum: float) -> None:
    if not (is_finite_real(cbar_sum) and cbar_sum >= 0):
        raise ParameterError(f"cbar_sum must be nonnegative and finite, got {cbar_sum!r}")


def ml_decide(r: int, mu_s: float, ring_basis, mu_n: float) -> int:
    """Maximum-likelihood bit decision for a count r: 1 where P(r | 1) >= P(r | 0).

    It reads the decisions threshold_set reads (see _CountDistribution), so
    the two agree at every r; any r past the flip bound + 1 decides 1. It
    answers at any r where that bound can be indexed, and raises the
    ParameterError naming mu_s and mu_n wherever threshold_set raises.
    """
    if not is_integer(r) or r < 0:
        raise ParameterError(f"r must be a nonnegative integer, got {r!r}")
    counts = _CountDistribution(mu_s, ring_basis, mu_n)
    return 1 if r > counts.bound + 1 else int(counts.decisions[r])


def _crossing(mu_s: float, lam: float) -> float:
    """mu_s / ln(1 + mu_s / lam): the real count where Poisson(lam + mu_s) overtakes Poisson(lam)."""
    quotient = mu_s / lam
    if math.isinf(quotient):
        # a subnormal lam overflows the quotient; take its log from the logs of both means
        ratio = math.log(mu_s) - math.log(lam) + math.log1p(lam / mu_s)
    else:
        ratio = math.log1p(quotient)
    if ratio == 0:
        raise ParameterError(f"mu_s = {mu_s!r} is lost in the rounding of the bit-0 mean {lam!r} (interference and mu_n)")
    return mu_s / ratio


class _CountDistribution:
    """The received-count law of one configuration: the only build of the count pmfs.

    ``off`` and ``on``, ln P(r | bit 0) and ln P(r | bit 1) for r = 0..n-1,
    convolve the log pmfs of Poisson(mu_n) noise, of each merged ring's
    Binomial(count, 1/2)-mixed Poisson and, in ``on``, of Poisson(mu_s).

    ``bound`` is ceil(phi*), with phi* the crossing at the all-active mean
    lam_max = mu_n + cbar_sum. At count r, the Poisson(x + mu_s) pmf over
    the Poisson(x) pmf is exp(r ln(1 + mu_s / x) - mu_s), at least 1 from
    the crossing at x on, and that crossing grows with x. Every
    interference atom x lies at or below lam_max, so past phi*
    P(r | 1) >= P(r | 0): the optimal threshold and every count of the
    threshold set are at most ceil(phi*). So is the suboptimal threshold,
    the crossing at cbar_sum / 2 + mu_n. ``decisions`` holds the ML
    decision at r = 0..bound + 1, ``flips`` the counts where it changes.

    n = max(bound + 2, min(theta_max, support)): theta_max is 0 unless a
    reader asks for error curves, and R >= support has mass under e^-40 by
    the Chernoff bound on Poisson(mu_n + cbar_sum + mu_s), which dominates
    R. perf reads ``curves``, which hold their last value past the build.
    Each convolution output sums a window whose length follows n, so an
    entry's last bits move with n.
    """

    def __init__(self, mu_s: float, ring_basis, mu_n: float, theta_max: int = 0) -> None:
        _check_means(mu_s, mu_n)
        self.mu_s, self.mu_n = mu_s, mu_n
        merged = _merge_rings(ring_basis)
        self.cbar_sum = math.fsum(cbar * count for cbar, count in merged)
        lam_max = mu_n + self.cbar_sum
        self.bound = math.ceil(_crossing(mu_s, lam_max)) if lam_max > 0 else 0
        check_elements(self.bound + 2, f"the count pmf to the flip bound of mu_s = {mu_s!r} and mu_n = {mu_n!r}")
        n = max(self.bound + 2, min(theta_max, _chernoff_support(lam_max + mu_s, 40.0)))
        self.off = _add_rings(_log_poisson_pmf(np.float64(mu_n), np.arange(n)), merged)
        self.on = _log_convolve(self.off, _log_poisson_pmf(np.float64(mu_s), np.arange(n)))
        self.decisions = self.on[: self.bound + 2] >= self.off[: self.bound + 2]
        # P(0 | 1) = e^-mu_s P(0 | 0), so r = 0 decides 0 even where rounding ties its log pmfs
        self.decisions[0] = False
        self.flips = (np.flatnonzero(self.decisions[1:] != self.decisions[:-1]) + 1).tolist()

    def spec(self) -> DetectorSpec:
        """Both thresholds (theta_opt the first flip), the threshold-set size and the worst-case SINR."""
        if not self.flips:
            raise SearchError(f"no count up to {self.bound + 1} flips the likelihood ratio, past the bound {self.bound}")
        return DetectorSpec(
            theta_opt=self.flips[0],
            theta_sub=suboptimal_threshold(self.mu_s, self.cbar_sum, self.mu_n).theta,
            threshold_set_size=len(self.flips),
            sinr_worst=sinr_worst(self.mu_s, self.cbar_sum),
            cbar_sum=self.cbar_sum,
        )

    def curves(self, theta_max: int):
        """(p_curve, q_curve) of the rule [r >= theta] for theta = 0..theta_max (see _threshold_curves)."""
        return _threshold_curves(theta_max, np.exp(self.off), np.exp(self.on))


def optimal_threshold(mu_s: float, ring_basis, mu_n: float) -> int:
    """Smallest integer count at which deciding 1 becomes maximum likelihood.

    That is the first r with P(r | 1) >= P(r | 0) in the exact count
    distribution of the (cbar, count) ring basis, read up to one count
    past the bound of _CountDistribution.
    """
    return characterize(mu_s, ring_basis, mu_n).theta_opt


def threshold_set(mu_s: float, ring_basis, mu_n: float) -> list[int]:
    """The counts r >= 1 at which the maximum-likelihood decision flips.

    ML decides 1 where P(r | 1) >= P(r | 0), and 0 at r = 0. The set holds
    every r whose decision differs from the one at r - 1, read over
    r = 0..ceil(phi*) + 1 (see _CountDistribution), past which every count
    decides 1. One entry means ML detection is a single-threshold rule,
    and that entry is the optimal threshold.

    Limit: each decision compares two double-precision log pmfs, so where
    the exact log-likelihood ratio at a count k is within rounding of zero,
    k can decide either way and a flip moves by one count. On 1,500
    one-atom bases tuned to put the root of the ratio within a few ulps of
    a quarter-integer, 122 sets were off by one against 60-digit arithmetic
    (for example mu_s = 0.10370409686981134, mu_n = 14.948207698960324 gives
    [15] for the root 15.0000000000000068).
    """
    return _CountDistribution(mu_s, ring_basis, mu_n).flips


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
    return _CountDistribution(mu_s, ring_basis, mu_n).spec()
