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

The count laws of many configurations (a sweep's whole axis in perf)
are sized first and then built in groups of bounded size (_count_block),
each by one set of array calls on (points, counts) arrays, padded past
each point's own count range (_build_block). Every mixture and
convolution sums its terms along a non-innermost axis, which NumPy adds
one row at a time in a fixed order, and padding adds exact zeros: each
point's log pmfs are the same bits in any group and at any build length.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


# Most atoms of a Poisson mixture summed in one group; more are split into groups folded in by logaddexp.
_ATOM_GROUP = 256
# Most columns (counts) of one chunk of a Poisson mixture.
_MIXTURE_COLUMNS = 1024
# Most entries (points x counts) of the log pmfs built together, unless one point has more.
_GROUP_ENTRIES = 2048


def _columns(n: int, width: int):
    """Slices of at most ``width`` >= 2 columns covering 0..n-1, none of them one column wide unless n is 1."""
    start = 0
    while start < n:
        stop = n if n - start - width <= 1 else start + width
        yield slice(start, stop)
        start = stop


def _log_mixtures(lams: np.ndarray, log_weights: np.ndarray, counts: np.ndarray, log_norm: np.ndarray) -> np.ndarray:
    """ln sum_a w_(a,p) Poisson(lam_(a,p); r) at each count r of each point p, as a (points, counts) array.

    ``lams`` and ``log_weights`` hold one row per atom and one column per
    point; log weights may broadcast across points. ``log_norm`` holds
    ln r! of each count, formed once by the caller. The atoms run along
    axis 0 of each temporary, which NumPy sums one row at a time, in atom
    order, while the other axes hold at least two elements (it sums a lone
    column pairwise); so the columns are taken in chunks of at most
    _MIXTURE_COLUMNS and _CHUNK terms but at least two wide. Up to
    _ATOM_GROUP atoms are summed in one group, whatever the count range;
    trailing atoms of weight -inf add exact zeros, so a point's bits do not
    depend on n or on how many atoms the other points have. More atoms
    (the tally-tree leaves of montecarlo) are taken in groups of _CHUNK
    terms a chunk, folded in by logaddexp.
    """
    atoms, points = lams.shape
    out = np.empty((points, counts.size))
    group = atoms if atoms <= _ATOM_GROUP else max(1, _CHUNK // (points * min(counts.size, _MIXTURE_COLUMNS)))
    width = max(2, min(_MIXTURE_COLUMNS, _CHUNK // (group * points)))
    for first in range(0, atoms, group):
        part = slice(first, first + group)
        for cols in _columns(counts.size, width):
            terms = _log_poisson_pmf(lams[part], counts[cols], log_norm=log_norm[cols])
            terms += log_weights[part, :, None]
            sums = _log_sum_exp(terms, axis=0)
            # freed before the next chunk's terms are formed
            del terms
            out[:, cols] = sums if first == 0 else np.logaddexp(out[:, cols], sums)
    return out


class _Spans(NamedTuple):
    """The spans of factor indices of a convolution over rows of given sizes (see _spans)."""

    rows: np.ndarray
    depth: int
    size: int


def _spans(sizes: list) -> _Spans:
    """(live, first, stop) of each span of factor indices j = first..stop-1 of _log_convolve.

    ``sizes`` holds each row's own n, longest first. A span takes the rows
    still live at j = first and the columns r = first..n-1 (the terms at
    r < j are zeros), and at most _CHUNK // 2 terms with the carried row
    of _log_convolve, or else a single j. ``depth`` is the most js of a
    span and ``size`` the most elements of a span with its carried row.
    The spans of a large n are many, so they are kept in one int array.
    """
    n = sizes[0]
    shorter = [-size for size in sizes]
    rows = []
    first = depth = size = 0
    while first < n:
        live = bisect.bisect_left(shorter, -first)
        stop = min(n, first + max(1, _CHUNK // 2 // (live * (n - first)) - 1))
        rows += live, first, stop
        depth = max(depth, stop - first)
        size = max(size, (1 + stop - first) * live * (n - first))
        first = stop
    return _Spans(np.array(rows).reshape(-1, 3), depth, size)


def _log_convolve(log_pmfs: np.ndarray, factor: np.ndarray, spans: _Spans) -> np.ndarray:
    """ln sum_j e^(log_pmfs_(p,r-j) + factor_(p,j)) for r = 0..n-1 of each row p of two (points, n) log pmfs.

    ``spans`` (_spans) follow each row's own n; entries past it come out
    unspecified. The factor's index j runs along axis 0 of every
    temporary, and each entry sums its terms in increasing j, one row at a
    time: a first pass over the spans of j takes the max shift, a second
    the sum, each span carrying the running sum in as its row 0. A term
    past r or past a row's n is an exact zero, so each entry's bits depend
    on neither n nor the other rows. The spans share one buffer of at most
    _CHUNK // 2 elements (or two rows), beside NumPy's ufunc buffers of a
    broadcast (at most 2 x np.getbufsize() elements).
    """
    points, n = log_pmfs.shape
    depth = spans.depth
    padded = np.empty((points, depth - 1 + n))
    padded[:, : depth - 1] = -math.inf
    padded[:, depth - 1 :] = log_pmfs
    step = padded.itemsize
    # shifted[i, p, c] = log_pmfs[p, c - i], -inf where i > c: the term of j = first + i at r = first + c
    shifted = np.ndarray((depth, points, n), buffer=padded, offset=(depth - 1) * step, strides=(-step, padded.strides[0], step))
    factor = factor.T
    buffer = np.empty(spans.size)

    def terms(live, first, stop) -> np.ndarray:
        # row 0 is left for the carried value
        out = buffer[: (1 + stop - first) * live * (n - first)].reshape(1 + stop - first, live, n - first)
        np.add(shifted[: stop - first, :live, : n - first], factor[first:stop, :live, None], out=out[1:])
        return out

    top = np.empty((points, n))
    top.fill(-math.inf)
    for live, first, stop in spans.rows:
        block = terms(live, first, stop)
        block[0] = top[:live, first:]
        np.maximum.reduce(block, axis=0, out=top[:live, first:])
    top[top == -math.inf] = 0.0
    sums = np.zeros((points, n))
    for live, first, stop in spans.rows:
        if depth < n:
            # more than one span: the first pass overwrote this span's terms
            block = terms(live, first, stop)
        block[1:] -= top[:live, first:]
        np.exp(block[1:], out=block[1:])
        block[0] = sums[:live, first:]
        np.add.reduce(block, axis=0, out=sums[:live, first:])
    with np.errstate(divide="ignore"):
        np.log(sums, out=sums)
    sums += top
    return sums


@functools.lru_cache(maxsize=256)
def _ring_weights(count: int, atoms: int) -> np.ndarray:
    """ln Binomial(count, k; 1/2) for k = 0..atoms-1, -inf past count: read-only, formed once per pair."""
    weights = np.full(atoms, -math.inf)
    weights[: count + 1] = _half_binomial_log_pmf(count)
    weights.setflags(write=False)
    return weights


def _add_rings(log_pmfs: np.ndarray, rings: list, counts: np.ndarray, log_norm: np.ndarray, spans: _Spans) -> np.ndarray:
    """Each row of ``log_pmfs`` convolved with one Binomial(count, 1/2)-mixed Poisson(k cbar) log pmf per merged ring of that row.

    ``rings`` holds one list of (cbar, count) per row, ``counts`` the
    counts 0..n-1 of the columns, ``log_norm`` their ln r! and ``spans``
    the spans of the rows' own n (_spans). The i-th rings of all rows
    share one mixture and one convolution; a row with fewer rings takes
    the exact point mass at 0 in place of each missing one, which leaves
    its entries as they are (a + 0, e^0 = 1, ln 1 = 0).
    """
    for slot in range(max(map(len, rings), default=0)):
        ring = [row[slot] if slot < len(row) else (0.0, 0) for row in rings]
        atoms = max(count for _, count in ring) + 1
        log_weights = np.array([_ring_weights(count, atoms) for _, count in ring]).T
        lams = np.arange(atoms)[:, None] * np.array([cbar for cbar, _ in ring])
        log_pmfs = _log_convolve(log_pmfs, _log_mixtures(lams, log_weights, counts, log_norm), spans)
    return log_pmfs


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
    """The received-count law of one configuration, one row of a group build (_build_block).

    ``off`` and ``on``, ln P(r | bit 0) and ln P(r | bit 1) for r = 0..n-1,
    convolve the log pmfs of Poisson(mu_n) noise, of each merged ring's
    Binomial(count, 1/2)-mixed Poisson and, in ``on``, of Poisson(mu_s).
    ``_CountDistribution(mu_s, ring_basis, mu_n, theta_max)`` builds a
    group of one.

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
    Every mixture and convolution sums its terms along the atom or factor
    index in a fixed increasing order, and the terms a longer build or a
    longer group row adds are exact zeros: each entry's bits depend on
    neither n nor the other points of its group (for rings of fewer than
    _ATOM_GROUP interferers, whose mixtures are never split).
    """

    def __init__(self, mu_s: float, ring_basis, mu_n: float, theta_max: int = 0) -> None:
        _build_block([self._sized(mu_s, ring_basis, mu_n, theta_max)])

    def _sized(self, mu_s: float, ring_basis, mu_n: float, theta_max: int) -> _CountDistribution:
        """Check the point and set its means, merged rings, flip bound and build length n (``size``)."""
        _check_means(mu_s, mu_n)
        self.mu_s, self.mu_n = mu_s, mu_n
        self.rings = _merge_rings(ring_basis)
        self.cbar_sum = math.fsum(cbar * count for cbar, count in self.rings)
        lam_max = mu_n + self.cbar_sum
        self.bound = math.ceil(_crossing(mu_s, lam_max)) if lam_max > 0 else 0
        check_elements(self.bound + 2, f"the count pmf to the flip bound of mu_s = {mu_s!r} and mu_n = {mu_n!r}")
        self.size = max(self.bound + 2, min(theta_max, _chernoff_support(lam_max + mu_s, 40.0)))
        return self

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


def _count_block(points, theta_max: int = 0):
    """The sized, unbuilt count laws of (mu_s, ring_basis, mu_n) points, a group of laws at a time.

    Every point is checked and sized in input order before the first group
    is yielded, so the first failing point raises its own error. The laws
    come longest first, in groups of at most _GROUP_ENTRIES entries (or of
    one law), for _build_block to build. Yields (indices, laws) per group:
    the input positions of its laws and the laws. A group is dropped when
    the next one is asked for, so a caller that builds and reads one group
    at a time holds one group's arrays at a time.
    """
    laws = [_CountDistribution.__new__(_CountDistribution)._sized(*point, theta_max) for point in points]
    pending = sorted(enumerate(laws), key=lambda pair: -pair[1].size)
    del laws
    while pending:
        rows = max(1, min(len(pending), _GROUP_ENTRIES // pending[0][1].size))
        (indices, group), pending = zip(*pending[:rows]), pending[rows:]
        yield indices, group


def _build_block(laws) -> np.ndarray:
    """Build the log pmfs, decisions and flips of sized laws, longest first, with one set of array calls.

    Returns their (2, laws, n) array of ln P(r | 0) and ln P(r | 1),
    -inf past each law's own n; each law's ``off`` and ``on`` are views of
    its row (``row``) cut to its own n. One ln r! row serves every pmf and
    mixture of the build.
    """
    sizes = [law.size for law in laws]
    counts = np.arange(sizes[0])
    log_norm = _log_factorials(counts)
    spans = _spans(sizes)
    # the noise pmf has no name here, so _add_rings frees each convolution input as it goes
    off = _add_rings(
        _log_poisson_pmf(np.array([law.mu_n for law in laws], dtype=float), counts, log_norm=log_norm),
        [law.rings for law in laws], counts, log_norm, spans,
    )
    on = _log_convolve(off, _log_poisson_pmf(np.array([law.mu_s for law in laws], dtype=float), counts, log_norm=log_norm), spans)
    log_pmfs = np.empty((2,) + off.shape)
    log_pmfs[0], log_pmfs[1] = off, on
    reach = max(law.bound for law in laws) + 2
    decisions = log_pmfs[1, :, :reach] >= log_pmfs[0, :, :reach]
    # P(0 | 1) = e^-mu_s P(0 | 0), so r = 0 decides 0 even where rounding ties its log pmfs
    decisions[:, 0] = False
    flips = [[] for _ in laws]
    for row, count in zip(*np.nonzero(decisions[:, 1:] != decisions[:, :-1])):
        if count <= laws[row].bound:
            flips[row].append(int(count) + 1)
    for row, law in enumerate(laws):
        log_pmfs[:, row, law.size :] = -math.inf
        law.row, law.flips = row, flips[row]
        law.off, law.on = log_pmfs[0, row, : law.size], log_pmfs[1, row, : law.size]
        law.decisions = decisions[row, : law.bound + 2]
    return log_pmfs


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
