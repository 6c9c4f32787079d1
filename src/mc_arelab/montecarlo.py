"""Stochastic validation of the analytic detection stack.

run() samples transmit patterns and receiver counts and scores the
threshold rule [r >= theta] at every threshold up to a cap, so the
empirically best threshold and its error rates can be compared against
the analytic results. Each interferer's activity is one fair random
bit, so a ring's active count has the Binomial(count, 1/2) law of the
model. McResult holds one array per estimate, indexed by theta.

Stochastic mode draws each bit class's tally over the count clipped at
theta_max by multinomial splits, one independent term of the count at a
time (_count_tallies). Nothing is drawn per sample, so the cost follows
rings x count x theta_max, and each error count is still exactly
Binomial(samples, BER). It runs serially on one SeedSequence(seed) stream.

Semi-analytic mode draws the interference states of all samples as one
law too. The tallies of n iid states are Multinomial(n, product of the
rings' Binomial(count, 1/2) pmfs), and the rings are independent, so one
multinomial draw per ring, over the tallies of the states so far, gives
every distinct state and its tally (a leaf) exactly in law. This tree
runs on child 0 of SeedSequence(seed) and stops before a ring that would
split the leaves into more than TREE_CELLS cells. The rings past the stop
are not sampled: the exact log pmf of their summed count (the ring loop
of the analytic count pmfs) is convolved into the leaves' count mixture.
Each row is still an unbiased mean of exact conditional error
probabilities over iid samples; the exact rings only lower its variance.
Both modes run serially; neither starts a thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSummary
from .config import MC_MODES
from .detection import _add_rings, _half_binomial_log_pmf, _log_mixtures, _merge_rings, _spans, _threshold_curves
from .errors import ParameterError, check_elements, is_finite_real, is_integer
from .specfun import _chernoff_support, _log_factorials, _log_poisson_pmf

__all__ = ["McResult", "run"]

# most cells (leaves times outcomes of the next ring) one split of the tally tree makes
TREE_CELLS = 400_000
# most elements of one multinomial draw of the stochastic sampler
DRAW_CELLS = 1 << 17
# a probability under e^-746 is below half the least subnormal double, so it rounds to 0
UNDERFLOW_NATS = 746.0


@dataclass(frozen=True)
class McResult:
    """Per-threshold estimates, one float array each indexed by theta, and the first theta of least BER."""

    ber: np.ndarray
    stderr: np.ndarray
    p_hat: np.ndarray
    q_hat: np.ndarray
    best: int
    samples: int
    seed: int
    mode: str


def _binom_half_pmf(count: int) -> np.ndarray:
    """Binomial(count, 1/2) pmf over 0..count, as multinomial draws take it.

    A multinomial draw raises when the cells but the last sum past 1;
    where rounding lifts them past 1 (the ln k! of large counts carry
    absolute errors of many ulps), the cells scale down.
    """
    pmf = np.exp(_half_binomial_log_pmf(count))
    return pmf / max(1.0, pmf[:-1].sum())


def _tally_tree(values: np.ndarray, tallies: np.ndarray, rings, rng: np.random.Generator):
    """(values, tallies, covered): the leaves after splitting by the first ``covered`` rings.

    A leaf is one interference state, with its value (the start value plus
    ``cbar`` times the active count of each ring so far, added in ring
    order) and its tally of samples. A ring splits every tally by one
    multinomial draw over its Binomial(count, 1/2) pmf, and the empty cells
    are dropped. The split stops before a ring that would make more than
    TREE_CELLS cells, which bounds the tree's memory whatever the sample
    count; the caller integrates the rings past the stop exactly.
    """
    for covered, (cbar, count) in enumerate(rings):
        if tallies.size * (count + 1) > TREE_CELLS:
            return values, tallies, covered
        split = rng.multinomial(tallies, _binom_half_pmf(count)).ravel()
        keep = np.flatnonzero(split)
        values = (values[:, None] + cbar * np.arange(count + 1)).ravel()[keep]
        tallies = split[keep]
    return values, tallies, len(rings)


def run(
    summary: ChannelSummary,
    samples: int,
    theta_max: int = 100,
    seed: int = 1,
    mode: str = "stochastic",
) -> McResult:
    """Estimate the BER of every threshold in 0..theta_max by sampling.

    Each sample draws the desired bit, one fair activity bit per
    interferer (counted per ring), and (in stochastic mode) the Poisson
    observation. Stochastic mode splits the bits sent as Binomial(samples,
    1/2) and draws each bit class's clipped-count tally as multinomial
    splits, serially and with no sampling chunks, so it takes any finite
    means and a stochastic error count is exactly Binomial(samples, BER).
    mode="semi-analytic" draws only the interference states of the rings
    the tally tree covers and averages the exact conditional error
    probabilities over them, with the rings past the tree's stop summed
    exactly, which removes the counting noise. The reported stderr is the
    binomial-scale value sqrt(ber (1 - ber) / samples) in both modes.
    """
    if not (is_integer(samples) and samples >= 1):
        raise ParameterError(f"samples must be a positive integer, got {samples!r}")
    if not (is_integer(theta_max) and theta_max >= 1):
        raise ParameterError(f"theta_max must be a positive integer, got {theta_max!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    if mode not in MC_MODES:
        raise ParameterError(f"mode must be one of {MC_MODES}, got {mode!r}")
    means = {"mu_s": summary.mu_s, "mu_n": summary.mu_n}
    means.update((f"ring {i} mean", cbar) for i, (cbar, _) in enumerate(summary.cbar))
    for name, value in means.items():
        if not (is_finite_real(value) and value >= 0):
            raise ParameterError(f"summary {name} must be finite and nonnegative, got {value!r}")
    for i, (_, count) in enumerate(summary.cbar):
        if not (is_integer(count) and count >= 1):
            raise ParameterError(f"summary ring {i} count must be a positive integer, got {count!r}")
    mu_s = float(summary.mu_s)
    mu_n = float(summary.mu_n)
    rings = [(float(cbar), int(count)) for cbar, count in summary.cbar]
    check_elements(int(theta_max) + 1, f"theta_max = {theta_max!r}")

    sample = _run_stochastic if mode == "stochastic" else _run_semi_analytic
    ber, p_hat, q_hat = sample(rings, mu_s, mu_n, theta_max, samples, seed)
    return McResult(
        ber=ber,
        stderr=np.sqrt(ber * (1.0 - ber) / samples),
        p_hat=p_hat,
        q_hat=q_hat,
        best=int(np.argmin(ber)),
        samples=samples,
        seed=seed,
        mode=mode,
    )


def _support(pmf: np.ndarray) -> tuple[int, np.ndarray]:
    """(first, pvals): the cells of ``pmf`` from its first to its last nonzero double, summing to 1.

    A multinomial draw gives its last cell the remainder of the others;
    normalized, that is the cell's own mass, not the rounding of the sum.
    """
    nonzero = np.flatnonzero(pmf)
    pvals = pmf[nonzero[0] : nonzero[-1] + 1]
    return int(nonzero[0]), pvals / pvals.sum()


def _clipped_poisson(lam: float, theta_max: int) -> tuple[int, np.ndarray]:
    """(first, pvals): the law of min(N, theta_max) over the cells first.., N ~ Poisson(lam).

    By the Chernoff bound P(N = r) <= exp(-lam h(r / lam - 1)), h(u) =
    (1 + u) ln(1 + u) - u >= u^2 / 2 (u <= 0), the pmf is under e^-N, N =
    UNDERFLOW_NATS, and rounds to 0 more than sqrt(2 N lam) below the mean
    or past specfun._chernoff_support(lam, N); only the cells in between
    are formed, with the ln r! of those counts alone. Cells past theta_max
    fold into the clip cell.
    """
    below = lam - math.sqrt(2.0 * UNDERFLOW_NATS) * math.sqrt(lam)
    if not below <= theta_max:
        return theta_max, np.ones(1)
    lo = max(0, math.floor(below))
    hi = _chernoff_support(lam, UNDERFLOW_NATS)
    pmf = np.exp(_log_poisson_pmf(np.array([lam]), np.arange(lo, hi + 1))[0])
    if hi >= theta_max:
        pmf = np.append(pmf[: theta_max - lo], pmf[theta_max - lo :].sum())
    first, pvals = _support(pmf)
    return lo + first, pvals


def _spread(hist: np.ndarray, cells: np.ndarray, tallies: np.ndarray, lam: float, theta_max: int, rng) -> None:
    """Add one Poisson(lam) count to each of ``tallies[i]`` samples at ``cells[i]`` of ``hist``.

    ``hist`` holds rows of theta_max + 1 count cells. One multinomial draw
    per row over the shared clipped Poisson(lam) cells, in blocks of at
    most DRAW_CELLS elements, moves each sample from r to min(r + a, theta_max).
    """
    first, pvals = _clipped_poisson(lam, theta_max)
    shift = np.arange(first, first + pvals.size)
    r = cells % (theta_max + 1)
    step = max(1, DRAW_CELLS // pvals.size)
    for lo in range(0, cells.size, step):
        draws = rng.multinomial(tallies[lo : lo + step], pvals)
        row, col = np.nonzero(draws)
        moved = draws[row, col]
        row += lo
        np.add.at(hist, cells[row] - r[row] + np.minimum(r[row] + shift[col], theta_max), moved)


def _count_tallies(rings, mu_s, mu_n, theta_max, samples, rng) -> np.ndarray:
    """Row b: how many of ``samples`` iid samples sent bit b and count r, r = 0..theta_max.

    The last cell holds every count >= theta_max. The bits split as
    Binomial(samples, 1/2); each class spreads over Poisson(mu_n + b mu_s);
    each ring splits every cell over its Binomial(count, 1/2) active
    numbers k and spreads each part over Poisson(k cbar). The count is the
    sum of these independent terms and a clipped histogram of iid counts
    is multinomial, so every stage is exact in law.
    """
    n_on = int(rng.binomial(samples, 0.5))
    width = theta_max + 1
    # cell b * width + r counts the samples that sent bit b whose count so
    # far is r; r = theta_max holds every count >= theta_max
    hist = np.zeros(2 * width, np.int64)
    _spread(hist, np.array([0]), np.array([samples - n_on]), mu_n, theta_max, rng)
    _spread(hist, np.array([width]), np.array([n_on]), mu_n + mu_s, theta_max, rng)
    for cbar, count in rings:
        # a clipped count stays clipped, so only the other cells move
        cells = np.flatnonzero(hist)
        cells = cells[cells % width != theta_max]
        tallies = hist[cells]
        hist[cells] = 0
        first, pmf = _support(_binom_half_pmf(count))
        step = max(1, DRAW_CELLS // pmf.size)
        for lo in range(0, cells.size, step):
            split = rng.multinomial(tallies[lo : lo + step], pmf)
            for k in np.flatnonzero(split.any(axis=0)):
                rows = np.flatnonzero(split[:, k])
                _spread(hist, cells[lo:][rows], split[rows, k], (first + k) * cbar, theta_max, rng)
    return hist.reshape(2, width)


def _run_stochastic(rings, mu_s, mu_n, theta_max, samples, seed):
    """(ber, p_hat, q_hat) per threshold, from counted observations."""
    hist = _count_tallies(rings, mu_s, mu_n, theta_max, samples, np.random.default_rng(seed))
    n_off, n_on = hist.sum(axis=1).tolist()
    # counts strictly below each threshold
    below_off, below_on = np.cumsum(hist, axis=1) - hist
    false_alarms = n_off - below_off
    # an empty bit class makes no errors, so its rate stays 0
    return (below_on + false_alarms) / samples, false_alarms / max(n_off, 1), below_on / max(n_on, 1)


def _run_semi_analytic(rings, mu_s, mu_n, theta_max, samples, seed):
    """(ber, p_hat, q_hat) per threshold, exact given the sampled interference.

    The count given the tree's leaves is a Poisson mixture over them, one
    row per bit class; the rings past the stop add a count of exact law,
    so each one's log pmf is convolved into both rows (detection._add_rings).
    Past the Chernoff support of the loudest count, Poisson(mu_n + mu_s +
    sum of cbar * count), every pmf entry rounds to 0, so the pmfs stop
    there and _threshold_curves holds the curves.
    """
    tree_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    values, tallies, covered = _tally_tree(np.zeros(1), np.array([samples]), rings, tree_rng)
    log_weights = np.log(tallies / samples)
    lam_max = mu_n + mu_s + math.fsum(cbar * count for cbar, count in rings)
    counts = np.arange(min(theta_max, _chernoff_support(lam_max, UNDERFLOW_NATS)))
    log_norm = _log_factorials(counts)
    lams = np.column_stack((values + mu_n, mu_s + values + mu_n))
    log_pmfs = _log_mixtures(lams, log_weights[:, None], counts, log_norm)
    if covered < len(rings):
        rest = _merge_rings(rings[covered:])
        log_pmfs = _add_rings(log_pmfs, [rest, rest], counts, log_norm, _spans([counts.size, counts.size]))
    off, on = np.exp(log_pmfs)
    p_hat, q_hat = _threshold_curves(theta_max, off, on)
    return 0.5 * (p_hat + q_hat), p_hat, q_hat
