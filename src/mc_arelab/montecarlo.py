"""Stochastic validation of the analytic detection stack.

run() samples transmit patterns and receiver counts and scores the
threshold rule [r >= theta] at every threshold up to a cap, so the
empirically best threshold and its error rates can be compared against
the analytic results. Each interferer's activity is one fair random
bit, so a ring's active count has the Binomial(count, 1/2) law of the
model.

The interference states of all samples are drawn as one law, not one
sample at a time. The tallies of n iid states are Multinomial(n, product
of the rings' Binomial(count, 1/2) pmfs), and the rings are independent,
so one multinomial draw per ring, over the tallies of the states so far,
gives every distinct state and its tally (a leaf) exactly in law. This
tree runs serially on its own RNG substream. It stops before a ring that
would split the leaves into more than min(samples / 10, TREE_CELLS)
cells; the rings past the stop are drawn per sample, as the popcount of
their bits in words of at most 64, over CHUNK-sample slices of the
leaf-ordered sample list, one RNG substream per slice. Only the order of
the samples differs from drawing them one at a time, and no result
depends on that order. The outcome depends on the seed and sample count
only, never on how chunks are scheduled. Chunk results fold into one
running tally, in chunk order, as they finish. McResult.best is the
ThresholdBer row of least BER.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSummary
from .config import MC_MODES, map_workers
from .detection import _log_mixture
from .errors import ParameterError, check_elements, is_finite_real, is_integer
from .perf import _threshold_curves
from .specfun import _log_factorials

__all__ = ["McResult", "ThresholdBer", "run"]

CHUNK = 100_000
# most cells (leaves times outcomes of the next ring) one split of the tally tree makes
TREE_CELLS = 400_000
# samples per block of interferer words in _draw_iui
BLOCK = 25_000
# largest mean Generator.poisson samples: int64 max less ten of its square roots
POISSON_LAM_MAX = 9.223372006484771e18


class ThresholdBer(NamedTuple):
    theta: int
    ber: float
    stderr: float
    p_hat: float
    q_hat: float


@dataclass(frozen=True)
class McResult:
    """Per-threshold BER estimates plus the row of the empirically best threshold."""

    per_threshold_ber: tuple[ThresholdBer, ...]
    best: ThresholdBer
    samples: int
    seed: int
    mode: str


def _ones(bits: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Number of ones among ``bits`` (at most 64) fair random bits, per sample, as uint8."""
    return np.bitwise_count(rng.integers(0, 2**bits, size=size, dtype=np.uint64))


def _draw_iui(rings, size: int, rng: np.random.Generator, iui: np.ndarray | None = None) -> np.ndarray:
    """Total interference mean per sample, added into ``iui`` (zeros by default).

    Each interferer sends one fair random bit, so a ring's active count is
    the popcount of ``count`` random bits, drawn in words of at most 64.
    The counts add up in the smallest unsigned type that holds ``count``,
    so they cannot overflow. Words are drawn, and ``cbar * active`` is
    folded into the total through one reused buffer, ``BLOCK`` samples at
    a time. A uint64 word is one draw from the stream whatever the block,
    so the samples equal those of whole-chunk draws; only the temporaries
    shrink to a block.
    """
    if iui is None:
        iui = np.zeros(size)
    term = np.empty(min(size, BLOCK))
    blocks = [slice(lo, lo + BLOCK) for lo in range(0, size, BLOCK)]
    for cbar, count in rings:
        active = np.zeros(size, np.min_scalar_type(count))
        for start in range(0, count, 64):
            for block in blocks:
                active[block] += _ones(min(64, count - start), active[block].size, rng)
        for block in blocks:
            part = term[: active[block].size]
            np.multiply(cbar, active[block], out=part)
            iui[block] += part
    return iui


def _binom_half_pmf(count: int) -> np.ndarray:
    """Binomial(count, 1/2) pmf over 0..count."""
    log_k_factorial = _log_factorials(np.arange(count + 1))
    return np.exp(log_k_factorial[-1] - log_k_factorial - log_k_factorial[::-1] - count * math.log(2.0))


def _tally_tree(values: np.ndarray, tallies: np.ndarray, rings, rng: np.random.Generator):
    """(values, tallies, covered): the leaves after splitting by the first ``covered`` rings.

    A leaf is one interference state, with its value (the start value plus
    ``cbar`` times the active count of each ring so far, added in ring
    order as _draw_iui adds them) and its tally of samples. A ring splits
    every tally by one multinomial draw over its Binomial(count, 1/2) pmf,
    and the empty cells are dropped. The split stops before a ring that
    would make more than min(samples / 10, TREE_CELLS) cells, past which
    drawing per sample costs less time or memory.
    """
    limit = min(tallies.sum() / 10, TREE_CELLS)
    for covered, (cbar, count) in enumerate(rings):
        if tallies.size * (count + 1) > limit:
            return values, tallies, covered
        split = rng.multinomial(tallies, _binom_half_pmf(count)).ravel()
        keep = np.flatnonzero(split)
        values = (values[:, None] + cbar * np.arange(count + 1)).ravel()[keep]
        tallies = split[keep]
    return values, tallies, len(rings)


def _map_slices(fn, values: np.ndarray, tallies: np.ndarray, seq: np.random.SeedSequence):
    """Yield fn(values, tallies, start, rng) for each CHUNK-sample slice of the leaf-ordered samples, in order.

    The samples are ``tallies[i]`` copies of leaf i, leaf after leaf. A
    slice gets the leaves it meets, the tally of each inside it and the
    index of its first sample; slice i draws from child i of ``seq``, so
    the results never depend on worker_count().
    """
    ends = np.cumsum(tallies)
    starts = range(0, int(ends[-1]), CHUNK)

    def job(item):
        start, child = item
        first = np.searchsorted(ends, start, side="right")
        last = np.searchsorted(ends, start + CHUNK) + 1
        leaves = slice(first, last)
        inside = np.minimum(ends[leaves], start + CHUNK) - np.maximum(ends[leaves] - tallies[leaves], start)
        return fn(values[leaves], inside, start, np.random.default_rng(child))

    return map_workers(job, zip(starts, seq.spawn(len(starts))))


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
    observation. The bits sent split as Binomial(samples, 1/2), and the
    interference states of each bit's samples come from the tally tree,
    so the samples are iid in law and a stochastic error count is exactly
    Binomial(samples, BER).
    mode="semi-analytic" draws only the interference states and averages
    the exact conditional error probabilities over them, which removes
    the counting noise; when the tree covers every ring, its leaves are
    the mixture. The reported stderr is the binomial-scale value
    sqrt(ber (1 - ber) / samples) in both modes.
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
    if mode == "stochastic":
        lam_max = mu_s + math.fsum(cbar * count for cbar, count in rings) + mu_n
        if not lam_max <= POISSON_LAM_MAX:
            raise ParameterError(
                f"the all-active mean mu_s + interference + mu_n = {lam_max!r} is past {POISSON_LAM_MAX}, "
                "the largest Poisson mean NumPy samples"
            )

    sample = _run_stochastic if mode == "stochastic" else _run_semi_analytic
    ber, p_hat, q_hat = sample(rings, mu_s, mu_n, theta_max, samples, seed)
    stderr = np.sqrt(ber * (1.0 - ber) / samples)
    rows = tuple(map(ThresholdBer, range(ber.size), ber.tolist(), stderr.tolist(), p_hat.tolist(), q_hat.tolist()))
    return McResult(
        per_threshold_ber=rows,
        best=rows[int(np.argmin(ber))],
        samples=samples,
        seed=seed,
        mode=mode,
    )


def _run_stochastic(rings, mu_s, mu_n, theta_max, samples, seed):
    """(ber, p_hat, q_hat) per threshold, from counted observations."""
    tree_seq, chunk_seq = np.random.SeedSequence(seed).spawn(2)
    tree_rng = np.random.default_rng(tree_seq)
    n_on = int(tree_rng.binomial(samples, 0.5))
    n_off = samples - n_on
    # leaf values are Poisson means; the bit-0 leaves come first
    lams, tallies, covered = _tally_tree(np.array([mu_n, mu_s + mu_n]), np.array([n_off, n_on]), rings, tree_rng)
    rest = rings[covered:]

    def chunk_histogram(lams, inside, start, rng):
        lam = _draw_iui(rest, int(inside.sum()), rng, np.repeat(lams, inside))
        r = np.minimum(rng.poisson(lam), theta_max)
        # row b counts the observations of the samples that sent bit b
        r[max(n_off - start, 0) :] += theta_max + 1
        return np.bincount(r, minlength=2 * (theta_max + 1)).reshape(2, -1)

    hist = sum(_map_slices(chunk_histogram, lams, tallies, chunk_seq))
    # counts strictly below each threshold
    below_off, below_on = np.cumsum(hist, axis=1) - hist
    false_alarms = n_off - below_off
    # an empty bit class makes no errors, so its rate stays 0
    return (below_on + false_alarms) / samples, false_alarms / max(n_off, 1), below_on / max(n_on, 1)


def _merge(a, b):
    """Union of two sorted (values, tallies) pairs, adding the tallies of equal values.

    A stable sort of two sorted runs is one linear merge; the tallies of
    each run of equal values are then summed in place of the run.
    """
    values, tallies = (np.concatenate(pair) for pair in zip(a, b))
    order = np.argsort(values, kind="stable")
    values, tallies = values[order], tallies[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.add.reduceat(tallies, starts)


def _interference_mixture(rings, samples: int, seed: int):
    """(values, tallies) of the interference states of ``samples`` iid samples.

    When the tally tree covers every ring, these are its leaves. Otherwise
    each slice adds the remaining rings per sample and keeps its distinct
    values, and the slices merge in order into one sorted set.
    """
    tree_seq, chunk_seq = np.random.SeedSequence(seed).spawn(2)
    values, tallies, covered = _tally_tree(np.zeros(1), np.array([samples]), rings, np.random.default_rng(tree_seq))
    if covered == len(rings):
        return values, tallies
    rest = rings[covered:]

    def chunk_values(values, inside, start, rng):
        return np.unique(_draw_iui(rest, int(inside.sum()), rng, np.repeat(values, inside)), return_counts=True)

    return functools.reduce(_merge, _map_slices(chunk_values, values, tallies, chunk_seq))


def _run_semi_analytic(rings, mu_s, mu_n, theta_max, samples, seed):
    """(ber, p_hat, q_hat) per threshold, exact given the sampled interference."""
    values, tallies = _interference_mixture(rings, samples, seed)
    log_weights = np.log(tallies / samples)
    off = np.exp(_log_mixture(values + mu_n, log_weights, np.arange(theta_max)))
    on = np.exp(_log_mixture(mu_s + values + mu_n, log_weights, np.arange(theta_max)))
    p_hat, q_hat = _threshold_curves(theta_max, off, on)
    return 0.5 * (p_hat + q_hat), p_hat, q_hat
