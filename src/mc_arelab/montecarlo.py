"""Stochastic validation of the analytic detection stack.

run() samples transmit patterns and receiver counts and scores the
threshold rule [r >= theta] at every threshold up to a cap, so the
empirically best threshold and its error rates can be compared against
the analytic results. Each interferer's activity is one fair random
bit, and the active count of a ring is the popcount of its bits, which
has the Binomial(count, 1/2) law of the model. Sampling is chunked with
one RNG substream per fixed-size chunk: the outcome depends on the seed
and sample count only, never on how chunks are scheduled. Chunk results fold
into one running tally, in chunk order, as they finish. McResult.best is
the ThresholdBer row of least BER.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSummary
from .config import MC_MODES, map_chunks
from .detection import _log_mixture
from .errors import ParameterError, check_elements, is_finite_real, is_integer
from .perf import _threshold_curves

__all__ = ["McResult", "ThresholdBer", "run"]

CHUNK = 100_000
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


def _draw_iui(rings, size: int, rng: np.random.Generator) -> np.ndarray:
    """Total interference mean per sample.

    Each interferer sends one fair random bit, so a ring's active count is
    the popcount of ``count`` random bits, drawn in words of at most 64.
    The counts add up in the smallest unsigned type that holds ``count``,
    so they cannot overflow. Words are drawn, and ``cbar * active`` is
    folded into the total through one reused buffer, ``BLOCK`` samples at
    a time. A uint64 word is one draw from the stream whatever the block,
    so the samples equal those of whole-chunk draws; only the temporaries
    shrink to a block.
    """
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
    observation.
    mode="semi-analytic" draws only the interference states and averages
    the exact conditional error probabilities over them, which removes
    the counting noise. The reported stderr is the binomial-scale value
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

    def chunk_histogram(size: int, rng: np.random.Generator) -> np.ndarray:
        s0 = rng.integers(0, 2, size=size)
        lam = mu_s * s0 + _draw_iui(rings, size, rng) + mu_n
        r = np.minimum(rng.poisson(lam), theta_max)
        # row b counts the observations of the samples that sent bit b
        return np.bincount(s0 * (theta_max + 1) + r, minlength=2 * (theta_max + 1)).reshape(2, -1)

    hist = sum(map_chunks(chunk_histogram, samples, CHUNK, seed))
    n_off, n_on = hist.sum(axis=1)
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


def _run_semi_analytic(rings, mu_s, mu_n, theta_max, samples, seed):
    """(ber, p_hat, q_hat) per threshold, exact given the sampled interference."""
    chunks = map_chunks(
        lambda size, rng: np.unique(_draw_iui(rings, size, rng), return_counts=True), samples, CHUNK, seed
    )
    values, tallies = functools.reduce(_merge, chunks)
    log_weights = np.log(tallies / samples)
    off = np.exp(_log_mixture(values + mu_n, log_weights, np.arange(theta_max)))
    on = np.exp(_log_mixture(mu_s + values + mu_n, log_weights, np.arange(theta_max)))
    p_hat, q_hat = _threshold_curves(theta_max, off, on)
    return 0.5 * (p_hat + q_hat), p_hat, q_hat
