"""Stochastic validation of the analytic detection stack.

run() samples transmit patterns and receiver counts and scores the
threshold rule [r >= theta] at every threshold up to a cap, so the
empirically best threshold and its error rates can be compared against
the analytic results. Each interferer's activity is one fair random
bit, and the active count of a ring is the popcount of its bits, which
has the Binomial(count, 1/2) law of the model. Sampling is chunked with
one RNG substream per fixed-size chunk: the outcome depends on the seed
and sample count only, never on how chunks are scheduled.
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
from .errors import ParameterError, is_finite_real, is_integer
from .perf import _threshold_curves

__all__ = ["BestThreshold", "McResult", "ThresholdBer", "run"]

CHUNK = 100_000


class ThresholdBer(NamedTuple):
    theta: int
    ber: float
    stderr: float
    p_hat: float
    q_hat: float


class BestThreshold(NamedTuple):
    theta: int
    p_hat: float
    q_hat: float
    ber: float


@dataclass(frozen=True)
class McResult:
    """Per-threshold BER estimates plus the empirically best threshold."""

    per_threshold_ber: tuple[ThresholdBer, ...]
    best: BestThreshold
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
    so they cannot overflow. The first word's count is the tally itself:
    one fewer temporary per ring keeps the peak memory of the sampling
    threads down.
    """
    iui = np.zeros(size)
    for cbar, count in rings:
        words = [min(64, count - start) for start in range(0, count, 64)]
        active = _ones(words[0], size, rng).astype(np.min_scalar_type(count), copy=False)
        for bits in words[1:]:
            active += _ones(bits, size, rng)
        iui += cbar * active
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

    if mode == "stochastic":
        rows = _run_stochastic(rings, mu_s, mu_n, theta_max, samples, seed)
    else:
        rows = _run_semi_analytic(rings, mu_s, mu_n, theta_max, samples, seed)

    bers = [row.ber for row in rows]
    best_idx = int(np.argmin(bers))
    best_row = rows[best_idx]
    best = BestThreshold(
        theta=best_row.theta, p_hat=best_row.p_hat, q_hat=best_row.q_hat, ber=best_row.ber
    )
    return McResult(
        per_threshold_ber=tuple(rows),
        best=best,
        samples=samples,
        seed=seed,
        mode=mode,
    )


def _run_stochastic(rings, mu_s, mu_n, theta_max, samples, seed):
    def chunk_tallies(size: int, rng: np.random.Generator):
        s0 = rng.integers(0, 2, size=size)
        lam = mu_s * s0 + _draw_iui(rings, size, rng) + mu_n
        r = np.minimum(rng.poisson(lam), theta_max)
        hist_on = np.bincount(r[s0 == 1], minlength=theta_max + 1)
        hist_off = np.bincount(r[s0 == 0], minlength=theta_max + 1)
        return hist_on, hist_off

    tallies = map_chunks(chunk_tallies, samples, CHUNK, seed)
    hist_on = np.sum([t[0] for t in tallies], axis=0)
    hist_off = np.sum([t[1] for t in tallies], axis=0)
    n_on = int(hist_on.sum())
    n_off = int(hist_off.sum())

    # counts strictly below each threshold
    below_on = np.concatenate(([0], np.cumsum(hist_on)))[: theta_max + 1]
    below_off = np.concatenate(([0], np.cumsum(hist_off)))[: theta_max + 1]

    rows = []
    for theta in range(theta_max + 1):
        misses = int(below_on[theta])
        false_alarms = n_off - int(below_off[theta])
        ber = (misses + false_alarms) / samples
        rows.append(
            ThresholdBer(
                theta=theta,
                ber=ber,
                stderr=math.sqrt(ber * (1.0 - ber) / samples),
                p_hat=false_alarms / n_off if n_off else 0.0,
                q_hat=misses / n_on if n_on else 0.0,
            )
        )
    return rows


def _run_semi_analytic(rings, mu_s, mu_n, theta_max, samples, seed):
    chunks = map_chunks(
        lambda size, rng: np.unique(_draw_iui(rings, size, rng), return_counts=True), samples, CHUNK, seed
    )
    # merged chunk by chunk: a union of all draws at once would hold several
    # copies of every chunk's values and raise the peak memory
    values = functools.reduce(np.union1d, [v for v, _ in chunks])
    tallies = np.zeros(values.size, dtype=np.int64)
    for chunk_values, chunk_tallies in chunks:
        # the values of one chunk are distinct, so no index repeats
        tallies[np.searchsorted(values, chunk_values)] += chunk_tallies
    log_weights = np.log(tallies / samples)
    off = np.exp(_log_mixture(values + mu_n, log_weights, theta_max))
    on = np.exp(_log_mixture(mu_s + values + mu_n, log_weights, theta_max))
    p_curve, q_curve = _threshold_curves(theta_max, off, on)
    rows = []
    for theta in range(theta_max + 1):
        p, q = float(p_curve[theta]), float(q_curve[theta])
        ber = 0.5 * (p + q)
        rows.append(
            ThresholdBer(
                theta=theta,
                ber=ber,
                stderr=math.sqrt(ber * (1.0 - ber) / samples),
                p_hat=p,
                q_hat=q,
            )
        )
    return rows
