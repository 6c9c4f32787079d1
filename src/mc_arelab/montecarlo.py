"""Stochastic validation of the analytic detection stack.

run() samples transmit patterns and receiver counts and scores the
threshold rule [r >= theta] at every threshold up to a cap, so the
empirically best threshold and its error rates can be compared against
the analytic results. Sampling is chunked with one RNG substream per
fixed-size chunk: the outcome depends on the seed and sample count only,
never on how chunks are scheduled.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSummary
from .config import MC_MODES, worker_count
from .errors import ParameterError, is_finite_real, is_integer
from .perf import poisson_decision_curves

__all__ = ["BestThreshold", "McResult", "ThresholdBer", "poisson_sample", "run"]

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


def poisson_sample(lam: float, rng: np.random.Generator) -> int:
    """One Poisson draw; lam = 0 is the deterministic zero count."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ParameterError(f"lambda must be finite and nonnegative, got {lam}")
    return int(rng.poisson(lam))


def _chunk_sizes(samples: int) -> list[int]:
    sizes = [CHUNK] * (samples // CHUNK)
    if samples % CHUNK:
        sizes.append(samples % CHUNK)
    return sizes


def _draw_iui(rings, size: int, rng: np.random.Generator) -> np.ndarray:
    """Total interference mean per sample, one Binomial draw per ring."""
    iui = np.zeros(size)
    for cbar, count in rings:
        iui += cbar * rng.binomial(count, 0.5, size=size)
    return iui


def _map_chunks(fn, n_chunks: int):
    workers = worker_count()
    if workers == 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


def run(
    summary: ChannelSummary,
    samples: int,
    theta_max: int = 100,
    seed: int = 1,
    mode: str = "stochastic",
) -> McResult:
    """Estimate the BER of every threshold in 0..theta_max by sampling.

    Each sample draws the desired bit, one Binomial activity count per
    interferer ring, and (in stochastic mode) the Poisson observation.
    mode="semi-analytic" draws only the interference states and averages
    the exact conditional error probabilities over them, which removes
    the counting noise. The reported stderr is the binomial-scale value
    sqrt(ber (1 - ber) / samples) in both modes.
    """
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise ParameterError(f"samples must be a positive integer, got {samples!r}")
    if not isinstance(theta_max, int) or isinstance(theta_max, bool) or theta_max < 1:
        raise ParameterError(f"theta_max must be a positive integer, got {theta_max!r}")
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

    sizes = _chunk_sizes(samples)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))

    if mode == "stochastic":
        rows = _run_stochastic(rings, mu_s, mu_n, sizes, streams, theta_max, samples)
    else:
        rows = _run_semi_analytic(rings, mu_s, mu_n, sizes, streams, theta_max, samples)

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


def _run_stochastic(rings, mu_s, mu_n, sizes, streams, theta_max, samples):
    def chunk_tallies(i: int):
        rng = np.random.default_rng(streams[i])
        n = sizes[i]
        s0 = rng.integers(0, 2, size=n)
        lam = mu_s * s0 + _draw_iui(rings, n, rng) + mu_n
        r = np.minimum(rng.poisson(lam), theta_max)
        hist_on = np.bincount(r[s0 == 1], minlength=theta_max + 1)
        hist_off = np.bincount(r[s0 == 0], minlength=theta_max + 1)
        return hist_on, hist_off

    tallies = _map_chunks(chunk_tallies, len(sizes))
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


def _run_semi_analytic(rings, mu_s, mu_n, sizes, streams, theta_max, samples):
    counts: dict[float, int] = {}

    def chunk_counts(i: int):
        rng = np.random.default_rng(streams[i])
        values, tallies = np.unique(_draw_iui(rings, sizes[i], rng), return_counts=True)
        return values, tallies

    for values, tallies in _map_chunks(chunk_counts, len(sizes)):
        for value, tally in zip(values.tolist(), tallies.tolist()):
            counts[value] = counts.get(value, 0) + tally

    items = sorted(counts.items())
    values = np.array([value for value, _ in items])
    weights = np.array([tally for _, tally in items]) / samples
    q_curve, p_curve = poisson_decision_curves(
        theta_max, mu_s, values, np.log(weights), mu_n
    )
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
