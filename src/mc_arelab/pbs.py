"""Particle-based validation of the analytic channel response.

Free diffusion with constant drift has exactly Gaussian increments over
any interval, so particles jump straight from one requested time to the
next: over a gap g the displacement is Normal(0, 2D g) per axis plus v g
along z. No step size enters, so there is no time discretization error.
The receiver is transparent, so counting molecules inside the cylinder
is a pure observation.

Only z is advanced at every requested time. A particle whose z lies
outside [z_s, z_e] cannot be inside the cylinder, so its (x, y) is not
needed there; it is drawn only at the times where z meets the axial
span, in one jump Normal(0, 2D (t - t_last)) per axis from the last time
it was drawn. The lateral and axial motions are independent Brownian
motions, so the recorded in-receiver indicators have exactly the joint
law of advancing all three coordinates at every time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PhysicalParams, ReceiverGeometry
from .config import map_chunks
from .errors import ParameterError, is_finite_real, is_integer

__all__ = ["CirTrace", "PbsConfig", "simulate_cir"]

REALIZATION_CHUNK = 100


@dataclass(frozen=True)
class PbsConfig:
    """Simulation sizes: the record times, the ensemble and its seed."""

    times: tuple[float, ...]
    realizations: int = 3000
    particles: int = 100
    seed: int = 1

    def __post_init__(self) -> None:
        times = self.times
        if not (isinstance(times, tuple) and times and all(is_finite_real(t) for t in times)):
            raise ParameterError(f"times must be a non-empty tuple of finite floats, got {times!r:.80}")
        if not (times[0] > 0 and all(a < b for a, b in zip(times, times[1:]))):
            raise ParameterError("times must be positive and strictly increasing")
        for name in ("realizations", "particles"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class CirTrace:
    """Observed fraction of released molecules inside the receiver over time."""

    times: tuple[float, ...]
    mean_fraction: tuple[float, ...]
    stderr: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.mean_fraction) == len(self.stderr)):
            raise ParameterError("trace fields must have equal lengths")
        if any(not (0.0 <= m <= 1.0) for m in self.mean_fraction):
            raise ParameterError("mean_fraction entries must lie in [0, 1]")
        if any(s < 0.0 for s in self.stderr):
            raise ParameterError("stderr entries must be nonnegative")


def simulate_cir(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    tx_offset: tuple[float, float],
    cfg: PbsConfig,
) -> CirTrace:
    """Ensemble-averaged fraction of particles inside the receiver cylinder.

    One realization releases ``cfg.particles`` particles at the offset
    transmitter position at t = 0 and records the in-cylinder fraction at
    each of ``cfg.times``. Every record draws each particle's z step, then
    the lateral jumps of the particles whose z is in the axial span, since
    their last lateral draw (t = 0 at first); the others keep their stale
    (x, y), which no record reads. Mean and standard error are taken across
    realizations, in chunks of ``REALIZATION_CHUNK`` with one RNG substream
    each (``config.map_chunks``), so the trace depends only on the seed and
    the sizes, not on the thread count.
    """
    if len(tx_offset) != 2 or not all(is_finite_real(u) for u in tx_offset):
        raise ParameterError(f"tx_offset must be two finite coordinates, got {tx_offset!r}")
    x0, y0 = float(tx_offset[0]), float(tx_offset[1])
    times = np.array(cfg.times)
    gaps = np.diff(times, prepend=0.0)
    sigmas = np.sqrt(2.0 * params.D * gaps)
    drifts = params.v * gaps
    s2 = params.s_rx * params.s_rx

    def chunk_sums(size: int, rng: np.random.Generator):
        n_part = size * cfg.particles
        x = np.full(n_part, x0)
        y = np.full(n_part, y0)
        z = np.zeros(n_part)
        t_last = np.zeros(n_part)
        dz = np.empty(n_part)
        sums = np.empty((2, gaps.size))
        for k, (t, sigma, drift) in enumerate(zip(times, sigmas, drifts)):
            rng.standard_normal(out=dz)
            dz *= sigma
            dz += drift
            z += dz
            span = np.flatnonzero((z >= geom.z_s) & (z <= geom.z_e))
            # x and y jumps of the in-span particles, drawn in that order
            lateral = rng.standard_normal((2, span.size))
            lateral *= np.sqrt(2.0 * params.D * (t - t_last[span]))
            xs = x[span] + lateral[0]
            ys = y[span] + lateral[1]
            x[span] = xs
            y[span] = ys
            t_last[span] = t
            hit = span[xs * xs + ys * ys <= s2]
            frac = np.bincount(hit // cfg.particles, minlength=size) / cfg.particles
            sums[:, k] = frac.sum(), (frac * frac).sum()
        return sums

    chunks = map_chunks(chunk_sums, cfg.realizations, REALIZATION_CHUNK, cfg.seed)
    sum_m, sum_m2 = sum(chunks, np.zeros((2, gaps.size)))

    n = cfg.realizations
    mean = sum_m / n
    if n > 1:
        var = np.maximum(sum_m2 - sum_m * sum_m / n, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros(gaps.size)
    return CirTrace(
        times=tuple(float(t) for t in cfg.times),
        mean_fraction=tuple(float(m) for m in mean),
        stderr=tuple(float(s) for s in stderr),
    )
