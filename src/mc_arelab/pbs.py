"""Particle-based validation of the analytic channel response.

Free diffusion with constant drift has exactly Gaussian increments over
any interval, so particles jump straight from one requested time to the
next: over a gap g the displacement is Normal(0, 2D g) per axis plus v g
along z. No step size enters, so there is no time discretization error.
The receiver is transparent, so counting molecules inside the cylinder
is a pure observation.
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
    each of ``cfg.times``. Mean and standard error are taken across
    realizations, in chunks of ``REALIZATION_CHUNK`` with one RNG substream
    each (``config.map_chunks``), so the trace depends only on the seed and
    the sizes, not on the thread count.
    """
    if len(tx_offset) != 2 or not all(is_finite_real(u) for u in tx_offset):
        raise ParameterError(f"tx_offset must be two finite coordinates, got {tx_offset!r}")
    x0, y0 = float(tx_offset[0]), float(tx_offset[1])
    gaps = np.diff(cfg.times, prepend=0.0)
    sigmas = np.sqrt(2.0 * params.D * gaps)
    drifts = params.v * gaps
    s2 = params.s_rx * params.s_rx

    def chunk_sums(size: int, rng: np.random.Generator):
        n_part = size * cfg.particles
        x = np.full(n_part, x0)
        y = np.full(n_part, y0)
        z = np.zeros(n_part)
        # one buffer of x, y, z steps, filled in that order from the stream
        step = np.empty((3, n_part))
        sums = np.empty((2, gaps.size))
        for k, (sigma, drift) in enumerate(zip(sigmas, drifts)):
            rng.standard_normal(out=step)
            step *= sigma
            x += step[0]
            y += step[1]
            step[2] += drift
            z += step[2]
            inside = (x * x + y * y <= s2) & (z >= geom.z_s) & (z <= geom.z_e)
            frac = inside.reshape(size, cfg.particles).mean(axis=1)
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
