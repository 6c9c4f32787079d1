"""Particle-based validation of the analytic channel response.

Free diffusion with constant drift has exactly Gaussian increments over
any interval, so particles are stepped directly on the recording grid:
the per-step displacement is Normal(0, 2D dt_rec) per axis plus v dt_rec
along z, where dt_rec = dt * record_every. This introduces no time
discretization error; dt only sets the reporting resolution. The
receiver is transparent, so counting molecules inside the cylinder is a
pure observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PhysicalParams, ReceiverGeometry
from .errors import ParameterError, is_finite_real, is_integer

__all__ = ["CirTrace", "PbsConfig", "simulate_cir"]

REALIZATION_CHUNK = 100


@dataclass(frozen=True)
class PbsConfig:
    """Simulation sizes: step, horizon, ensemble, and reporting decimation."""

    dt: float = 1e-3
    t_sim: float = 15.0
    realizations: int = 3000
    particles: int = 100
    record_every: int = 10
    seed: int = 1

    def __post_init__(self) -> None:
        if not (is_finite_real(self.dt) and self.dt > 0):
            raise ParameterError(f"dt must be positive and finite, got {self.dt!r}")
        if not (is_finite_real(self.t_sim) and self.dt < self.t_sim):
            raise ParameterError(f"dt must be below a finite t_sim, got dt={self.dt}, t_sim={self.t_sim!r}")
        for name in ("realizations", "particles", "record_every"):
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
    transmitter position at t = 0 and records the in-cylinder fraction on
    the decimated grid. Mean and standard error are taken across
    realizations, chunked with one RNG substream per fixed-size chunk, so
    the trace depends only on the seed and the sizes.
    """
    x0, y0 = float(tx_offset[0]), float(tx_offset[1])
    dt_rec = cfg.dt * cfg.record_every
    n_rec = int(math.floor(cfg.t_sim / dt_rec + 1e-9))
    if n_rec < 1:
        raise ParameterError(
            f"no record times in [0, {cfg.t_sim}] at spacing {dt_rec}; lower record_every or dt"
        )
    times = dt_rec * np.arange(1, n_rec + 1)

    sigma = math.sqrt(2.0 * params.D * dt_rec)
    drift = params.v * dt_rec
    s2 = params.s_rx * params.s_rx

    sizes = [REALIZATION_CHUNK] * (cfg.realizations // REALIZATION_CHUNK)
    if cfg.realizations % REALIZATION_CHUNK:
        sizes.append(cfg.realizations % REALIZATION_CHUNK)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(sizes))

    sum_m = np.zeros(n_rec)
    sum_m2 = np.zeros(n_rec)
    for size, stream in zip(sizes, streams):
        rng = np.random.default_rng(stream)
        n_part = size * cfg.particles
        x = np.full(n_part, x0)
        y = np.full(n_part, y0)
        z = np.zeros(n_part)
        for k in range(n_rec):
            x += rng.normal(0.0, sigma, n_part)
            y += rng.normal(0.0, sigma, n_part)
            z += rng.normal(0.0, sigma, n_part) + drift
            inside = (x * x + y * y <= s2) & (z >= geom.z_s) & (z <= geom.z_e)
            frac = inside.reshape(size, cfg.particles).mean(axis=1)
            sum_m[k] += frac.sum()
            sum_m2[k] += (frac * frac).sum()

    n = cfg.realizations
    mean = sum_m / n
    if n > 1:
        var = np.maximum(sum_m2 - sum_m * sum_m / n, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros(n_rec)
    return CirTrace(
        times=tuple(float(t) for t in times),
        mean_fraction=tuple(float(m) for m in mean),
        stderr=tuple(float(s) for s in stderr),
    )
