"""Particle-based validation of the analytic channel response.

Free diffusion with constant drift has exactly Gaussian increments over
any interval, so particles jump straight from one requested time to the
next: over a gap g the displacement is Normal(0, 2D g) per axis plus v g
along z. No step size enters, so there is no time discretization error.
The receiver is transparent, so counting molecules inside the cylinder
is a pure observation.

A particle can be inside the cylinder only while its z lies in the axial
span [z_s, z_e], and z moves continuously, so from outside the span it
must first reach the nearer edge. z is a Brownian motion with drift
v >= 0 and variance 2D per second, and the time it needs to cover the
distance a to that edge has a closed-form law. From below, where the
drift points at the edge, it is inverse Gaussian IG(a / v, a^2 / (2D)).
From above, the edge is reached at all only with probability
exp(-v a / D), and then after the same IG time. At v = 0 it is Levy,
a^2 / (2D N^2). So a particle that is outside the span draws that
passage time T and is not advanced again until the first record at or
after T. There, by the strong Markov property, its z is the edge plus
Normal(v (t - T), 2D (t - T)). Its (x, y) is drawn only where its z is in
the span, in one jump Normal(0, 2D (t - t_last)) per axis from the last
time it was drawn. The lateral and axial motions are independent
Brownian motions, so the recorded in-receiver indicators have exactly
the joint law of advancing all three coordinates at every time: skipping
is no approximation and carries no error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PhysicalParams, ReceiverGeometry
from .config import map_chunks
from .errors import ParameterError, is_finite_real, is_integer

__all__ = ["CirTrace", "PbsConfig", "simulate_cir"]

REALIZATION_CHUNK = 100
# Records advanced together: one cumulative sum draws a due particle's z across them.
BLOCK_RECORDS = 16
# Due particles advanced together; a block's temporaries hold BLOCK_RECORDS
# entries for each, whatever the record count.
BLOCK_PARTICLES = 1024


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


def _passage_times(a: np.ndarray, drift: np.ndarray, D: float, rng: np.random.Generator) -> np.ndarray:
    """First-passage times of z over the distances a > 0 to an edge, inf where it never gets there.

    ``drift`` is the velocity toward the edge, negative away from it, and
    2D the variance per second. The edge is reached with probability
    exp(min(drift, 0) a / D), and then after an IG(a / v, a^2 / (2D)) time,
    v = |drift|. That time is drawn by Michael-Schucany-Haas: with
    lam = a^2 / (2D) and M = a N^2, X = 2 lam a / (M + 2 lam v +
    sqrt(M^2 + 4 lam v M)) is kept when U (a + v X) <= a and replaced by
    a^2 / (v^2 X) otherwise. Every term is positive, so nothing cancels at
    any scale of a, v and D, and at v = 0 it is the Levy law
    a^2 / (2D N^2) with no division by v.
    """
    v = np.abs(drift)
    lam = a * a / (2.0 * D)
    m = rng.standard_normal(a.size)
    m *= m
    m *= a
    slope = 4.0 * v * lam
    # M = 0 at v = 0 is the Levy law's infinite tail, reached only by N = 0 exactly
    with np.errstate(divide="ignore"):
        x = 2.0 * lam * a / (m + 0.5 * slope + np.sqrt(m * (m + slope)))
    flip = rng.random(a.size) * (a + v * x) > a
    x[flip] = a[flip] ** 2 / (v[flip] ** 2 * x[flip])
    x[rng.random(a.size) >= np.exp(np.minimum(drift, 0.0) * a / D)] = np.inf
    return x


def simulate_cir(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    tx_offset: tuple[float, float],
    cfg: PbsConfig,
) -> CirTrace:
    """Ensemble-averaged fraction of particles inside the receiver cylinder.

    One realization releases ``cfg.particles`` particles at the offset
    transmitter position at t = 0 and records the in-cylinder fraction at
    each of ``cfg.times``. A particle is due at the first record where it
    can be inside: the first record at or after its passage time to the
    axial span, or the next record while its z was in the span at the last
    one. The records go in blocks of ``BLOCK_RECORDS``, and a block draws
    the z path of each particle due within it from its due record to the
    block's end, then the lateral jumps at the path's in-span records, in
    groups of ``BLOCK_PARTICLES`` particles. Each of these particles that
    ends the block outside the span draws its next passage time; a run of
    records where no particle is due is skipped. Mean and standard error
    are taken across realizations, in chunks of ``REALIZATION_CHUNK`` with
    one RNG substream each (``config.map_chunks``), so the trace depends
    only on the seed and the sizes, not on the thread count.
    """
    if len(tx_offset) != 2 or not all(is_finite_real(u) for u in tx_offset):
        raise ParameterError(f"tx_offset must be two finite coordinates, got {tx_offset!r}")
    x0, y0 = float(tx_offset[0]), float(tx_offset[1])
    times = np.array(cfg.times)
    n_rec = times.size
    times_before = np.r_[0.0, times[:-1]]
    D, v = params.D, params.v
    z_s, z_e = geom.z_s, geom.z_e
    s2 = params.s_rx * params.s_rx

    def chunk_sums(size: int, rng: np.random.Generator):
        n_part = size * cfg.particles
        x = np.full(n_part, x0)
        y = np.full(n_part, y0)
        t_xy = np.zeros(n_part)
        # z at time t_z: the last record for a particle in the span there, else
        # the nearer edge at the passage time, inf if it is never reached
        z = np.zeros(n_part)
        t_z = np.zeros(n_part)

        def leave(p, t):
            # particles p, outside the span at time t, wait at the nearer edge
            zp = z[p]
            below = zp < z_s
            edge = np.where(below, z_s, z_e)
            t_z[p] = t + _passage_times(np.abs(zp - edge), np.where(below, v, -v), D, rng)
            z[p] = edge

        def advance(p, k, end):
            # z of particles p at records k..end - 1, a row per record, from the
            # first record at or after t_z; then (x, y) where z is in the span.
            # Returns the (record, particle) indices of the in-receiver entries.
            # The cumulative sums run row by row: np.cumsum along the short
            # record axis is several times slower.
            rec = times[k:end, None]
            t0 = t_z[p]
            valid = rec >= t0
            # a step spans the time since the record before, or since t_z;
            # there is none before t_z
            g = rec - np.maximum(times_before[k:end, None], t0)
            np.maximum(g, 0.0, out=g)
            path = np.zeros(g.shape)
            path[valid] = rng.standard_normal(np.count_nonzero(valid))
            scale = np.sqrt(2.0 * D * g)
            path *= scale
            g *= v  # the drift of each step
            path += g
            path[0] += z[p]
            for j in range(1, end - k):
                path[j] += path[j - 1]
            span = valid & (path >= z_s) & (path <= z_e)
            z[p] = path[-1]
            t_z[p] = times[end - 1]
            gone = p[~span[-1]]

            # a lateral jump spans the time since the last in-span record
            t_last = path  # z is stored; its buffer is reused
            np.copyto(t_last, t_xy[p])
            np.copyto(t_last, rec, where=span)
            for j in range(1, end - k):
                np.maximum(t_last[j], t_last[j - 1], out=t_last[j])
            scale[0] = rec[0] - t_xy[p]
            np.subtract(rec[1:], t_last[:-1], out=scale[1:])
            scale *= 2.0 * D
            np.sqrt(scale, out=scale)
            t_xy[p] = t_last[-1]
            lateral = np.zeros((2,) + g.shape)
            entries = np.flatnonzero(span)
            jumps = rng.standard_normal((2, entries.size))
            for plane, jump, start in zip(lateral, jumps, (x[p], y[p])):
                plane.ravel()[entries] = jump
                plane *= scale
                plane[0] += start
                for j in range(1, end - k):
                    plane[j] += plane[j - 1]
            x[p] = lateral[0, -1]
            y[p] = lateral[1, -1]
            leave(gone, times[end - 1])
            lateral **= 2
            return np.nonzero(span & (lateral[0] + lateral[1] <= s2))

        if not z_s <= 0.0 <= z_e:
            leave(np.arange(n_part), 0.0)
        sums = np.zeros((2, n_rec))
        k = 0
        while (k := max(k, int(np.searchsorted(times, t_z.min())))) < n_rec:
            end = min(k + BLOCK_RECORDS, n_rec)
            p = np.flatnonzero(t_z <= times[end - 1])
            counts = np.zeros(size * (end - k), dtype=np.intp)
            for i in range(0, p.size, BLOCK_PARTICLES):
                piece = p[i : i + BLOCK_PARTICLES]
                recs, parts = advance(piece, k, end)
                counts += np.bincount(piece[parts] // cfg.particles * (end - k) + recs, minlength=counts.size)
            frac = counts.reshape(size, end - k) / cfg.particles
            sums[0, k:end] = frac.sum(axis=0)
            sums[1, k:end] = (frac * frac).sum(axis=0)
            k = end
        return sums

    chunks = map_chunks(chunk_sums, cfg.realizations, REALIZATION_CHUNK, cfg.seed)
    sum_m, sum_m2 = sum(chunks, np.zeros((2, n_rec)))

    n = cfg.realizations
    mean = sum_m / n
    if n > 1:
        var = np.maximum(sum_m2 - sum_m * sum_m / n, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros(n_rec)
    return CirTrace(
        times=tuple(float(t) for t in cfg.times),
        mean_fraction=tuple(float(m) for m in mean),
        stderr=tuple(float(s) for s in stderr),
    )
