"""Particle-based validation of the analytic channel response.

Free diffusion with constant drift has exactly Gaussian increments over
any interval, so particles jump straight from one requested time to the
next: over a gap g the displacement is Normal(0, 2D g) per axis plus v g
along z. No step size enters, so there is no time discretization error.
The receiver is transparent, so counting molecules inside the cylinder
is a pure observation.

A particle can be inside only while its z lies in the axial span
[z_s, z_e] and its distance rho from the axis is at most S_RX, and from
outside either one it must first cover the distance a to it. z moves
with drift v >= 0 and variance 2D per second, so the time to the nearer
edge is inverse Gaussian IG(a / v, a^2 / (2D)) from below; from above
the edge is reached only with probability exp(-v a / D), then after the
same IG time; at v = 0 it is Levy, a^2 / (2D N^2). Laterally, with u the
unit vector toward the axis, the disk lies beyond the line at distance
a = rho - S_RX along u, and the motion along u is a Brownian motion with
variance 2D per second, so the particle cannot enter before the Levy
time T = a^2 / (2D N^2). The motion across u is independent of it, so
at T the particle sits on that line, Normal(0, 2D T) from the foot of u.
By the strong Markov property it continues from either passage's end as
a fresh Brownian motion, and at every record before that end it is
outside with certainty, so advancing it only at the records after both
gives the recorded indicators exactly the joint law of advancing every
coordinate at every time: skipping carries no error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

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
        kinds = set(map(type, times)) if isinstance(times, tuple) else {object}
        values = np.array(times if all(k is not bool and issubclass(k, Real) for k in kinds) else (), dtype=float)
        if not (values.size and np.isfinite(values).all()):
            raise ParameterError(f"times must be a non-empty tuple of finite floats, got {times!r:.80}")
        if not (values[0] > 0 and (values[1:] > values[:-1]).all()):
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
        mean = np.array(self.mean_fraction, dtype=float)
        if not ((mean >= 0.0) & (mean <= 1.0)).all():
            raise ParameterError("mean_fraction entries must lie in [0, 1]")
        if (np.array(self.stderr, dtype=float) < 0.0).any():
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


def _lateral_waits(a: np.ndarray, D: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Levy times T for a lateral walk to cover the distances a > 0 toward the axis, and its offsets across.

    One (2, n) normal draw (N, W) gives T = a^2 / (2D N^2) and the offset
    Normal(0, 2D T) = W sqrt(2D T). At N = 0, T is inf and the offset 0.
    """
    n, w = rng.standard_normal((2, a.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reach = a / np.abs(n)  # sqrt(2D T)
        w *= reach
        wait = reach * reach / (2.0 * D)
    w[np.isinf(reach)] = 0.0
    return wait, w


def simulate_cir(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    tx_offset: tuple[float, float],
    cfg: PbsConfig,
) -> CirTrace:
    """Ensemble-averaged fraction of particles inside the receiver cylinder.

    One realization releases ``cfg.particles`` particles at the offset
    transmitter position at t = 0 and records the in-cylinder fraction at
    each of ``cfg.times``. Each step of the loop advances every live
    particle by one event, at its own due record: the next one, or after
    a passage the first one after it ends. There z is drawn, then rho
    where z is in the span, and the particle is counted where both are
    inside; a z outside the span draws the next axial passage, a rho past
    S_RX the next lateral one. A particle with no record left drops out.
    The disk and the lateral motion are symmetric about the axis, so rho
    alone is Markov and no angle is kept: a jump by Normal(0, s^2) per
    axis lands at |(rho + s N1, s N2)|, a lateral passage at
    |(S_RX, offset)|. Mean and standard error are taken across
    realizations, in chunks of ``REALIZATION_CHUNK`` with one RNG
    substream each (``config.map_chunks``), so the trace depends only on
    the seed and the sizes, not on the thread count.
    """
    if len(tx_offset) != 2 or not all(is_finite_real(u) for u in tx_offset):
        raise ParameterError(f"tx_offset must be two finite coordinates, got {tx_offset!r}")
    rho0 = float(np.hypot(tx_offset[0], tx_offset[1]))
    times = np.array(cfg.times, dtype=float)
    n_rec = times.size
    D, v, s_rx = params.D, params.v, params.s_rx
    z_s, z_e = geom.z_s, geom.z_e

    def chunk_sums(size: int, rng: np.random.Generator):
        n_part = size * cfg.particles
        # rows: the time t_xy and the distance from the axis then, and the time
        # t_z and z then, of the live particles. After a passage they hold its end:
        # the time the lateral walk meets the disk's tangent and the distance
        # there, or the time z gets to the nearer axial edge, inf if it never
        # does, and the edge. `due` is the record a particle is next advanced
        # at, `row` the offset of its realization in the tally.
        state = np.zeros((4, n_part))
        state[1] = rho0
        t_xy, rho, t_z, z = state
        due = np.zeros(n_part, dtype=np.intp)  # set again once both passages at the release are drawn
        row = np.repeat(np.arange(0, size * n_rec, n_rec, dtype=np.intp), cfg.particles)
        tally = np.zeros(size * n_rec, dtype=np.min_scalar_type(cfg.particles))
        one = tally.dtype.type(1)  # np.add.at takes its fast path only at the tally's own dtype

        def reschedule(p, row_t, t, end):
            # particles p wait for the first record after the times t, where their
            # passages end; state rows row_t and row_t + 1 take the time and the end
            state[row_t, p] = t
            state[row_t + 1, p] = end
            due[p] = times.searchsorted(t, "right")

        def leave(p, t):
            # particles p, outside the span at times t, wait at the nearer edge
            zp = state[3, p]
            below = zp < z_s
            edge = np.where(below, z_s, z_e)
            reschedule(p, 2, t + _passage_times(np.abs(zp - edge), np.where(below, v, -v), D, rng), edge)

        def wait(p, r, t):
            # particles p at distances r > S_RX at times t wait at the disk's tangent
            dt, w = _lateral_waits(r - s_rx, D, rng)
            reschedule(p, 0, t + dt, np.hypot(s_rx, w))

        everyone = np.arange(n_part)
        if not z_s <= 0.0 <= z_e:
            leave(everyone, 0.0)
        if rho0 > s_rx:
            wait(everyone, rho, 0.0)
        due = times.searchsorted(np.maximum(t_xy, t_z), "right")
        while (live := due < n_rec).any():
            if not live.all():
                state, row, due = state[:, live], row[live], due[live]
                t_xy, rho, t_z, z = state
            t = times[due]
            gap = t - t_z
            z += rng.standard_normal(due.size) * np.sqrt(2.0 * D * gap) + v * gap
            t_z[:] = t
            span = (z >= z_s) & (z <= z_e)
            p = span.nonzero()[0]
            t_p = t[p]
            jump = rng.standard_normal((2, p.size))
            jump *= np.sqrt(2.0 * D * (t_p - t_xy[p]))
            jump[0] += rho[p]
            rho_p = np.hypot(jump[0], jump[1])
            rho[p] = rho_p
            t_xy[p] = t_p
            far = rho_p > s_rx
            hit = p[~far]
            np.add.at(tally, row[hit] + due[hit], one)
            due += 1
            # in the tail of the loop most steps have no passage to draw
            if p.size < due.size:
                out = (~span).nonzero()[0]
                leave(out, t[out])
            if hit.size < p.size:
                wait(p[far], rho_p[far], t_p[far])

        counts = tally.reshape(size, n_rec)
        # einsum casts the narrow tally in buffered blocks, with no full-size copy
        return np.stack((counts.sum(axis=0, dtype=float), np.einsum("ij,ij->j", counts, counts, dtype=float)))

    chunks = map_chunks(chunk_sums, cfg.realizations, REALIZATION_CHUNK, cfg.seed)
    sum_m, sum_m2 = sum(chunks, np.zeros((2, n_rec)))

    n = cfg.realizations
    sum_m /= cfg.particles
    sum_m2 /= cfg.particles**2
    mean = sum_m / n
    if n > 1:
        var = np.maximum(sum_m2 - sum_m * sum_m / n, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros(n_rec)
    return CirTrace(times=tuple(times.tolist()), mean_fraction=tuple(mean.tolist()), stderr=tuple(stderr.tolist()))
