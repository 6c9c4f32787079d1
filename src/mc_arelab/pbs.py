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

import sys
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .channel import PhysicalParams, ReceiverGeometry
from .errors import ParameterError, is_finite_real, is_integer

__all__ = ["CirTrace", "PbsConfig", "simulate_cir"]

# particles per chunk of realizations; its tally and state stay a few MB
PARTICLE_BUDGET = 2**15


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
    2D the variance per second. With v = |drift| and k = v a / D, the edge
    is reached with probability exp(-k) against the drift, and surely with
    it, then after an IG(a / v, a^2 / (2D)) time. That time is drawn by
    Michael-Schucany-Haas, written in k: with Q = N^2 and
    R = Q + k + sqrt(Q (Q + 2k)), X = (a^2 / D) / R is kept when
    U (R + k) <= R, that is U (a + v X) <= a, and replaced by
    a^2 / (v^2 X) = (a^2 / D) R / k^2 otherwise. Every term is positive,
    so nothing cancels at any scale of a, v and D, and at v = 0 it is the
    Levy law a^2 / (2D N^2) with no division by v.
    """
    reach = a / D
    scale = reach * a
    reach *= drift  # -k against the drift, k with it
    k = np.abs(reach)
    q = rng.standard_normal(a.size)
    q *= q
    root = k + k
    root += q
    root *= q
    np.sqrt(root, out=root)
    root += q
    root += k
    rng.random(out=q)
    q *= root + k
    flip = q > root
    # R = 0 at v = 0 is the Levy law's infinite tail, reached only by N = 0
    # exactly; the replacement divides by k^2, 0 at v = 0, where it is never taken
    with np.errstate(divide="ignore", invalid="ignore"):
        x = scale / root
        scale *= root
        scale /= np.square(k, out=k)
    np.copyto(x, scale, where=flip)
    np.minimum(reach, 0.0, out=reach)
    rng.random(out=q)
    np.copyto(x, np.inf, where=q >= np.exp(reach, out=reach))
    return x


def _lateral_waits(a: np.ndarray, D: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Levy times T for a lateral walk to cover the distances a > 0 toward the axis, and its offsets across.

    One (2, n) normal draw (N, W) gives T = a^2 / (2D N^2) and the offset
    Normal(0, 2D T) = W sqrt(2D T). At N = 0, T is inf and the offset 0.
    """
    wait, w = rng.standard_normal((2, a.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.abs(wait, out=wait)
        np.divide(a, wait, out=wait)  # sqrt(2D T)
        w *= wait
        w[np.isinf(wait)] = 0.0
        wait *= wait
        wait /= 2.0 * D
    return wait, w


def _record_lookup(times: np.ndarray):
    """A function giving, for times t >= 0, the first record after each: times.searchsorted(t, "right").

    The buckets b(t) = floor(min(t, times[-1]) (n + 1/2) / times[-1]) of
    the n records are monotone in t, so every record in a lower bucket than
    t's lies at or before t and every one in a higher bucket after it. The
    index is the first record of t's bucket, from a table built with the
    same b, plus the records of that bucket at or before t. Table and guess
    round alike, so no rounding of the product moves t across a bucket
    edge. The count is found in a fixed number of steps, one per bit of the
    fullest bucket's size: each adds a power of two where the record that
    many further on is still at or before t. On a uniform grid the records
    sit at k + k / 2n, one to a bucket, and one step does.
    """
    n = times.size
    # past the largest float for records below about n * 1e-308; a smaller
    # scale only puts more records in a bucket
    scale = min((n + 0.5) / float(times[-1]), sys.float_info.max)
    buckets = np.floor(times * scale)
    first = buckets.searchsorted(np.arange(buckets[-1] + 2))
    widths = [1 << j for j in reversed(range(int(np.diff(first).max()).bit_length()))]
    # nan past the last record: no time t, not even inf, counts it
    padded = np.append(times, np.full(widths[0], np.nan))
    # a probe w records on reads the view that starts w - 1 records in
    probes = [(w, padded[w - 1 :]) for w in widths]

    def lookup(t: np.ndarray) -> np.ndarray:
        index = first[(np.minimum(t, times[-1]) * scale).astype(np.intp)]
        for w, ahead in probes:
            still = ahead[index] <= t
            index += w * still if w > 1 else still
        return index

    return lookup


def _chunks(total: int, size: int, seed: int):
    """(realizations, generator) for each chunk of ``total`` realizations, at most ``size`` each, in order.

    Chunk i draws from substream i of SeedSequence(seed).
    """
    sizes = [size] * (total // size) + ([total % size] if total % size else [])
    for n, stream in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        yield n, np.random.default_rng(stream)


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
    realizations. They run serially in chunks of PARTICLE_BUDGET //
    particles realizations (at least one), each with its own substream of
    SeedSequence(seed) and one event loop, so the trace depends only on the
    seed and the sizes.
    """
    if len(tx_offset) != 2 or not all(is_finite_real(u) for u in tx_offset):
        raise ParameterError(f"tx_offset must be two finite coordinates, got {tx_offset!r}")
    rho0 = float(np.hypot(tx_offset[0], tx_offset[1]))
    times = np.array(cfg.times, dtype=float)
    n_rec = times.size
    D, v, s_rx = params.D, params.v, params.s_rx
    z_s, z_e = geom.z_s, geom.z_e
    first_after = _record_lookup(times)

    def chunk_sums(size: int, rng: np.random.Generator):
        n_part = size * cfg.particles
        # rows: the time t_xy and the distance from the axis then, and the time
        # t_z and z then, of the live particles. After a passage they hold its end:
        # the time the lateral walk meets the disk's tangent and the distance
        # there, or the time z gets to the nearer axial edge, inf if it never
        # does, and the edge.
        state = np.zeros((4, n_part))
        state[1] = rho0
        t_xy, rho, t_z, z = state
        # rows: the offset of each particle's realization in the tally, and
        # `due`, the record it is next advanced at
        slots = np.zeros((2, n_part), dtype=np.intp)
        slots[0] = np.repeat(np.arange(0, size * n_rec, n_rec, dtype=np.intp), cfg.particles)
        row, due = slots
        tally = np.zeros(size * n_rec, dtype=np.min_scalar_type(cfg.particles))
        one = tally.dtype.type(1)  # np.add.at takes its fast path only at the tally's own dtype

        edges, toward = np.array([z_e, z_s]), np.array([-v, v])

        def leave(p, t):
            # particles p, outside the span at times t, wait for the first record
            # after they reach the nearer edge: down to z_e or up to z_s
            zp = z[p]
            below = (zp < z_s).view(np.int8)
            edge = edges.take(below)
            zp -= edge
            ends = _passage_times(np.abs(zp, out=zp), toward.take(below), D, rng)
            ends += t
            t_z[p] = ends
            z[p] = edge
            due[p] = first_after(ends)

        def wait(p, r, t):
            # particles p at distances r > S_RX at times t wait for the first
            # record after they reach the disk's tangent
            ends, w = _lateral_waits(r - s_rx, D, rng)
            ends += t
            w *= w
            w += s_rx * s_rx
            t_xy[p] = ends
            rho[p] = np.sqrt(w, out=w)
            due[p] = first_after(ends)

        everyone = np.arange(n_part)
        if not z_s <= 0.0 <= z_e:
            leave(everyone, 0.0)
        if rho0 > s_rx:
            wait(everyone, rho, 0.0)
        due[:] = first_after(np.maximum(t_xy, t_z))
        while True:
            live = due < n_rec
            n_live = np.count_nonzero(live)
            if n_live < due.size:
                if not n_live:
                    break
                # take by index: a boolean mask along the second axis copies far slower
                keep = live.nonzero()[0]
                state, slots = state.take(keep, axis=1), slots.take(keep, axis=1)
                t_xy, rho, t_z, z = state
                row, due = slots
            t = times[due]
            gap = t - t_z
            spread = gap * (2.0 * D)
            step = rng.standard_normal(due.size)
            step *= np.sqrt(spread, out=spread)
            z += step
            gap *= v
            z += gap
            t_z[:] = t
            span = (z >= z_s) & (z <= z_e)
            p = span.nonzero()[0]
            t_p = t[p]
            spread = t_p - t_xy[p]
            spread *= 2.0 * D
            jump = rng.standard_normal((2, p.size))
            jump *= np.sqrt(spread, out=spread)
            jump[0] += rho[p]
            jump *= jump
            rho_p = jump[0] + jump[1]
            np.sqrt(rho_p, out=rho_p)
            rho[p] = rho_p
            t_xy[p] = t_p
            far = rho_p > s_rx
            hit = p.compress(~far)
            np.add.at(tally, row[hit] + due[hit], one)
            due += 1
            # in the tail of the loop most steps have no passage to draw
            if p.size < due.size:
                out = (~span).nonzero()[0]
                leave(out, t[out])
            if hit.size < p.size:
                wait(p.compress(far), rho_p.compress(far), t_p.compress(far))

        counts = tally.reshape(size, n_rec)
        # einsum casts the narrow tally in buffered blocks, with no full-size copy
        return np.stack((counts.sum(axis=0, dtype=float), np.einsum("ij,ij->j", counts, counts, dtype=float)))

    sums = np.zeros((2, n_rec))
    for size, rng in _chunks(cfg.realizations, max(1, PARTICLE_BUDGET // cfg.particles), cfg.seed):
        sums += chunk_sums(size, rng)
    sum_m, sum_m2 = sums

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
