"""Particle-ensemble traces against the analytic response and each other."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mc_arelab import pbs
from mc_arelab.channel import PhysicalParams, ReceiverGeometry, peak_time
from mc_arelab.errors import ParameterError
from mc_arelab.pbs import (
    PARTICLE_BUDGET,
    CirTrace,
    PbsConfig,
    _chunks,
    _lateral_waits,
    _passage_times,
    _record_lookup,
    simulate_cir,
)
from stochastic import max_chernoff_score, max_dispersion_score


def record_grid(t_sim, dt=1e-3, record_every=10):
    """The uniform times dt * record_every * k up to t_sim, as the CLI builds them."""
    step = dt * record_every
    return tuple((step * np.arange(1, math.floor(t_sim / step + 1e-9) + 1)).tolist())


FULL_GRID = record_grid(15.0)


def nearest_index(trace, t):
    return int(np.argmin(np.abs(np.array(trace.times) - t)))


class CountingGenerator:
    """A Generator stand-in that counts the draws made through it.

    The particle code draws the lateral jumps and the lateral waits as
    (2, n) arrays, and one normal and two uniforms for each passage time;
    its other normals, one per (record, particle) pair where z is advanced,
    are the z steps.
    """

    def __init__(self, rng):
        self.rng = rng
        self.normals = 0
        self.lateral = 0
        self.uniforms = 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        draw = self.rng.standard_normal(size, dtype=dtype, out=out)
        if np.ndim(draw) == 2:
            self.lateral += np.size(draw)
        else:
            self.normals += np.size(draw)
        return draw

    def random(self, size=None, dtype=np.float64, out=None):
        draw = self.rng.random(size, dtype=dtype, out=out)
        self.uniforms += np.size(draw)
        return draw


def count_draws(monkeypatch, params, geom, cfg, offset=(0.0, 0.0)):
    """Passage times, z steps, lateral jumps and lateral waits drawn by simulate_cir in all its chunks."""
    proxies = []
    waits = []
    lateral_waits = pbs._lateral_waits
    chunks = pbs._chunks

    def counting_chunks(total, size, seed):
        for realizations, rng in chunks(total, size, seed):
            proxy = CountingGenerator(rng)
            proxies.append(proxy)
            yield realizations, proxy

    def counting_waits(a, D, rng):
        waits.append(a.size)
        return lateral_waits(a, D, rng)

    monkeypatch.setattr(pbs, "_chunks", counting_chunks)
    monkeypatch.setattr(pbs, "_lateral_waits", counting_waits)
    simulate_cir(params, geom, offset, cfg)
    passages = sum(proxy.uniforms for proxy in proxies) // 2
    normals = sum(proxy.normals for proxy in proxies)
    lateral = sum(proxy.lateral for proxy in proxies) // 2
    return {"passages": passages, "z": normals - passages, "lateral": lateral - sum(waits), "waits": sum(waits)}


class TestConfig:
    def test_defaults_valid(self):
        cfg = PbsConfig(times=(1.0,))
        assert [f.name for f in dataclasses.fields(PbsConfig)] == ["times", "realizations", "particles", "seed"]
        assert (cfg.realizations, cfg.particles, cfg.seed) == (3000, 100, 1)

    def test_bad_times_rejected(self):
        for times in ((), (0.2, 0.1), (0.1, 0.1), (0.0, 0.1), (math.nan,), (0.1, math.inf), (-1.0,), [0.1], None):
            with pytest.raises(ParameterError, match="times"):
                PbsConfig(times=times)

    def test_counts_positive(self):
        with pytest.raises(ParameterError):
            PbsConfig(times=(1.0,), realizations=0)
        with pytest.raises(ParameterError):
            PbsConfig(times=(1.0,), particles=0)

    def test_non_finite_and_non_integer_rejected(self):
        with pytest.raises(ParameterError, match="times"):
            PbsConfig(times=(math.nan,))
        with pytest.raises(ParameterError, match="times"):
            PbsConfig(times=(math.inf,))
        with pytest.raises(ParameterError, match="realizations"):
            PbsConfig(times=(1.0,), realizations=2.5)
        with pytest.raises(ParameterError, match="seed"):
            PbsConfig(times=(1.0,), seed=1.5)
        with pytest.raises(ParameterError, match="seed"):
            PbsConfig(times=(1.0,), seed=True)

    def test_times_of_any_real_type(self):
        times = (np.float64(0.5), 1, Fraction(3, 2), 2.0)
        assert PbsConfig(times=times).times == times
        for bad in ((0.5, True), (np.bool_(True),), (0.5, "1.0"), (0.5, None), (0.5, 1j)):
            with pytest.raises(ParameterError, match="times"):
                PbsConfig(times=bad)

    def test_trace_validation(self):
        with pytest.raises(ParameterError):
            CirTrace(times=(1.0,), mean_fraction=(0.5, 0.6), stderr=(0.0,))
        with pytest.raises(ParameterError):
            CirTrace(times=(1.0,), mean_fraction=(1.5,), stderr=(0.0,))


class TestSimulateCir:
    def test_record_grid(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=record_grid(0.5), realizations=1, particles=1, seed=1)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        assert len(trace.times) == 50
        assert trace.times[0] == pytest.approx(0.01)
        assert trace.times[-1] == pytest.approx(0.5)

    def test_non_uniform_times_returned_exactly(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        times = (0.013, 0.5, 0.51, 2.0, 7.25)
        trace = simulate_cir(params, geom, (0.0, 0.0), PbsConfig(times=times, realizations=3, particles=5))
        assert trace.times == times
        assert len(trace.mean_fraction) == len(trace.stderr) == len(times)

    def test_bad_offset_rejected(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=(1.0,), realizations=1, particles=1)
        for offset in ((math.nan, 0.0), (math.inf, 0.0), (0.1,), (0.1, 0.0, 0.0)):
            with pytest.raises(ParameterError, match="tx_offset"):
                simulate_cir(params, geom, offset, cfg)

    def test_deterministic_given_seed(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=record_grid(1.0), realizations=20, particles=10, seed=4)
        a = simulate_cir(params, geom, (0.0, 0.0), cfg)
        b = simulate_cir(params, geom, (0.0, 0.0), cfg)
        assert a == b

    def test_pure_advection_window(self):
        # vanishing diffusion: the cloud crosses the receiver as a point
        params = PhysicalParams(D=1e-12)
        geom = ReceiverGeometry.centered(params)
        dt = 1e-3
        cfg = PbsConfig(times=record_grid(4.0, dt=dt, record_every=1), realizations=2, particles=40, seed=31)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        times = np.array(trace.times)
        mean = np.array(trace.mean_fraction)
        lo, hi = geom.z_s / params.v, geom.z_e / params.v
        assert np.all(mean[(times >= lo + 2 * dt) & (times <= hi - 2 * dt)] == 1.0)
        assert np.all(mean[(times < lo - 2 * dt) | (times > hi + 2 * dt)] == 0.0)

    def test_no_flow_dilutes(self):
        params = PhysicalParams(v=0.0)
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=FULL_GRID, realizations=500, particles=100, seed=17)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        peak = max(trace.mean_fraction)
        assert peak > 0.0
        assert trace.mean_fraction[-1] < 0.01
        assert trace.mean_fraction[-1] < 0.6 * peak

    def test_matches_analytic_response_at_peak_time(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=FULL_GRID, realizations=400, particles=100, seed=13)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        k = nearest_index(trace, peak_time(params, geom))
        score, limit = max_chernoff_score(trace, cfg, 0.0, params, geom, alpha=1e-3, records=[k])
        assert score <= limit

    def test_matches_analytic_response_off_axis(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=record_grid(6.0), realizations=600, particles=100, seed=23)
        trace = simulate_cir(params, geom, (0.2, 0.0), cfg)
        records = [nearest_index(trace, t_check) for t_check in (1.2, 1.8, 2.4, 3.0, 4.0)]
        score, limit = max_chernoff_score(trace, cfg, 0.2, params, geom, alpha=1e-3, records=records)
        assert score <= limit

    def test_step_size_does_not_bias_the_peak(self):
        # independent noise per grid; guards against systematic dt effects at
        # the peak and at every other record of either grid
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        for dt in (1e-3, 5e-4):
            cfg = PbsConfig(times=record_grid(4.0, dt=dt), realizations=800, particles=100, seed=22)
            trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
            score, limit = max_chernoff_score(trace, cfg, 0.0, params, geom, alpha=1e-6)
            assert score <= limit, dt

    def test_more_particles_shrink_stderr_not_mean(self):
        # at the peak the realizations' counts are Binomial(particles, cir): the
        # mean and the spread about cir of each ensemble are checked against it,
        # at a family-wise alpha = 1e-3 over the four checks. The stderr of the
        # other ensemble, off by sqrt(10), must fail the spread check
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        traces, cfgs = {}, {}
        for particles in (20, 200):
            cfgs[particles] = PbsConfig(times=record_grid(4.0), realizations=300, particles=particles, seed=29)
            traces[particles] = simulate_cir(params, geom, (0.0, 0.0), cfgs[particles])
        k = nearest_index(traces[20], peak_time(params, geom))
        for particles, other in ((20, 200), (200, 20)):
            trace, cfg = traces[particles], cfgs[particles]
            for check in (max_chernoff_score, max_dispersion_score):
                score, limit = check(trace, cfg, 0.0, params, geom, alpha=2.5e-4, records=[k])
                assert score <= limit, (particles, check.__name__)
            planted = dataclasses.replace(trace, stderr=traces[other].stderr)
            score, limit = max_dispersion_score(planted, cfg, 0.0, params, geom, alpha=2.5e-4, records=[k])
            assert score > limit, particles

    @pytest.mark.parametrize("v", [0.0, 0.2])
    @pytest.mark.parametrize("offset", [0.0, 0.2, 0.4, 0.1])
    def test_whole_trace_within_chernoff_bound(self, v, offset):
        # every particle is independent, so each record's in-receiver count
        # is Binomial(N, cir(t)); N * D(observed || cir) > ln(2 n / alpha)
        # happens at any of the n records with probability at most alpha.
        # A release at 0.4 m waits laterally from the start; 0.1 m is S_RX,
        # the rim, where the first wait follows the first step out of the disk
        params = PhysicalParams(v=v)
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=FULL_GRID, realizations=200, particles=100, seed=41)
        trace = simulate_cir(params, geom, (offset, 0.0), cfg)
        score, limit = max_chernoff_score(trace, cfg, offset, params, geom, alpha=1e-6)
        assert score <= limit
        assert max(trace.mean_fraction) > 0.0

    @pytest.mark.parametrize("v", [0.0, 0.2])
    def test_release_inside_the_span_within_chernoff_bound(self, v):
        # z_s = -0.05 < 0: no passage is drawn at the release
        params = PhysicalParams(v=v, d=0.05, l_rx=0.2)
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=FULL_GRID, realizations=200, particles=100, seed=43)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        score, limit = max_chernoff_score(trace, cfg, 0.0, params, geom, alpha=1e-6)
        assert score <= limit
        assert trace.mean_fraction[0] > 0.5


def ulp_run(start, count):
    """``count`` consecutive floats from ``start`` up."""
    return (np.float64(start).view(np.int64) + np.arange(count)).view(np.float64)


LOOKUP_GRIDS = {
    "uniform": np.array(FULL_GRID),
    "fine uniform": np.array(record_grid(4.0, dt=5e-4, record_every=1)),
    "geometric": np.geomspace(1e-3, 15.0, 400),
    # runs of adjacent floats: the 40 from 2.0 up share one bucket
    "clustered": np.concatenate((ulp_run(1e-3, 20), np.linspace(0.5, 2.0, 30)[1:-1], ulp_run(2.0, 40), [9.5, 15.0])),
    "one record": np.array([0.7]),
    # (n + 1/2) / times[-1] is past the largest float for both
    "subnormal": ulp_run(5e-324, 3),
    "tiny": 1e-306 * np.arange(1, 200),
}


def lookup_misses(lookup, times):
    """Queries where ``lookup`` differs from times.searchsorted(t, "right").

    They are every record time, both float neighbours of each, 0, 1e300
    and inf (a passage that never ends), and times drawn over the whole grid.
    """
    drawn = np.random.default_rng(0).uniform(0.0, 1.1 * times[-1], 5000)
    queries = np.concatenate(
        (times, np.nextafter(times, 0.0), np.nextafter(times, np.inf), [0.0, 1e300, np.inf], drawn)
    )
    return np.count_nonzero(lookup(queries) != times.searchsorted(queries, "right"))


class TestRecordLookup:
    @pytest.mark.parametrize("grid", list(LOOKUP_GRIDS))
    def test_equals_searchsorted(self, grid):
        times = LOOKUP_GRIDS[grid]
        assert (times[1:] > times[:-1]).all()
        assert lookup_misses(_record_lookup(times), times) == 0

    @pytest.mark.parametrize("grid", list(LOOKUP_GRIDS))
    def test_a_lookup_off_by_one_at_the_records_is_caught(self, grid):
        # a record time counted as after itself, as searchsorted "left" does
        times = LOOKUP_GRIDS[grid]
        assert lookup_misses(lambda t: times.searchsorted(t, "left"), times) >= times.size


class TestChunks:
    def test_sizes_cover_the_total_in_order(self):
        assert [size for size, _ in _chunks(250, 100, 0)] == [100, 100, 50]
        assert [size for size, _ in _chunks(200, 100, 0)] == [100, 100]
        assert [size for size, _ in _chunks(7, 100, 0)] == [7]

    def test_one_substream_per_chunk(self):
        draws = [rng.random(size).tolist() for size, rng in _chunks(25, 10, 3)]
        assert len({chunk[0] for chunk in draws}) == 3
        assert [rng.random(size).tolist() for size, rng in _chunks(25, 10, 3)] == draws
        assert [rng.random(size).tolist() for size, rng in _chunks(25, 10, 4)] != draws

    def test_chunks_are_made_as_they_are_consumed(self):
        chunks = _chunks(25, 10, 3)
        assert next(chunks)[0] == 10
        assert [size for size, _ in chunks] == [10, 5]

    @pytest.mark.parametrize("particles, per_chunk", [(100, 327), (10, 3276), (2**15, 1), (10**6, 1)])
    def test_a_chunk_holds_the_particle_budget(self, monkeypatch, particles, per_chunk):
        asked = []

        def recording_chunks(total, size, seed):
            asked.append((total, size, seed))
            return iter(())

        assert PARTICLE_BUDGET == 2**15
        monkeypatch.setattr(pbs, "_chunks", recording_chunks)
        params = PhysicalParams()
        cfg = PbsConfig(times=(1.0,), particles=particles, seed=9)
        simulate_cir(params, ReceiverGeometry.centered(params), (0.0, 0.0), cfg)
        assert asked == [(3000, per_chunk, 9)]

    def test_the_readme_ensemble_stays_small_in_memory(self):
        # 3000 realizations of 100 particles, released at site 1 of the default
        # grid, are ten chunks of at most 32,700 particles; one chunk of all
        # 300,000 would need several times the bound
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=record_grid(3.0), realizations=3000, particles=100, seed=3)
        tracemalloc.start()
        try:
            simulate_cir(params, geom, (0.17320508075688773, 0.1), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestPassageTimes:
    @pytest.mark.parametrize(
        "a,v,D",
        [(0.4, 0.2, 0.01), (0.002, 0.2, 0.01), (1e-12, 0.2, 0.01), (0.2, 0.2, 1e-12), (0.01, 1.0, 0.5)],
    )
    def test_inverse_gaussian_toward_the_edge(self, a, v, D):
        rng = np.random.default_rng(7)
        times = _passage_times(np.full(20_000, a), np.full(20_000, v), D, rng)
        mu, lam = a / v, a * a / (2.0 * D)
        assert stats.kstest(times, stats.invgauss(mu / lam, scale=lam).cdf).pvalue > 1e-3

    def test_levy_without_drift(self):
        rng = np.random.default_rng(8)
        a, D = 0.4, 0.01
        times = _passage_times(np.full(20_000, a), np.zeros(20_000), D, rng)
        assert np.all(np.isfinite(times))
        assert stats.kstest(times, stats.levy(scale=a * a / (2.0 * D)).cdf).pvalue > 1e-3

    def test_drift_away_reaches_the_edge_with_probability_exp_minus_v_a_over_d(self):
        rng = np.random.default_rng(9)
        a, v, D, n = 0.05, 0.2, 0.01, 40_000
        times = _passage_times(np.full(n, a), np.full(n, -v), D, rng)
        reached = np.isfinite(times)
        p = math.exp(-v * a / D)
        assert abs(reached.mean() - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)
        # given that it gets there, the time has the law of the drift toward the edge
        mu, lam = a / v, a * a / (2.0 * D)
        assert stats.kstest(times[reached], stats.invgauss(mu / lam, scale=lam).cdf).pvalue > 1e-3


class ZeroGenerator:
    """A Generator stand-in whose normals are all exactly 0."""

    def standard_normal(self, size=None):
        return np.zeros(size)


class TestLateralWaits:
    def test_levy_time_and_normal_offset_across(self):
        # alpha = 1e-3 per KS check, as for the axial passage times
        rng = np.random.default_rng(10)
        a, D, n = 0.3, 0.01, 20_000
        wait, across = _lateral_waits(np.full(n, a), D, rng)
        assert stats.kstest(wait, stats.levy(scale=a * a / (2.0 * D)).cdf).pvalue > 1e-3
        # given the time T the offset is Normal(0, 2D T), in either half of the times
        unit = across / np.sqrt(2.0 * D * wait)
        short = wait < np.median(wait)
        for part in (unit[short], unit[~short]):
            assert stats.kstest(part, "norm").pvalue > 1e-3

    def test_a_walk_that_never_arrives_has_no_offset(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wait, across = _lateral_waits(np.array([0.3, 1e-300, 1e300]), 1e-12, ZeroGenerator())
        assert np.all(wait == np.inf)
        assert np.all(across == 0.0)

    @pytest.mark.parametrize("defect", ["level rho", "no offset across"])
    @pytest.mark.parametrize("v", [0.0, 0.2])
    @pytest.mark.parametrize("offset", [0.4, 0.1])
    def test_planted_wait_defects_fail_the_chernoff_check(self, monkeypatch, defect, v, offset):
        # test_whole_trace_within_chernoff_bound at its seed, with a wait for
        # the level rho in place of rho - S_RX, or with the particle landing
        # on the line to the axis
        params = PhysicalParams(v=v)
        geom = ReceiverGeometry.centered(params)
        lateral_waits = pbs._lateral_waits
        if defect == "level rho":
            monkeypatch.setattr(pbs, "_lateral_waits", lambda a, D, rng: lateral_waits(a + params.s_rx, D, rng))
        else:
            monkeypatch.setattr(pbs, "_lateral_waits", lambda a, D, rng: (lateral_waits(a, D, rng)[0], 0.0 * a))
        cfg = PbsConfig(times=FULL_GRID, realizations=200, particles=100, seed=41)
        trace = simulate_cir(params, geom, (offset, 0.0), cfg)
        score, limit = max_chernoff_score(trace, cfg, offset, params, geom, alpha=1e-6)
        assert score > limit


class TestLateralDraws:
    def test_lateral_steps_only_inside_the_axial_span(self, monkeypatch):
        # at vanishing diffusion z = v t: the release passage lands at 2.0 s, and
        # z then meets the span [0.4, 0.6] m at 2.1, 2.5 and 2.9 s only. z is
        # drawn there and at 3.1 s, where it has left the span; the exit passage
        # drawn there has return probability exp(-v a / D) = 0, so none of the
        # later records draws anything. The particle stays on the axis, inside
        # the disk, so it never waits laterally
        params = PhysicalParams(D=1e-12)
        geom = ReceiverGeometry.centered(params)
        times = (0.5, 1.0, 1.9, 2.1, 2.5, 2.9, 3.1) + tuple(4.0 + k for k in range(48))
        cfg = PbsConfig(times=times, realizations=150, particles=7, seed=3)
        n_total = cfg.realizations * cfg.particles
        draws = count_draws(monkeypatch, params, geom, cfg)
        assert draws == {"passages": 2 * n_total, "z": 4 * n_total, "lateral": 3 * n_total, "waits": 0}

    @pytest.mark.parametrize("d", [0.5, 0.05])
    def test_a_release_beyond_the_disk_waits_once(self, monkeypatch, d):
        # at vanishing diffusion a release 0.3 m outside the disk needs a Levy
        # time of order 0.3^2 / (2D) = 4.5e10 s to reach it, so after its one
        # wait no record is due: neither z nor (x, y) is ever drawn. At d = 0.05
        # the release lies in the axial span and draws no passage either
        params = PhysicalParams(D=1e-12, d=d)
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=record_grid(5.0), realizations=150, particles=7, seed=3)
        n_total = cfg.realizations * cfg.particles
        passages = n_total if geom.z_s > 0.0 else 0
        draws = count_draws(monkeypatch, params, geom, cfg, offset=(0.4, 0.0))
        assert draws == {"passages": passages, "z": 0, "lateral": 0, "waits": n_total}

    def test_no_lateral_steps_when_the_span_is_never_met(self, monkeypatch):
        params = PhysicalParams(D=1e-12, v=0.0)
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=record_grid(2.0), realizations=150, particles=7, seed=3)
        n_total = cfg.realizations * cfg.particles
        assert count_draws(monkeypatch, params, geom, cfg) == {"passages": n_total, "z": 0, "lateral": 0, "waits": 0}

    def test_z_is_drawn_at_few_of_the_records(self, monkeypatch):
        # at the defaults a particle is advanced at about 1.1% of the (record,
        # particle) pairs, 16 of 1,500 records, and 9.3 of those find it inside
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=FULL_GRID, realizations=100, particles=100, seed=5)
        draws = count_draws(monkeypatch, params, geom, cfg)
        pairs = len(FULL_GRID) * cfg.realizations * cfg.particles
        assert draws["z"] < 0.015 * pairs
        assert draws["lateral"] < draws["z"]
