"""Particle-ensemble traces against the analytic response and each other."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from mc_arelab import config, pbs
from mc_arelab.channel import PhysicalParams, ReceiverGeometry, peak_time
from mc_arelab.errors import ParameterError
from mc_arelab.pbs import CirTrace, PbsConfig, _passage_times, simulate_cir
from stochastic import max_chernoff_score


def record_grid(t_sim, dt=1e-3, record_every=10):
    """The uniform times dt * record_every * k up to t_sim, as the CLI builds them."""
    step = dt * record_every
    return tuple((step * np.arange(1, math.floor(t_sim / step + 1e-9) + 1)).tolist())


FULL_GRID = record_grid(15.0)


def nearest_index(trace, t):
    return int(np.argmin(np.abs(np.array(trace.times) - t)))


class CountingGenerator:
    """A Generator stand-in that counts the draws made through it.

    The particle code draws the lateral jumps as one (2, n) array, and one
    normal and two uniforms for each passage time; its other normals, one
    per (record, particle) pair where z is advanced, are the z steps.
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


def count_draws(monkeypatch, params, geom, cfg):
    """Passage times, z steps and lateral normals drawn by simulate_cir in all its chunks."""
    proxies = []

    def counting_map_chunks(fn, total, chunk, seed):
        def counted(size, rng):
            proxy = CountingGenerator(rng)
            proxies.append(proxy)
            return fn(size, proxy)

        return config.map_chunks(counted, total, chunk, seed)

    monkeypatch.setattr(pbs, "map_chunks", counting_map_chunks)
    simulate_cir(params, geom, (0.0, 0.0), cfg)
    passages = sum(proxy.uniforms for proxy in proxies) // 2
    normals = sum(proxy.normals for proxy in proxies)
    lateral = sum(proxy.lateral for proxy in proxies)
    return {"passages": passages, "z": normals - passages, "lateral": lateral}


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
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        traces = {}
        for particles in (20, 200):
            cfg = PbsConfig(times=record_grid(4.0), realizations=300, particles=particles, seed=29)
            traces[particles] = simulate_cir(params, geom, (0.0, 0.0), cfg)
        t_m = peak_time(params, geom)
        k = nearest_index(traces[20], t_m)
        small, big = traces[20], traces[200]
        ratio = small.stderr[k] / big.stderr[k]
        assert math.sqrt(10.0) * 0.7 <= ratio <= math.sqrt(10.0) * 1.5
        gap = abs(small.mean_fraction[k] - big.mean_fraction[k])
        assert gap <= 3.0 * (small.stderr[k] + big.stderr[k])

    @pytest.mark.parametrize("v", [0.0, 0.2])
    @pytest.mark.parametrize("offset", [0.0, 0.2])
    def test_whole_trace_within_chernoff_bound(self, v, offset):
        # every particle is independent, so each record's in-receiver count
        # is Binomial(N, cir(t)); N * D(observed || cir) > ln(2 n / alpha)
        # happens at any of the n records with probability at most alpha
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


class TestLateralDraws:
    def test_lateral_steps_only_inside_the_axial_span(self, monkeypatch):
        # at vanishing diffusion z = v t: the release passage lands at 2.0 s, and
        # z then meets the span [0.4, 0.6] m at 2.1, 2.5 and 2.9 s only. z is
        # advanced from 2.1 s to the end of that record block; the exit passage
        # drawn there has return probability exp(-v a / D) = 0, so none of the
        # later records draws anything
        params = PhysicalParams(D=1e-12)
        geom = ReceiverGeometry.centered(params)
        times = (0.5, 1.0, 1.9, 2.1, 2.5, 2.9, 3.1) + tuple(4.0 + k for k in range(3 * pbs.BLOCK_RECORDS))
        cfg = PbsConfig(times=times, realizations=150, particles=7, seed=3)
        n_total = cfg.realizations * cfg.particles
        draws = count_draws(monkeypatch, params, geom, cfg)
        assert draws == {"passages": 2 * n_total, "z": pbs.BLOCK_RECORDS * n_total, "lateral": 2 * 3 * n_total}

    def test_no_lateral_steps_when_the_span_is_never_met(self, monkeypatch):
        params = PhysicalParams(D=1e-12, v=0.0)
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=record_grid(2.0), realizations=150, particles=7, seed=3)
        n_total = cfg.realizations * cfg.particles
        assert count_draws(monkeypatch, params, geom, cfg) == {"passages": n_total, "z": 0, "lateral": 0}

    def test_z_is_drawn_at_few_of_the_records(self, monkeypatch):
        # at the defaults a particle is within reach of the axial span at
        # about 7.5% of the (record, particle) pairs
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(times=FULL_GRID, realizations=100, particles=100, seed=5)
        z_steps = count_draws(monkeypatch, params, geom, cfg)["z"]
        assert z_steps < 0.15 * len(FULL_GRID) * cfg.realizations * cfg.particles
