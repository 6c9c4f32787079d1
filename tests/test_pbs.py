"""Particle-ensemble traces against the analytic response and each other."""

import math

import numpy as np
import pytest

from mc_arelab.channel import PhysicalParams, ReceiverGeometry, cir, peak_time
from mc_arelab.errors import ParameterError
from mc_arelab.pbs import CirTrace, PbsConfig, simulate_cir


def nearest_index(trace, t):
    return int(np.argmin(np.abs(np.array(trace.times) - t)))


class TestConfig:
    def test_defaults_valid(self):
        cfg = PbsConfig()
        assert cfg.dt == 1e-3
        assert cfg.realizations == 3000

    def test_step_must_fit_horizon(self):
        with pytest.raises(ParameterError, match="t_sim"):
            PbsConfig(dt=2.0, t_sim=1.0)

    def test_counts_positive(self):
        with pytest.raises(ParameterError):
            PbsConfig(realizations=0)
        with pytest.raises(ParameterError):
            PbsConfig(particles=0)
        with pytest.raises(ParameterError):
            PbsConfig(record_every=0)

    def test_non_finite_and_non_integer_rejected(self):
        with pytest.raises(ParameterError, match="dt"):
            PbsConfig(dt=math.nan)
        with pytest.raises(ParameterError, match="t_sim"):
            PbsConfig(t_sim=math.inf)
        with pytest.raises(ParameterError, match="seed"):
            PbsConfig(seed=1.5)
        with pytest.raises(ParameterError, match="seed"):
            PbsConfig(seed=True)

    def test_trace_validation(self):
        with pytest.raises(ParameterError):
            CirTrace(times=(1.0,), mean_fraction=(0.5, 0.6), stderr=(0.0,))
        with pytest.raises(ParameterError):
            CirTrace(times=(1.0,), mean_fraction=(1.5,), stderr=(0.0,))


class TestSimulateCir:
    def test_record_grid(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(t_sim=0.5, realizations=1, particles=1, seed=1)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        assert len(trace.times) == 50
        assert trace.times[0] == pytest.approx(0.01)
        assert trace.times[-1] == pytest.approx(0.5)

    def test_deterministic_given_seed(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(t_sim=1.0, realizations=20, particles=10, seed=4)
        a = simulate_cir(params, geom, (0.0, 0.0), cfg)
        b = simulate_cir(params, geom, (0.0, 0.0), cfg)
        assert a == b

    def test_pure_advection_window(self):
        # vanishing diffusion: the cloud crosses the receiver as a point
        params = PhysicalParams(D=1e-12)
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(dt=1e-3, t_sim=4.0, realizations=2, particles=40, record_every=1, seed=31)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        times = np.array(trace.times)
        mean = np.array(trace.mean_fraction)
        lo, hi = geom.z_s / params.v, geom.z_e / params.v
        assert np.all(mean[(times >= lo + 2 * cfg.dt) & (times <= hi - 2 * cfg.dt)] == 1.0)
        assert np.all(mean[(times < lo - 2 * cfg.dt) | (times > hi + 2 * cfg.dt)] == 0.0)

    def test_no_flow_dilutes(self):
        params = PhysicalParams(v=0.0)
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(realizations=500, particles=100, seed=17)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        peak = max(trace.mean_fraction)
        assert peak > 0.0
        assert trace.mean_fraction[-1] < 0.01
        assert trace.mean_fraction[-1] < 0.6 * peak

    def test_matches_analytic_response_at_peak_time(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(realizations=400, particles=100, seed=13)
        trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
        k = nearest_index(trace, peak_time(params, geom))
        ref = cir(trace.times[k], 0.0, params, geom)
        assert abs(trace.mean_fraction[k] - ref) <= 3.0 * trace.stderr[k]

    def test_matches_analytic_response_off_axis(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        cfg = PbsConfig(t_sim=6.0, realizations=600, particles=100, seed=23)
        trace = simulate_cir(params, geom, (0.2, 0.0), cfg)
        for t_check in (1.2, 1.8, 2.4, 3.0, 4.0):
            k = nearest_index(trace, t_check)
            ref = cir(trace.times[k], 0.2, params, geom)
            assert abs(trace.mean_fraction[k] - ref) <= 3.0 * trace.stderr[k]

    def test_step_size_does_not_bias_the_peak(self):
        # independent noise per grid; guards against systematic dt effects
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        t_m = peak_time(params, geom)
        estimates = {}
        for dt in (1e-3, 5e-4):
            cfg = PbsConfig(dt=dt, t_sim=4.0, realizations=800, particles=100, seed=22)
            trace = simulate_cir(params, geom, (0.0, 0.0), cfg)
            k = nearest_index(trace, t_m)
            estimates[dt] = (trace.mean_fraction[k], trace.stderr[k])
        diff = abs(estimates[1e-3][0] - estimates[5e-4][0])
        assert diff < estimates[1e-3][1]

    def test_more_particles_shrink_stderr_not_mean(self):
        params = PhysicalParams()
        geom = ReceiverGeometry.centered(params)
        traces = {}
        for particles in (20, 200):
            cfg = PbsConfig(t_sim=4.0, realizations=300, particles=particles, seed=29)
            traces[particles] = simulate_cir(params, geom, (0.0, 0.0), cfg)
        t_m = peak_time(params, geom)
        k = nearest_index(traces[20], t_m)
        small, big = traces[20], traces[200]
        ratio = small.stderr[k] / big.stderr[k]
        assert math.sqrt(10.0) * 0.7 <= ratio <= math.sqrt(10.0) * 1.5
        gap = abs(small.mean_fraction[k] - big.mean_fraction[k])
        assert gap <= 3.0 * (small.stderr[k] + big.stderr[k])
