import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mc_arelab.channel import (
    ChannelSummary,
    PhysicalParams,
    ReceiverGeometry,
    cir,
    cir_uca,
    peak_time,
    summarize,
)
from mc_arelab.errors import ParameterError, SearchError
from mc_arelab.gridgeom import GridKind, enumerate_sites

from oracles import cir_ncx2, cir_quadrature, cir_regularized_fsum, oracle_peak_time

DEFAULTS = PhysicalParams()
GEOM = ReceiverGeometry.centered(DEFAULTS)


class TestTypes:
    def test_default_geometry(self):
        assert GEOM.z_s == pytest.approx(0.4)
        assert GEOM.z_e == pytest.approx(0.6)
        assert GEOM.volume == pytest.approx(0.1**2 * math.pi * 0.2, rel=1e-14)

    def test_params_validation_names_field(self):
        with pytest.raises(ParameterError, match="D"):
            PhysicalParams(D=0.0)
        with pytest.raises(ParameterError, match="s_rx"):
            PhysicalParams(s_rx=-0.1)
        with pytest.raises(ParameterError, match="n_mol"):
            PhysicalParams(n_mol=0)
        with pytest.raises(ParameterError, match="c_noise"):
            PhysicalParams(c_noise=-1.0)
        with pytest.raises(ParameterError, match="v"):
            PhysicalParams(v=math.nan)
        with pytest.raises(ParameterError, match="D"):
            PhysicalParams(D=math.inf)
        with pytest.raises(ParameterError, match="n_mol"):
            PhysicalParams(n_mol=2.5)
        with pytest.raises(ParameterError, match="s_rx"):
            PhysicalParams(s_rx=True)

    def test_geometry_validation(self):
        with pytest.raises(ParameterError):
            ReceiverGeometry(z_s=0.6, z_e=0.4, volume=1.0)
        with pytest.raises(ParameterError):
            ReceiverGeometry(z_s=0.4, z_e=0.6, volume=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("z_s", -math.inf),
            ("z_s", math.nan),
            ("z_e", math.inf),
            ("z_e", math.nan),
            ("volume", math.inf),
            ("volume", math.nan),
            ("volume", True),
            ("z_e", "0.6"),
        ],
    )
    def test_geometry_rejects_non_finite_values(self, field, value):
        fields = {"z_s": 0.4, "z_e": 0.6, "volume": 1.0, field: value}
        with pytest.raises(ParameterError, match=field):
            ReceiverGeometry(**fields)


class TestCir:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ParameterError):
            cir(0.0, 0.0, DEFAULTS, GEOM)
        with pytest.raises(ParameterError):
            cir(-1.0, 0.0, DEFAULTS, GEOM)

    def test_vanishes_as_t_to_zero(self):
        assert cir(1e-9, 0.0, DEFAULTS, GEOM) <= 1e-12
        assert cir(1e-9, 0.2, DEFAULTS, GEOM) <= 1e-12

    def test_far_transmitter_is_dead(self):
        assert cir(2.5, 1e3, DEFAULTS, GEOM) < 1e-300

    def test_quadrature_agreement_on_axis(self):
        value = cir(2.5, 0.0, DEFAULTS, GEOM)
        ref = cir_quadrature(2.5, 0.0, DEFAULTS, GEOM)
        assert abs(value - ref) / ref <= 1e-8

    def test_quadrature_agreement_off_axis(self):
        for t, r_i in [(1.2, 0.35), (4.0, 0.2 * math.sqrt(3.0)), (0.7, 0.1)]:
            value = cir(t, r_i, DEFAULTS, GEOM)
            ref = cir_quadrature(t, r_i, DEFAULTS, GEOM)
            assert abs(value - ref) / ref <= 1e-8

    def test_truncation_insensitive_at_first_ring(self):
        a = cir(1.845, 0.2, DEFAULTS, GEOM, k_max=20)
        b = cir(1.845, 0.2, DEFAULTS, GEOM, k_max=40)
        assert abs(a - b) <= 1e-12

    def test_truncation_convergence_at_eval_points(self):
        t_m = peak_time(DEFAULTS, GEOM)
        for ring in (1, math.sqrt(3), 2, math.sqrt(7), 3):
            r_i = 0.2 * ring
            a = cir(t_m, r_i, DEFAULTS, GEOM, k_max=20)
            b = cir(t_m, r_i, DEFAULTS, GEOM, k_max=60)
            assert abs(a - b) / b < 1e-10

    def test_bounded_probability(self):
        for t in (0.1, 0.5, 2.0, 10.0):
            for r_i in (0.0, 0.1, 0.4, 1.0):
                value = cir(t, r_i, DEFAULTS, GEOM)
                assert 0.0 <= value <= 1.0

    def test_monotone_decay_across_rings(self):
        t_m = peak_time(DEFAULTS, GEOM)
        dists = [0.2 * f for f in (1, math.sqrt(3), 2, math.sqrt(7), 3)]
        vals = [cir(t_m, r, DEFAULTS, GEOM) for r in dists]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gamma_forms_agree_on_axis(self):
        a = cir(1.7, 0.0, DEFAULTS, GEOM, gamma_form="lower")
        b = cir(1.7, 0.0, DEFAULTS, GEOM, gamma_form="regularized")
        assert a == b

    def test_regularized_form_decays_faster(self):
        a = cir(1.7, 0.4, DEFAULTS, GEOM, gamma_form="lower")
        b = cir(1.7, 0.4, DEFAULTS, GEOM, gamma_form="regularized")
        assert b < a

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            cir(1.0, -0.1, DEFAULTS, GEOM)
        with pytest.raises(ParameterError):
            cir(1.0, 0.1, DEFAULTS, GEOM, k_max=-1)
        with pytest.raises(ParameterError):
            cir(1.0, 0.1, DEFAULTS, GEOM, gamma_form="upper")


class TestCirSeries:
    @staticmethod
    def _touching(c: float, diff: float):
        params = replace(DEFAULTS, D=diff, s_rx=0.5 * c)
        geom = ReceiverGeometry.centered(params)
        return params, geom, peak_time(params, geom)

    def test_matches_ncx2_oracle(self):
        # rings 1-3 of the hex grid at the peak time; c = 1.52, D = 0.005 is
        # where a fixed order of 20 gave a first-ring mean 4.3x too small
        for diff in (0.005, 0.01, 0.02):
            for c in (0.1, 0.2, 0.35, 0.6, 1.0, 1.52, 2.0):
                params, geom, t_m = self._touching(c, diff)
                for r_i in (c, math.sqrt(3.0) * c, 2.0 * c):
                    value = cir(t_m, r_i, params, geom)
                    ref = cir_ncx2(t_m, r_i, params, geom)
                    assert abs(value - ref) <= 1e-10 * ref, (diff, c, r_i, value, ref)

    def test_regularized_matches_exact_sum_past_the_order(self):
        for diff, c in ((0.005, 1.52), (0.01, 0.2), (0.02, 2.0)):
            params, geom, t_m = self._touching(c, diff)
            for r_i in (c, 2.0 * c, 3.0 * c):
                value = cir(t_m, r_i, params, geom, gamma_form="regularized")
                ref = cir_regularized_fsum(t_m, r_i, params, geom, orders=300)
                assert abs(value - ref) <= 1e-10 * ref, (diff, c, r_i, value, ref)

    def test_array_call_equals_scalar_calls_bit_for_bit(self):
        # 1200 points: several passes of the radial series, each mixing orders
        params, geom, _ = self._touching(1.52, 0.005)
        t = np.geomspace(0.05, 15.0, 200)
        r = np.array([0.0, 0.3, 1.52, 2.6, 4.56, 9.0])
        for gamma_form in ("lower", "regularized"):
            grid = cir(t[:, None], r, params, geom, k_max=3, gamma_form=gamma_form)
            assert grid.shape == (200, 6)
            for i, t_i in enumerate(t.tolist()):
                for j, r_j in enumerate(r.tolist()):
                    assert grid[i, j] == cir(t_i, r_j, params, geom, k_max=3, gamma_form=gamma_form)

    def test_scalar_call_returns_float(self):
        assert type(cir(2.0, 0.2, DEFAULTS, GEOM)) is float

    def test_extremes_stay_small_in_memory(self):
        tracemalloc.start()
        try:
            assert cir(2.5, 1e3, DEFAULTS, GEOM) < 1e-300
            assert cir(1e-9, 0.2, DEFAULTS, GEOM) <= 1e-12
            # near-pure advection: an order of about 3e6 if the series ran
            assert cir(2.5, 0.2, replace(DEFAULTS, D=1e-9), GEOM) == 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_k_max_is_only_a_minimum(self):
        # k_max is a minimum: more orders than the certified ones change nothing beyond rounding
        t_m = peak_time(DEFAULTS, GEOM)
        a = cir(t_m, 0.4, DEFAULTS, GEOM, k_max=0)
        b = cir(t_m, 0.4, DEFAULTS, GEOM, k_max=200)
        assert abs(a - b) <= 1e-15 * b


class TestCirUca:
    def test_close_to_series_for_fast_diffusion(self):
        params = replace(DEFAULTS, D=0.1)
        geom = ReceiverGeometry.centered(params)
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 36)
        r_13 = layout.sites[13].radial_distance
        t_m = peak_time(params, geom)
        approx = cir_uca(t_m, r_13, params, geom)
        exact = cir(t_m, r_13, params, geom)
        assert abs(approx - exact) / exact <= 0.05

    def test_vanishes_as_t_to_zero(self):
        assert cir_uca(1e-9, 0.0, DEFAULTS, GEOM) == 0.0

    def test_linear_in_volume(self):
        g1 = ReceiverGeometry(z_s=0.4, z_e=0.6, volume=0.005)
        g2 = ReceiverGeometry(z_s=0.35, z_e=0.65, volume=0.010)
        assert cir_uca(2.0, 0.1, DEFAULTS, g2) == pytest.approx(
            2.0 * cir_uca(2.0, 0.1, DEFAULTS, g1), rel=1e-14
        )

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ParameterError):
            cir_uca(0.0, 0.0, DEFAULTS, GEOM)
        for t in (math.nan, math.inf, -1.0):
            with pytest.raises(ParameterError, match="t must"):
                cir_uca(t, 0.0, DEFAULTS, GEOM)
        for r_i in (math.nan, math.inf, -0.1):
            with pytest.raises(ParameterError, match="r_i must"):
                cir_uca(2.0, r_i, DEFAULTS, GEOM)


class TestPeakTime:
    def test_advection_limit(self):
        params = replace(DEFAULTS, D=1e-6)
        geom = ReceiverGeometry.centered(params)
        assert peak_time(params, geom) == pytest.approx(2.5, abs=0.01)

    def test_against_dense_scan_oracle(self):
        t_m = peak_time(DEFAULTS, GEOM)
        # frozen golden value from a 1e-4 s dense scan
        assert t_m == pytest.approx(1.84484, abs=2e-4)
        ts = [1.80 + 1e-4 * i for i in range(1001)]
        best = max(ts, key=lambda t: cir(t, 0.0, DEFAULTS, GEOM))
        assert t_m == pytest.approx(best, abs=1e-4)

    def test_halving_flow_doubles_arrival(self):
        slow = replace(DEFAULTS, D=1e-6, v=0.1)
        geom = ReceiverGeometry.centered(slow)
        assert peak_time(slow, geom) == pytest.approx(5.0, abs=0.02)

    def test_boundary_peak_is_an_error(self):
        with pytest.raises(SearchError):
            peak_time(DEFAULTS, GEOM, search_horizon=1.0)

    def test_plateau_narrower_than_the_scan_step(self):
        # at v = 1 the plateau spans 0.406..0.592 s, between two points of the 0.1 s scan
        fast = replace(DEFAULTS, D=1e-6, v=1.0)
        geom = ReceiverGeometry.centered(fast)
        assert peak_time(fast, geom, search_horizon=100.0) == pytest.approx(0.499342, abs=1e-6)

    def test_plateau_from_the_first_scan_point(self):
        # the transmitter sits inside the receiver, so the response starts at its peak
        inside = replace(DEFAULTS, l_rx=2.0)
        geom = ReceiverGeometry.centered(inside)
        t_m = peak_time(inside, geom)
        assert cir(t_m, 0.0, inside, geom) == 1.0
        assert t_m == pytest.approx(0.5 * (0.015e-3 + 0.009048), abs=1e-6)

    def test_tolerance_below_float_spacing_terminates(self):
        assert peak_time(DEFAULTS, GEOM, tol=1e-300) == pytest.approx(peak_time(DEFAULTS, GEOM), abs=1e-6)

    @pytest.mark.parametrize(
        "change",
        [{}, {"D": 1e-6}, {"D": 1e-4}, {"D": 0.005}, {"D": 0.05}, {"v": 0.0}, {"v": 0.4}, {"D": 1e-6, "v": 0.1}],
        ids=lambda change: ",".join(f"{k}={v}" for k, v in change.items()) or "defaults",
    )
    def test_matches_scalar_oracle(self, change):
        params = replace(DEFAULTS, **change)
        geom = ReceiverGeometry.centered(params)
        expected = oracle_peak_time(params, geom)
        assert peak_time(params, geom) == pytest.approx(expected, abs=1e-6)
        for search in (oracle_peak_time, peak_time):
            with pytest.raises(SearchError):
                search(params, geom, search_horizon=0.5 * expected)

    def test_refines_with_few_array_calls(self, monkeypatch):
        times = []

        def counting(t, *args, **kwargs):
            times.append(t)
            return cir(t, *args, **kwargs)

        monkeypatch.setattr("mc_arelab.channel.cir", counting)
        peak_time(DEFAULTS, GEOM)
        assert len(times) <= 5
        assert all(np.ndim(t) == 1 for t in times)

    def test_rejects_bad_arguments(self):
        for name, value in [
            ("search_horizon", -1.0),
            ("search_horizon", math.nan),
            ("search_horizon", math.inf),
            ("tol", 0.0),
            ("tol", math.nan),
            ("tol", math.inf),
        ]:
            with pytest.raises(ParameterError, match=name):
                peak_time(DEFAULTS, GEOM, **{name: value})


class TestSummarize:
    def test_no_noise_means_no_noise_count(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 6)
        summary = summarize(DEFAULTS, GEOM, layout)
        assert summary.mu_n == 0.0
        assert summary.mu_s > 0.0

    def test_noise_count_scales_with_volume(self):
        params = replace(DEFAULTS, c_noise=10.0)
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 6)
        summary = summarize(params, GEOM, layout)
        assert summary.mu_n == pytest.approx(10.0 * GEOM.volume, rel=1e-14)

    def test_ring_grouping(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 36)
        summary = summarize(DEFAULTS, GEOM, layout)
        assert summary.n_interferers == 36
        assert [count for _, count in summary.cbar] == [6, 6, 6, 12, 6]
        values = [value for value, _ in summary.cbar]
        assert values == sorted(values, reverse=True)

    def test_equidistant_interferers_share_expectation(self):
        # two lattice sites at the same radius get the exact same value
        t_m = peak_time(DEFAULTS, GEOM)
        a = cir(t_m, 0.2, DEFAULTS, GEOM)
        b = cir(t_m, 0.2, DEFAULTS, GEOM)
        assert a == b

    def test_reference_sinr_for_36_interferers(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 36)
        summary = summarize(DEFAULTS, GEOM, layout, gamma_form="regularized")
        sinr = summary.mu_s / summary.cbar_sum
        assert sinr == pytest.approx(0.163543, rel=1e-3)

    def test_explicit_sampling_time_is_honored(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 6)
        summary = summarize(DEFAULTS, GEOM, layout, t_m=2.0)
        assert summary.t_m == 2.0
        assert summary.mu_s == pytest.approx(100 * cir(2.0, 0.0, DEFAULTS, GEOM), rel=1e-14)

    def test_summary_accessors(self):
        summary = ChannelSummary(t_m=1.0, mu_s=4.0, cbar=((2.0, 6), (1.0, 12)), mu_n=0.5)
        assert summary.cbar_sum == pytest.approx(24.0)
        assert summary.n_interferers == 18
