import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mc_arelab import channel
from mc_arelab.channel import (
    ChannelSummary,
    PhysicalParams,
    ReceiverGeometry,
    cir,
    cir_uca,
    peak_time,
    summarize,
)
from mc_arelab.config import SystemConfig
from mc_arelab.errors import ParameterError, SearchError
from mc_arelab.gridgeom import GridKind, enumerate_sites

from oracles import cir_lower_fsum, cir_ncx2, cir_quadrature, cir_regularized_fsum, oracle_peak_time

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
            # three sites per time: the window edge at element 2048 cuts the
            # run of time 682, whose axial factor is then formed twice
            t_long = np.geomspace(0.05, 15.0, 800)
            grid = cir(t_long[:, None], r[2:5], params, geom, k_max=3, gamma_form=gamma_form)
            for i in range(670, 700):
                for j, r_j in enumerate(r[2:5].tolist()):
                    assert grid[i, j] > 0.0
                    assert grid[i, j] == cir(t_long[i], r_j, params, geom, k_max=3, gamma_form=gamma_form)
            # one (sigma, order) run longer than a block of the radial series
            row = cir(2.0, np.full(1000, 1.52), params, geom, k_max=3, gamma_form=gamma_form)
            assert (row == cir(2.0, 1.52, params, geom, k_max=3, gamma_form=gamma_form)).all()

    def test_one_pmf_row_per_run_of_equal_sigma(self, monkeypatch):
        # the Poisson(sigma) rows are the scaled rows whose orders start at 1
        log_sigmas = []
        scaled = channel._scaled_rows

        def counting(log_x, log_at_mode, orders, *args):
            if orders[0] == 1.0:
                log_sigmas.extend(log_x.tolist())
            return scaled(log_x, log_at_mode, orders, *args)

        monkeypatch.setattr("mc_arelab.channel._scaled_rows", counting)
        # the ring and the 65 tail nodes of a default summary share sigma,
        # though their orders differ
        config = SystemConfig(c=0.44)
        summarize(config.params(), config.geometry(), config.layout())
        assert len(log_sigmas) == 1
        # t-major elements, four sites per time: one row per time, each sigma once
        log_sigmas.clear()
        t = np.linspace(0.01, 15.0, 3000)
        cir(t[:, None], [0.2, 0.2 * math.sqrt(3.0), 0.4, 0.9], DEFAULTS, GEOM)
        assert len(log_sigmas) > 2500
        assert len(set(log_sigmas)) == len(log_sigmas)

    @pytest.mark.parametrize("gamma_form", ["lower", "regularized"])
    @pytest.mark.parametrize("s_rx", [1e-4, 0.1, 1.0])
    def test_zero_offset_closed_form_matches_ncx2(self, gamma_form, s_rx):
        # sigma = s_rx^2 / 4Dt runs from 2e-8 (1 - e^-sigma loses all its
        # digits without expm1) to 5e5 over the grid
        params = replace(DEFAULTS, s_rx=s_rx)
        geom = ReceiverGeometry.centered(params)
        t = np.geomspace(5e-5, 15.0, 300)
        values = cir(t, 0.0, params, geom, gamma_form=gamma_form)
        for t_i, value in zip(t.tolist(), values.tolist()):
            ref = cir_ncx2(t_i, 0.0, params, geom)
            assert abs(value - ref) <= 1e-13 * ref, (t_i, value, ref)

    def test_peak_time_sums_no_series_at_zero_offset(self, monkeypatch):
        # peak_time forms the zero-offset response itself: no response
        # evaluation and no series; summarize sends its rings and tail nodes
        # through one response evaluation
        radial_sizes, response_offsets = [], []
        radial, response = channel._radial, channel._response

        def offset_only(rho, *args):
            assert (rho > 0).all()
            radial_sizes.append(rho.size)
            return radial(rho, *args)

        def counting(t, r, *args):
            response_offsets.append(np.size(r))
            return response(t, r, *args)

        monkeypatch.setattr("mc_arelab.channel._radial", offset_only)
        monkeypatch.setattr("mc_arelab.channel._response", counting)
        channel._scan_axial.cache_clear()
        peak_time(DEFAULTS, GEOM)
        assert radial_sizes == [] and response_offsets == []
        summarize(DEFAULTS, GEOM, enumerate_sites(GridKind.HEXAGONAL, 0.2, 6))
        # the paired link, one ring and 65 Simpson nodes; all but the first are offset
        assert response_offsets == [1 + 1 + 65]
        assert radial_sizes == [1 + 65]

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


def _series_errors(cases):
    """The cases where cir misses its oracle by more than 64 eps (1 + rho + sigma) relative.

    The oracles are the ncx2 cdf (lower form; an exact sum of the series
    where SciPy rounds the cdf to 0) and the exact sum of the regularized
    series.

    The bound follows from the code: each scaled term is the exponential of
    k ln x - power ln k! less the same at the mode, a few roundings of
    eps / 2 on parts of size up to about k ln k, with k up to about rho +
    sigma where the sum is carried (ln k < 7 here), and the exponent of the
    scale adds sigma + rho. Values below 1e-280, whose scaled terms may be
    subnormal, are held to an absolute 1e-280 instead.
    """
    eps = np.finfo(float).eps
    misses = []
    for t, r_i, params, k_max, gamma_form in cases:
        geom = ReceiverGeometry.centered(params)
        four_dt = 4.0 * params.D * t
        rho, sigma = r_i * r_i / four_dt, params.s_rx * params.s_rx / four_dt
        value = cir(t, r_i, params, geom, k_max=k_max, gamma_form=gamma_form)
        if gamma_form == "regularized":
            ref = cir_regularized_fsum(t, r_i, params, geom, orders=400)
        else:
            ref = cir_ncx2(t, r_i, params, geom) or cir_lower_fsum(t, r_i, params, geom, orders=2000)
        if abs(value - ref) > max(64.0 * eps * (1.0 + rho + sigma) * ref, 1e-280):
            misses.append((t, r_i, params.D, params.s_rx, k_max, gamma_form, value, ref))
    return misses


def _series_cases(count: int, seed: int):
    """Seeded (t, r_i, params, k_max, gamma_form) with sigma in [1e-4, 60] and rho in [1e-4, 400].

    A sixth of the offsets sit at, just inside or half way to the far cut
    r_i - S_RX = _FAR sqrt(4Dt), past which cir sums no series.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        D = float(10 ** rng.uniform(-3.0, math.log10(0.05)))
        t = float(rng.uniform(1.0, 6.0))
        root = math.sqrt(4.0 * D * t)
        s_rx = root * math.sqrt(10 ** rng.uniform(-4.0, math.log10(60.0)))
        if i % 6 == 5:
            r_i = s_rx + float(rng.choice([0.5, 0.999, 1.0])) * channel._FAR * root
        else:
            r_i = root * math.sqrt(10 ** rng.uniform(-4.0, math.log10(400.0)))
        params = replace(DEFAULTS, D=D, s_rx=s_rx)
        cases.append((t, r_i, params, int(rng.choice([0, 3, 20, 60])), ("lower", "regularized")[i % 2]))
    return cases


class TestCirAccuracy:
    CASES = _series_cases(240, seed=28)

    def test_within_the_stated_bound_of_both_oracles(self):
        assert _series_errors(self.CASES) == []
        # the far-cut cases are live and reach tiny values
        far = [cir(t, r, p, ReceiverGeometry.centered(p)) for t, r, p, _, _ in self.CASES[5::6]]
        assert min(far) < 1e-250 and max(far) > 0.0

    @pytest.mark.parametrize(
        "edits",
        [
            # stop once q_j <= 2 instead of 1/2
            [("2.0 * sigma", "0.5 * sigma"), ("(2.0 * rs)", "(0.5 * rs)"), ("8.0 * rs", "2.0 * rs")],
            # pair p_j with W_j instead of W_(j-1)
            [("orders[1:], log_fact[1 : width + 1]", "orders[:-1], log_fact[:width]")],
            # 40 orders too few past h: the last term summed is then not small
            [("np.maximum(fall, 1.0)", "np.maximum(fall - 40.0, 1.0)")],
        ],
        ids=["q-below-2", "w-shifted", "short-fall"],
    )
    def test_a_planted_defect_fails_the_bound(self, monkeypatch, edits):
        # Dropping the very last term cannot fail it: that term is at most
        # SERIES_RTOL of the sum by construction.
        source = inspect.getsource(channel._radial)
        for old, new in edits:
            assert old in source
            source = source.replace(old, new)
        namespace = dict(vars(channel))
        exec(source, namespace)
        monkeypatch.setattr("mc_arelab.channel._radial", namespace["_radial"])
        assert _series_errors(self.CASES) != []


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
        axial = channel._axial

        def counting(t, *args):
            times.append(t)
            return axial(t, *args)

        monkeypatch.setattr("mc_arelab.channel._axial", counting)
        channel._scan_axial.cache_clear()
        peak_time(DEFAULTS, GEOM)
        assert len(times) <= 5
        assert all(np.ndim(t) == 1 for t in times)
        # a second search reuses the scan and evaluates only its zooms
        zooms = len(times) - 1
        peak_time(DEFAULTS, GEOM)
        assert len(times) == 1 + 2 * zooms

    @pytest.mark.parametrize("gamma_form", ["lower", "regularized"])
    def test_zero_offset_response_equals_cir_bit_for_bit(self, gamma_form):
        rng = np.random.default_rng(20)
        cases = [
            ({}, 15.0),
            ({"v": 0.0}, 15.0),
            ({"D": 1e-9}, 15.0),  # a plateau at 1
            ({"D": 1e-9, "v": 0.1}, 15.0),
            ({"v": 1e3}, 1e-3),
            ({"v": 1e6, "D": 1e-6}, 1e-6),
        ]
        for _ in range(40):
            change = {
                "D": float(10 ** rng.uniform(-9, 0)),
                "v": float(rng.choice([0.0, 10 ** rng.uniform(-3, 3)])),
                "d": float(10 ** rng.uniform(-2, 1)),
                "s_rx": float(10 ** rng.uniform(-4, 0)),
                "l_rx": float(10 ** rng.uniform(-3, 0)),
            }
            cases.append((change, float(10 ** rng.uniform(-3, 2))))
        live = []
        for change, horizon in cases:
            params = replace(DEFAULTS, **change)
            geom = ReceiverGeometry.centered(params)
            t = np.concatenate((horizon * np.arange(1, 1001) / 1000, horizon * rng.uniform(1e-6, 1.0, 68)))
            lean = channel._zero_offset(t, channel._axial(t, params.D, params.v, geom.z_s, geom.z_e), params.D, params.s_rx)
            assert np.array_equal(lean, cir(t, 0.0, params, geom, gamma_form=gamma_form)), change
            live.append(lean.max())
        assert live[2] == live[3] == 1.0
        assert sum(value > 0.0 for value in live) > len(cases) // 2

    def test_scan_cache_is_read_only_and_changes_nothing(self):
        cases = [(params, ReceiverGeometry.centered(params)) for params in (DEFAULTS, replace(DEFAULTS, v=0.0))]
        channel._scan_axial.cache_clear()
        fresh = [peak_time(params, geom) for params, geom in cases]
        cached = [peak_time(params, geom) for params, geom in cases]
        assert fresh == cached
        assert channel._scan_axial.cache_info().hits == 2
        # S_RX is not in the key: a sweep over radii shares one scan
        peak_time(replace(DEFAULTS, s_rx=0.05), GEOM)
        assert channel._scan_axial.cache_info().hits == 3
        for array in channel._scan_axial(DEFAULTS.D, DEFAULTS.v, GEOM.z_s, GEOM.z_e, 15.0):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("change, horizon", [({}, 1e300), ({"v": 1e6}, 15.0)])
    def test_peak_between_scan_points_names_the_step(self, change, horizon):
        # the peak is near 2.5 s, or the pulse passes at about 5e-7 s: both
        # fall between two scan points
        params = replace(DEFAULTS, **change)
        with pytest.raises(SearchError, match="scan points") as info:
            peak_time(params, ReceiverGeometry.centered(params), search_horizon=horizon)
        message = str(info.value)
        assert f"{horizon / 1000:.3g} s apart" in message
        assert "past the horizon" in message and "between two scan points" in message

    @pytest.mark.parametrize("end, outward", zip(channel._HORIZONS, (0.0, math.inf)))
    def test_horizon_range_ends_at_the_normal_floats(self, end, outward):
        # each end scans normal floats only (and misses the peak near 2.5 s);
        # the next float outward is rejected before any scan
        grid = end * np.arange(1, 1001) / 1000
        assert np.isfinite(grid).all() and grid.min() >= np.finfo(float).tiny
        with pytest.raises(SearchError, match="scan points"):
            peak_time(DEFAULTS, GEOM, search_horizon=end)
        with pytest.raises(ParameterError, match="search_horizon"):
            peak_time(DEFAULTS, GEOM, search_horizon=math.nextafter(end, outward))

    def test_rejects_bad_arguments(self):
        for name, value in [
            ("search_horizon", -1.0),
            ("search_horizon", math.nan),
            ("search_horizon", math.inf),
            # scan grids that overflow, underflow to 0 and hold subnormals
            ("search_horizon", 1e308),
            ("search_horizon", 5e-324),
            ("search_horizon", 1e-320),
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
