"""Error probabilities, rates, ARE, and the sweep/optimization drivers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import special

from mc_arelab import detection, perf
from mc_arelab.channel import summarize
from mc_arelab.config import SystemConfig
from mc_arelab.detection import collapse_iui
from mc_arelab.errors import ConfigError, ParameterError, SearchError
from mc_arelab.perf import (
    ErrorPair,
    error_curves,
    error_probs,
    evaluate,
    link_rate,
    optimize_radius,
    spatial_rate,
    sweep,
)


def oracle_error_probs(theta, mu_s, spectrum, mu_n):
    """Same sums through scipy's regularized upper gamma."""
    w = np.exp(spectrum.log_weights)
    if theta == 0:
        return 1.0, 0.0
    q = float(np.sum(w * special.gammaincc(theta, mu_s + spectrum.values + mu_n)))
    lam_off = spectrum.values + mu_n
    q_off = np.where(lam_off > 0, special.gammaincc(theta, np.maximum(lam_off, 1e-300)), 1.0)
    p = float(np.sum(w * (1.0 - q_off)))
    return p, q


class TestErrorProbs:
    def test_theta_zero_always_decides_one(self):
        pair = error_probs(0, 5.0, [(3.0, 4)], 1.0)
        assert (pair.p, pair.q) == (1.0, 0.0)

    def test_no_interference_z_channel(self):
        pair = error_probs(1, 100.0, [], 0.0)
        assert pair.p == 0.0
        assert pair.q == pytest.approx(math.exp(-100.0), rel=1e-10)

    def test_single_interferer_hand_sums(self):
        pair = error_probs(5, 6.0, [(4.0, 1)], 1.0)
        q_want = 0.5 * special.gammaincc(5, 7.0) + 0.5 * special.gammaincc(5, 11.0)
        p_want = 0.5 * (1.0 - special.gammaincc(5, 1.0)) + 0.5 * (1.0 - special.gammaincc(5, 5.0))
        assert pair.q == pytest.approx(q_want, rel=1e-12)
        assert pair.p == pytest.approx(p_want, rel=1e-12)

    def test_matches_gamma_oracle_across_thresholds(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            basis = [
                (float(rng.uniform(0.1, 4.0)), int(rng.integers(1, 6)))
                for _ in range(rng.integers(1, 4))
            ]
            sp = collapse_iui(basis)
            mu_s = float(rng.uniform(2.0, 30.0))
            mu_n = float(rng.uniform(0.0, 3.0))
            for theta in (1, 2, 5, 11, 30):
                pair = error_probs(theta, mu_s, basis, mu_n)
                p_want, q_want = oracle_error_probs(theta, mu_s, sp, mu_n)
                assert pair.p == pytest.approx(p_want, abs=1e-12)
                assert pair.q == pytest.approx(q_want, abs=1e-12)

    def test_curve_agrees_with_single_calls(self):
        basis = [(1.5, 3)]
        p_curve, q_curve = error_curves(20, 8.0, basis, 0.5)
        curve = 0.5 * (p_curve + q_curve)
        for theta in range(21):
            pair = error_probs(theta, 8.0, basis, 0.5)
            assert curve[theta] == pytest.approx(0.5 * (pair.p + pair.q), abs=1e-14)

    def test_rejects_bad_theta(self):
        with pytest.raises(ParameterError):
            error_probs(-1, 5.0, [], 0.0)
        with pytest.raises(ParameterError):
            error_probs(1.5, 5.0, [], 0.0)
        for theta_max in (-1, 2.5, True, math.nan):
            with pytest.raises(ParameterError, match="theta_max"):
                error_curves(theta_max, 5.0, [], 0.0)
        # NumPy integers are integers
        assert error_probs(np.int64(3), 5.0, [(1.0, 2)], 0.0) == error_probs(3, 5.0, [(1.0, 2)], 0.0)

    @pytest.mark.parametrize(
        "mu_s,mu_n,basis,name",
        [
            (math.nan, 0.0, [], "mu_s"),
            (math.inf, 0.0, [], "mu_s"),
            (5.0, math.nan, [], "mu_n"),
            (5.0, math.inf, [], "mu_n"),
            (5.0, 0.0, [(math.nan, 2)], "ring mean"),
            (5.0, 0.0, [(math.inf, 2)], "ring mean"),
        ],
    )
    def test_rejects_bad_means(self, mu_s, mu_n, basis, name):
        with pytest.raises(ParameterError, match=name):
            error_curves(10, mu_s, basis, mu_n)
        with pytest.raises(ParameterError, match=name):
            error_probs(3, mu_s, basis, mu_n)

    def test_error_pair_bounds(self):
        with pytest.raises(ParameterError):
            ErrorPair(p=1.2, q=0.0)
        with pytest.raises(ParameterError):
            ErrorPair(p=0.0, q=-0.1)


class TestRates:
    def test_perfect_channel(self):
        assert link_rate(ErrorPair(0.0, 0.0)) == 1.0

    def test_useless_channel(self):
        assert link_rate(ErrorPair(0.5, 0.5)) == 0.0

    def test_z_channel_value(self):
        rate = link_rate(ErrorPair(0.0, 0.5))
        want = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)) - 0.5
        assert rate == pytest.approx(want, abs=1e-12)
        assert rate == pytest.approx(0.311278, abs=1e-6)

    def test_symmetric_under_error_swap(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, q = rng.uniform(0.0, 1.0, size=2)
            assert link_rate(ErrorPair(p, q)) == pytest.approx(
                link_rate(ErrorPair(q, p)), abs=1e-12
            )

    def test_equal_errors_match_bsc_capacity(self):
        # at p = q the channel is binary symmetric, of capacity 1 - H2(p)
        rate = link_rate(ErrorPair(0.11, 0.11))
        assert rate == pytest.approx(1.0 + 0.11 * math.log2(0.11) + 0.89 * math.log2(0.89), abs=1e-12)

    def test_spatial_rate(self):
        assert spatial_rate(0.0346410) == pytest.approx(28.8675, rel=1e-5)
        assert spatial_rate(1.0) == 1.0
        assert spatial_rate(2.0) == pytest.approx(0.5 * spatial_rate(1.0))

    @pytest.mark.parametrize("area", [0.0, -1.0, math.inf, math.nan, True, "1.0"])
    def test_spatial_rate_rejects_bad_areas(self, area):
        with pytest.raises(ParameterError, match="cell_area"):
            spatial_rate(area)


class TestEvaluate:
    def test_report_identities(self):
        report = evaluate(SystemConfig())
        assert report.ber == pytest.approx(
            0.5 * (report.errors.p + report.errors.q), abs=1e-12
        )
        assert report.are == pytest.approx(report.link_rate * report.spatial_rate, abs=1e-12)
        assert report.theta_used == report.theta_opt
        assert report.cell_area == pytest.approx(math.sqrt(3.0) / 2.0 * 0.2**2)
        assert not report.truncation_warning

    @pytest.mark.parametrize("threshold_mode", ["optimal", "suboptimal"])
    def test_one_count_distribution_to_the_flip_bound(self, monkeypatch, threshold_mode):
        # theta_opt and both error probabilities come from one pmf build
        config = SystemConfig(n_mol=1000, threshold_mode=threshold_mode)
        summary = summarize(config.params(), config.geometry(), config.layout())
        lam_max = summary.mu_n + summary.cbar_sum
        bound = math.ceil(summary.mu_s / math.log1p(summary.mu_s / lam_max))
        lengths = []
        build = detection._count_pmfs

        def recording(mu_s, ring_basis, mu_n, n):
            lengths.append(n)
            return build(mu_s, ring_basis, mu_n, n)

        for module in (detection, perf):
            monkeypatch.setattr(module, "_count_pmfs", recording)
        report = evaluate(config)
        assert len(lengths) == 1
        assert lengths[0] <= bound + 3
        assert report.theta_used == (report.theta_opt if threshold_mode == "optimal" else report.theta_sub)

    def test_suboptimal_mode_uses_closed_form_threshold(self):
        report = evaluate(SystemConfig(threshold_mode="suboptimal"))
        assert report.theta_used == report.theta_sub

    def test_heavy_interference_kills_the_link(self):
        report = evaluate(SystemConfig(c=0.05))
        assert report.ber > 0.45
        assert report.link_rate < 0.01
        assert report.truncation_warning

    def test_truncation_flag_follows_pitch(self):
        assert not evaluate(SystemConfig(c=0.2)).truncation_warning
        assert evaluate(SystemConfig(c=0.1)).truncation_warning

    def test_no_interference_composition(self):
        # Z-channel composition: p = 0 and q = e^{-mu_s} at theta = 1
        pair = error_probs(1, 20.0, [], 0.0)
        rate = link_rate(pair)
        q = math.exp(-20.0)
        p_one = 0.5 * (1.0 - q)
        want = (
            -(p_one * math.log2(p_one) + (1.0 - p_one) * math.log2(1.0 - p_one))
            - 0.5 * (-(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q)))
        )
        assert rate == pytest.approx(want, abs=1e-12)

    @given(
        grid=st.sampled_from(["hex", "square"]),
        c=st.floats(0.03, 2.0),
        n_mol=st.integers(1, 3000),
        # up to 300 /m^3 keeps mu_n below about 200 counts: the count pmfs
        # cost O(n^2) in the count range, seconds at mu_n ~ 8e3
        c_noise=st.one_of(st.just(0.0), st.floats(0.0, 300.0)),
        diff=st.floats(1e-4, 0.2),
        v=st.floats(0.0, 2.0),
        n_interferers=st.sampled_from([None, 1, 6, 18, 36, 200]),
        threshold_mode=st.sampled_from(["optimal", "suboptimal"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_configs_give_valid_reports_or_named_errors(
        self, grid, c, n_mol, c_noise, diff, v, n_interferers, threshold_mode
    ):
        config = SystemConfig(
            grid=grid,
            c=c,
            n_mol=n_mol,
            c_noise=c_noise,
            diff=diff,
            v=v,
            n_interferers=n_interferers,
            threshold_mode=threshold_mode,
        )
        try:
            report = evaluate(config)
        except (ParameterError, SearchError) as err:
            event(type(err).__name__)
            assert str(err)
            return
        event("report")
        assert 0.0 <= report.errors.p <= 1.0 and 0.0 <= report.errors.q <= 1.0
        for value in (report.ber, report.link_rate, report.spatial_rate, report.are):
            assert math.isfinite(value)
        assert report.theta_used in (report.theta_opt, report.theta_sub)
        # infinite only without interference
        assert report.sinr_worst > 0.0


class TestSweep:
    def test_singleton_equals_evaluate(self):
        config = SystemConfig()
        assert sweep(config, "cell_pitch", [0.25]) == [
            evaluate(dataclasses.replace(config, c=0.25))
        ]

    def test_area_axis_reaches_both_grids_equally(self):
        area = 0.2
        hex_rep = sweep(SystemConfig(grid="hex"), "cell_area", [area])[0]
        sq_rep = sweep(SystemConfig(grid="square"), "cell_area", [area])[0]
        assert hex_rep.cell_area == pytest.approx(area, rel=1e-12)
        assert sq_rep.cell_area == pytest.approx(area, rel=1e-12)

    def test_more_molecules_raise_and_shift_the_peak(self):
        cs = np.geomspace(0.15, 0.9, 14)
        peaks = {}
        for n_mol in (10, 1000):
            reports = sweep(SystemConfig(n_mol=n_mol), "cell_pitch", cs)
            ares = np.array([r.are for r in reports])
            peaks[n_mol] = (float(ares.max()), float(cs[int(np.argmax(ares))]))
        assert peaks[1000][0] > peaks[10][0]
        assert peaks[1000][1] < peaks[10][1]

    def test_noise_lowers_peak_without_moving_it(self):
        cs = np.geomspace(0.15, 0.9, 14)
        peaks = {}
        for noise in (0.0, 10.0):
            reports = sweep(SystemConfig(c_noise=noise), "cell_pitch", cs)
            ares = np.array([r.are for r in reports])
            peaks[noise] = (float(ares.max()), int(np.argmax(ares)))
        assert peaks[10.0][0] < peaks[0.0][0]
        assert peaks[10.0][1] == peaks[0.0][1]

    def test_hexagonal_beats_square_at_equal_area(self):
        area = 0.2
        hex_rep = sweep(SystemConfig(grid="hex"), "cell_area", [area])[0]
        sq_rep = sweep(SystemConfig(grid="square"), "cell_area", [area])[0]
        assert hex_rep.ber <= sq_rep.ber + 1e-6

    def test_faster_diffusion_hurts(self):
        c = math.sqrt(2.0 * 0.2 / math.sqrt(3.0))
        slow = evaluate(SystemConfig(c=c, diff=0.005))
        fast = evaluate(SystemConfig(c=c, diff=0.02))
        assert fast.ber > slow.ber

    def test_rejects_unknown_axis_and_empty_values(self):
        with pytest.raises(ParameterError, match="axis"):
            sweep(SystemConfig(), "radius", [0.1])
        with pytest.raises(ParameterError, match="at least one"):
            sweep(SystemConfig(), "cell_pitch", [])

    def test_failure_names_the_offending_value(self):
        with pytest.raises(ParameterError, match=r"D = -1"):
            sweep(SystemConfig(), "D", [0.01, -1.0])

    def test_thread_count_does_not_change_results(self, monkeypatch):
        cs = [0.2, 0.3, 0.4]
        serial = sweep(SystemConfig(), "cell_pitch", cs)
        monkeypatch.setenv("MC_ARELAB_THREADS", "4")
        parallel = sweep(SystemConfig(), "cell_pitch", cs)
        assert serial == parallel

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("MC_ARELAB_THREADS", "many")
        with pytest.raises(ConfigError, match="MC_ARELAB_THREADS"):
            sweep(SystemConfig(), "cell_pitch", [0.2])


class TestOptimizeRadius:
    def test_single_candidate(self):
        config = SystemConfig()
        radius, report = optimize_radius(config, w_max=1)
        assert radius == pytest.approx(0.02 * config.pitch)
        assert report == evaluate(dataclasses.replace(config, s_rx=radius))

    def test_noiseless_prefers_largest_radius(self):
        config = SystemConfig()
        radius, _ = optimize_radius(config)
        assert radius == pytest.approx(0.5 * config.pitch)

    def test_noise_creates_an_error_floor(self):
        results = {}
        for area in (1.0, 2.0, 4.0):
            c = math.sqrt(2.0 * area / math.sqrt(3.0))
            config = SystemConfig(c=c, c_noise=10.0, n_interferers=6)
            _, rep_opt = optimize_radius(config)
            rep_max = evaluate(dataclasses.replace(config, s_rx=0.5 * config.pitch))
            results[area] = (rep_opt.ber, rep_max.ber)
        # the max-radius error grows with area, the optimized one does not
        assert results[4.0][1] > results[2.0][1] > results[1.0][1]
        opt_bers = [results[a][0] for a in (1.0, 2.0, 4.0)]
        assert max(opt_bers) <= 2.0 * min(opt_bers)
        assert results[4.0][0] < 0.1 * results[4.0][1]

    def test_rejects_bad_grid_parameters(self):
        with pytest.raises(ParameterError):
            optimize_radius(SystemConfig(), w_max=0)
        with pytest.raises(ParameterError):
            optimize_radius(SystemConfig(), step_frac=0.0)
        for step_frac in (math.inf, math.nan, True):
            with pytest.raises(ParameterError, match="step_frac"):
                optimize_radius(SystemConfig(), step_frac=step_frac)
        with pytest.raises(ParameterError, match="w_max"):
            optimize_radius(SystemConfig(), w_max=2.0)
        # a NumPy integer is an integer
        config = SystemConfig(n_interferers=6)
        assert optimize_radius(config, w_max=np.int64(2)) == optimize_radius(config, w_max=2)
