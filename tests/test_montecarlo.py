"""Sampling-based validation machinery and its statistical contracts."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from mc_arelab.channel import ChannelSummary, summarize
from mc_arelab.config import SystemConfig
from mc_arelab.detection import collapse_iui, optimal_threshold
from mc_arelab.errors import ParameterError
from mc_arelab.montecarlo import _draw_iui, poisson_sample, run
from mc_arelab.perf import error_probs
from mc_arelab.specfun import regularized_gamma_q


@pytest.fixture(scope="module")
def default_summary():
    config = SystemConfig()
    return summarize(config.params(), config.geometry(), config.layout())


@pytest.fixture(scope="module")
def default_run(default_summary):
    return run(default_summary, 200_000, seed=1)


class TestRun:
    def test_same_seed_reproduces_everything(self, default_summary, default_run):
        again = run(default_summary, 200_000, seed=1)
        assert again == default_run

    def test_different_seed_differs(self, default_summary, default_run):
        other = run(default_summary, 200_000, seed=2)
        assert other.best.ber != default_run.best.ber

    def test_thread_count_does_not_change_results(self, monkeypatch, default_summary, default_run):
        monkeypatch.setenv("MC_ARELAB_THREADS", "4")
        parallel = run(default_summary, 200_000, seed=1)
        assert parallel == default_run

    def test_silent_transmitter_always_misses(self):
        summary = ChannelSummary(t_m=1.0, mu_s=0.0, cbar=(), mu_n=0.0)
        result = run(summary, 10_000, theta_max=5, seed=3)
        for row in result.per_threshold_ber[1:]:
            assert row.q_hat == 1.0
            assert row.p_hat == 0.0
            assert row.ber == pytest.approx(0.5, abs=0.02)

    def test_consistent_with_analytic_error_rates(self, default_summary, default_run):
        sp = collapse_iui(default_summary.cbar)
        theta_opt = optimal_threshold(default_summary.mu_s, sp, default_summary.mu_n)
        pair = error_probs(theta_opt, default_summary.mu_s, sp, default_summary.mu_n)
        analytic_ber = 0.5 * (pair.p + pair.q)
        row = default_run.per_threshold_ber[theta_opt]
        assert abs(row.ber - analytic_ber) <= 3.0 * row.stderr
        assert abs(default_run.best.ber - analytic_ber) <= 3.0 * row.stderr

    def test_best_is_curve_minimum(self, default_run):
        bers = [row.ber for row in default_run.per_threshold_ber]
        assert default_run.best.ber == min(bers)
        assert default_run.best.theta == int(np.argmin(bers))

    def test_stderr_formula(self, default_run):
        row = default_run.per_threshold_ber[10]
        want = math.sqrt(row.ber * (1.0 - row.ber) / default_run.samples)
        assert row.stderr == pytest.approx(want, rel=1e-12)

    def test_curve_is_u_shaped_around_the_optimum(self, default_summary, default_run):
        sp = collapse_iui(default_summary.cbar)
        theta_opt = optimal_threshold(default_summary.mu_s, sp, default_summary.mu_n)
        bers = [row.ber for row in default_run.per_threshold_ber]
        assert abs(default_run.best.theta - theta_opt) <= 1
        for theta in range(5, theta_opt - 2):
            assert bers[theta] > bers[theta + 1]
        for theta in range(theta_opt + 2, 40):
            assert bers[theta] < bers[theta + 1]

    def test_more_interferers_never_lower_the_best_threshold(self):
        best = {}
        for n in (6, 36):
            config = SystemConfig(n_interferers=n)
            summary = summarize(config.params(), config.geometry(), config.layout())
            best[n] = run(summary, 200_000, seed=5).best.theta
        assert best[6] <= best[36] + 1

    def test_wide_truncation_keeps_the_best_threshold(self):
        # 1260 sites exceed what exact atom enumeration can handle, so the
        # widest point of the truncation chain is sampled instead
        exact = {}
        for n in (6, 36):
            config = SystemConfig(n_interferers=n)
            summary = summarize(config.params(), config.geometry(), config.layout())
            sp = collapse_iui(summary.cbar)
            exact[n] = optimal_threshold(summary.mu_s, sp, summary.mu_n)
        config = SystemConfig(n_interferers=1260)
        summary = summarize(config.params(), config.geometry(), config.layout())
        sampled = run(summary, 400_000, theta_max=60, seed=5).best.theta
        assert exact[6] <= exact[36] <= sampled + 1

    def test_semi_analytic_mode_matches_analytic_curve(self, default_summary):
        result = run(default_summary, 200_000, seed=1, mode="semi-analytic")
        sp = collapse_iui(default_summary.cbar)
        theta_opt = optimal_threshold(default_summary.mu_s, sp, default_summary.mu_n)
        pair = error_probs(theta_opt, default_summary.mu_s, sp, default_summary.mu_n)
        analytic_ber = 0.5 * (pair.p + pair.q)
        row = result.per_threshold_ber[theta_opt]
        assert abs(row.ber - analytic_ber) <= 3.0 * row.stderr
        assert result.best.theta == pytest.approx(theta_opt, abs=1)

    def test_rejects_bad_arguments(self, default_summary):
        with pytest.raises(ParameterError):
            run(default_summary, 0)
        with pytest.raises(ParameterError):
            run(default_summary, 100, theta_max=0)
        with pytest.raises(ParameterError):
            run(default_summary, 100, mode="exact")

    @pytest.mark.parametrize("mode", ["stochastic", "semi-analytic"])
    @pytest.mark.parametrize(
        "change, name",
        [
            ({"mu_s": math.nan}, "mu_s"),
            ({"mu_s": -1.0}, "mu_s"),
            ({"mu_n": math.nan}, "mu_n"),
            ({"mu_n": math.inf}, "mu_n"),
            ({"cbar": ((1.0, 6), (math.inf, 6))}, "ring 1 mean"),
            ({"cbar": ((-1.0, 6),)}, "ring 0 mean"),
            ({"cbar": ((math.nan, 6),)}, "ring 0 mean"),
            ({"cbar": ((1.0, 0),)}, "ring 0 count"),
            ({"cbar": ((1.0, 2.5),)}, "ring 0 count"),
        ],
    )
    def test_rejects_bad_summary(self, default_summary, mode, change, name):
        bad = dataclasses.replace(default_summary, **change)
        with pytest.raises(ParameterError, match=name):
            run(bad, 100, theta_max=5, mode=mode)


class TestPoissonSample:
    def test_zero_rate_is_always_zero(self):
        rng = np.random.default_rng(0)
        assert all(poisson_sample(0.0, rng) == 0 for _ in range(100))

    def test_moments(self):
        rng = np.random.default_rng(11)
        draws = np.array([poisson_sample(4.0, rng) for _ in range(1_000_000)])
        assert draws.mean() == pytest.approx(4.0, abs=0.02)
        assert draws.var(ddof=1) == pytest.approx(4.0, abs=0.05)

    def test_tail_matches_gamma_cdf(self):
        rng = np.random.default_rng(12)
        draws = np.array([poisson_sample(100.0, rng) for _ in range(100_000)])
        p_hat = float((draws <= 90).mean())
        ref = regularized_gamma_q(91, 100.0)
        sigma = math.sqrt(ref * (1.0 - ref) / draws.size)
        assert abs(p_hat - ref) <= 3.0 * sigma

    def test_rejects_bad_rate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            poisson_sample(-1.0, rng)
        with pytest.raises(ParameterError):
            poisson_sample(math.inf, rng)


class TestRingSampling:
    def test_binomial_ring_equals_bernoulli_sum(self):
        n = 100_000
        ring = _draw_iui([(1.0, 6)], n, np.random.default_rng(21)).astype(int)
        bits = np.random.default_rng(22).integers(0, 2, size=(n, 6)).sum(axis=1)
        table = np.array(
            [np.bincount(ring, minlength=7), np.bincount(bits, minlength=7)]
        )
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.01
